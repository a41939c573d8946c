//! The layer ledger of a traced pass: self time per span name, grouped
//! into layers, plus the pass time no layer accounts for.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, so summing self times over a tree never counts an interval
//! twice. Trees come from `gts_obs::trace` on this process's threads or,
//! for the server, from the `trace` field of a traced frame's response.

use gts_engine::Json;
use std::collections::BTreeMap;

/// One node of a span tree, from whichever source produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Total duration, µs.
    pub micros: u64,
    /// Child spans.
    pub children: Vec<Span>,
}

impl Span {
    /// Converts an in-process span tree.
    pub fn from_obs(node: &gts_obs::SpanNode) -> Span {
        Span {
            name: node.name.clone(),
            micros: node.micros,
            children: node.children.iter().map(Span::from_obs).collect(),
        }
    }

    /// Converts a server span tree (`{"name","micros","count","children"}`).
    pub fn from_json(node: &Json) -> Option<Span> {
        Some(Span {
            name: node.get("name")?.as_str()?.to_owned(),
            micros: node.get("micros")?.as_u64()?,
            children: match node.get("children").and_then(Json::as_arr) {
                Some(kids) => kids.iter().map(Span::from_json).collect::<Option<_>>()?,
                None => Vec::new(),
            },
        })
    }
}

/// Self time per span name, summed over every absorbed tree.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    self_micros: BTreeMap<String, u64>,
    total_micros: BTreeMap<String, u64>,
}

impl Ledger {
    /// Adds every span of `tree`.
    pub fn absorb(&mut self, tree: &Span) {
        let children: u64 = tree.children.iter().map(|c| c.micros).sum();
        *self.self_micros.entry(tree.name.clone()).or_default() +=
            tree.micros.saturating_sub(children);
        *self.total_micros.entry(tree.name.clone()).or_default() += tree.micros;
        for child in &tree.children {
            self.absorb(child);
        }
    }

    /// Summed self time of the spans named in `names`, in seconds.
    pub fn self_s(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.self_micros.get(*n).copied().unwrap_or(0)).sum::<u64>() as f64
            / 1e6
    }

    /// Summed total (inclusive) time of spans named `name`, in seconds.
    /// Only meaningful for names that never nest inside themselves.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_micros.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Span names absorbed that `known` does not list (each must be mapped
    /// to a layer, or its time would silently land in the remainder).
    pub fn unmapped<'a>(&'a self, known: &[&str]) -> Vec<&'a str> {
        self.self_micros.keys().map(String::as_str).filter(|n| !known.contains(n)).collect()
    }
}

/// A pass's wall time split into layers and the remainder.
#[derive(Clone, Debug)]
pub struct Breakdown {
    /// Wall time of the traced pass, in seconds.
    pub wall_s: f64,
    /// `(layer metric name, seconds)`, in print order.
    pub layers: Vec<(String, f64)>,
}

impl Breakdown {
    /// Pass time no layer accounts for: `wall_s` minus every layer.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.layers.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// The ledger as printable lines; the last line shows that the layers
    /// and the remainder sum to the wall time.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("ledger {workload}: traced pass wall {:.4} s\n", self.wall_s);
        for (name, s) in &self.layers {
            out += &format!("  {name:<28} {s:>10.4} s  {:>5.1}%\n", 100.0 * s / self.wall_s);
        }
        let rest = self.unattributed_s();
        out += &format!(
            "  {:<28} {rest:>10.4} s  {:>5.1}%\n",
            "unattributed_s",
            100.0 * rest / self.wall_s
        );
        let sum = self.layers.iter().map(|(_, s)| s).sum::<f64>() + rest;
        out += &format!("  {:<28} {sum:>10.4} s  (= wall)\n", "sum");
        out
    }
}

/// Prints the ledger and records its rows, the remainder, the traced
/// pass time and the tracing overhead against `plain_s`, the same pass
/// without a span collector.
pub fn finish_ledger(
    report: &mut crate::Report,
    breakdown: &Breakdown,
    workload: &str,
    plain_s: f64,
) {
    print!("{}", breakdown.render(workload));
    for (name, s) in &breakdown.layers {
        let name: &'static str = crate::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n == name)
            .unwrap_or_else(|| panic!("ledger row `{name}` is not a declared metric"));
        report.set(name, *s);
    }
    report.set("unattributed_s", breakdown.unattributed_s());
    report.set("traced_pass_s", breakdown.wall_s);
    report.set("untraced_pass_s", plain_s);
    report.set("trace_overhead_s", breakdown.wall_s - plain_s);
    println!(
        "tracing overhead {workload}: traced {:.4} s - untraced {plain_s:.4} s = {:.4} s",
        breakdown.wall_s,
        breakdown.wall_s - plain_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, micros: u64, children: Vec<Span>) -> Span {
        Span { name: name.into(), micros, children }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tree = span(
            "request",
            100,
            vec![span("containment", 80, vec![span("oracle_decide", 50, vec![])])],
        );
        let mut l = Ledger::default();
        l.absorb(&tree);
        l.absorb(&tree);
        assert_eq!(l.self_s(&["request"]), 40e-6);
        assert_eq!(l.self_s(&["containment"]), 60e-6);
        assert_eq!(l.self_s(&["oracle_decide"]), 100e-6);
        assert_eq!(l.self_s(&["request", "containment", "oracle_decide"]), 200e-6);
        assert_eq!(l.total_s("containment"), 160e-6);
        assert_eq!(l.unmapped(&["request", "containment"]), vec!["oracle_decide"]);
    }

    #[test]
    fn server_trees_parse_from_json() {
        let doc = Json::parse(
            r#"{"name":"frame","micros":90,"count":1,"children":[{"name":"parse","micros":30,"count":1,"children":[]}]}"#,
        )
        .unwrap();
        let tree = Span::from_json(&doc).unwrap();
        assert_eq!(tree, span("frame", 90, vec![span("parse", 30, vec![])]));
        assert!(Span::from_json(&Json::parse(r#"{"name":"x"}"#).unwrap()).is_none());
    }

    #[test]
    fn layers_and_remainder_sum_to_wall() {
        let b = Breakdown { wall_s: 2.0, layers: vec![("a".into(), 0.5), ("b".into(), 1.25)] };
        assert_eq!(b.unattributed_s(), 0.25);
        assert!(b.render("w").contains("(= wall)"));
    }
}
