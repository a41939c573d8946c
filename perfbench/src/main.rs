//! perfbench — a layer-by-layer benchmark of the gts workspace.
//!
//! ```text
//! perfbench --workload cold-corpus|served-mix|exec-large --seed N --seconds S --trace 0|1
//! perfbench steady --workload W [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! A run sets the program up (timed as `setup_s`), measures whole rounds
//! of a fixed amount of work until `--seconds` have passed (at least
//! one), checks every output, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! See README.md for the workloads, the metrics and the layer each
//! per-layer metric belongs to.

mod cold;
mod exec_large;
mod ledger;
mod served;
mod stats;
mod steady;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cold-corpus", "served-mix", "exec-large"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("cli.compile_ms", "ms"),
    ("engine.type_check_s", "s"),
    ("engine.equivalence_s", "s"),
    ("engine.elicit_s", "s"),
    ("engine.memo_hit_rate", "ratio"),
    ("engine.teardown_s", "s"),
    ("containment.self_s", "s"),
    ("containment.completion_s", "s"),
    ("containment.probes", "count"),
    ("sat.decides", "count"),
    ("sat.decide_s", "s"),
    ("sat.saturate_s", "s"),
    ("sat.solver_hit_rate", "ratio"),
    ("sat.realize_hit_rate", "ratio"),
    ("sat.types_interned", "count"),
    ("query.nfa_hit_rate", "ratio"),
    ("store.flush_records", "count"),
    ("store.hydrate_s", "s"),
    ("store.hydrated_records", "count"),
    ("store.flush_s", "s"),
    ("store.restart_s", "s"),
    ("store.mb", "MiB"),
    ("serve.frame_p50_ms", "ms"),
    ("serve.frame_p99_ms", "ms"),
    ("serve.memo_served_share", "ratio"),
    ("serve.pool_hit_rate", "ratio"),
    ("serve.parse_ms", "ms"),
    ("serve.checkout_ms", "ms"),
    ("serve.execute_frame_ms", "ms"),
    ("serve.delta_frame_ms", "ms"),
    ("serve.warmup_s", "s"),
    ("serve.threads", "count"),
    ("serve.traced_frames", "count"),
    ("net.wire_p50_ms", "ms"),
    ("exec.index_build_s", "s"),
    ("exec.index_mb", "MiB"),
    ("exec.rule_eval_s", "s"),
    ("exec.assembly_s", "s"),
    ("exec.delta_apply_ms", "ms"),
    ("exec.index_patch_ms", "ms"),
    ("exec.affected_sources", "count"),
    ("exec.fallbacks", "count"),
    ("ledger.serve_s", "s"),
    ("ledger.net_s", "s"),
    ("ledger.engine_s", "s"),
    ("ledger.containment_s", "s"),
    ("ledger.sat_s", "s"),
    ("ledger.exec_s", "s"),
    ("unattributed_s", "s"),
    ("traced_pass_s", "s"),
    ("untraced_pass_s", "s"),
    ("trace_overhead_s", "s"),
    ("tail_percentile", "pct"),
    ("tail_samples_beyond", "count"),
];

/// Parsed command line of a measuring run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time: rounds repeat until this much has passed.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name, value);
        }
        let get = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
        let num = |name: &str| -> Result<u64, String> {
            get(name)?.parse().map_err(|_| format!("--{name}: not a whole number"))
        };
        let workload = get("workload")?.to_owned();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        };
        Ok(Args { workload, seed: num("seed")?, seconds: num("seconds")? as f64, trace })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check on the outputs passed.
    pub correct: bool,
    /// Operations attempted (analyses, frames, deltas, executions).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, one line per failed check.
    pub problems: Vec<String>,
}

impl Report {
    /// A report with no failed check yet.
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Records metric `name`, which must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "undeclared metric `{name}`"
        );
        self.metrics.insert(name, value);
    }

    /// Records a check: a false `ok` marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// The result line: every metric of the run's table, by name with
    /// its unit. Values print with all their digits.
    pub fn json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `.perfbench-scratch/<tag>-<pid>` (emptied first).
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".perfbench-scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Records `p50_ms` and `tail_ms` from per-operation latencies in ms,
/// one list per round: each is the median over rounds of that round's
/// figure, so the tail percentile depends only on the fixed number of
/// operations in a round.
pub fn latency_metrics(report: &mut Report, rounds: &[Vec<f64>]) {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let Some((p, beyond)) = stats::tail_percentile(n) else {
        report.check(false, || format!("{n} samples per round leave no tail percentile"));
        return;
    };
    let per_round =
        |q: f64| stats::median(&rounds.iter().map(|r| stats::percentile(r, q)).collect::<Vec<_>>());
    report.set("p50_ms", per_round(50.0));
    report.set("tail_ms", per_round(p));
    report.set("tail_percentile", p);
    report.set("tail_samples_beyond", beyond as f64);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("serve-child") => served::serve_child(),
        Some("steady") => steady::main(&argv[1..]),
        _ => measure(&argv),
    };
    std::process::exit(code);
}

fn measure(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    let result = match args.workload.as_str() {
        "cold-corpus" => cold::run(&args),
        "served-mix" => served::run(&args),
        _ => exec_large::run(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return 1;
        }
    };
    for p in &report.problems {
        println!("check failed: {p}");
    }
    println!("{}", report.json(args.trace));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("pass_s", 1.25);
        let line = r.json(false);
        let doc = gts_engine::Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(gts_engine::Json::as_str), Some(unit));
        }
        assert_eq!(
            metrics.get("pass_s").and_then(|m| m.get("value")).and_then(|v| v.as_f64()),
            Some(1.25)
        );
        let traced = gts_engine::Json::parse(&r.json(true)).unwrap();
        assert!(PER_LAYER.iter().all(|(n, _)| traced.get("metrics").unwrap().get(n).is_some()));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        use gts_engine::Json;
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload exec-large --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("exec-large", 7, 10.0, true)
        );
        let bad: Vec<String> = vec!["--workload".into(), "nope".into()];
        assert!(Args::parse(&bad).is_err());
    }
}
