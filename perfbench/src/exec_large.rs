//! `exec-large`: gts-exec's index build, rule evaluation and delta
//! patching at the scale where rebuilding a touched label's CSR per
//! delta sets the cost. No oracle work runs.
//!
//! Each family's primary instance is generated, untimed, at
//! [`SCALE`] nodes, and a seeded chain of [`DELTAS_PER_FAMILY`] deltas is
//! derived from it by simulation on a copy (also untimed). Set-up builds
//! every `IndexedGraph` and `Incremental`. The pass runs each family's
//! transformation suite with `execute_indexed` on two threads, then
//! replays the chains through `Incremental::apply_delta`; `p50_ms` and
//! `tail_ms` are per delta.
//!
//! The delta chain cycles through four kinds (edge adds, edge removals,
//! relabels, node removals) and, independently, through a geometric
//! ladder of sizes from one element up to 1% of the instance's edges, so
//! every seed gets the same mix and only the chosen elements differ.

use crate::ledger::{finish_ledger, Breakdown, Ledger, Span};
use crate::stats::{self, Rng};
use crate::{latency_metrics, Args, Report};
use gts_core::graph::{EdgeLabel, Graph, GraphDelta, LabelSet, NodeId, NodeLabel};
use gts_core::Transformation;
use gts_corpus::{scenario, Expectation, Family, Params, Scenario};
use gts_exec::{DeltaStrategy, ExecOptions, Incremental, IndexedGraph};
use std::collections::BTreeSet;
use std::time::Instant;

/// Approximate node count of every family's primary instance. A run at
/// this scale takes about 40 s on a two-core host; larger instances and
/// chains would not fit 22 runs of every workload in under an hour.
pub const SCALE: usize = 100_000;
/// Deltas replayed per family.
pub const DELTAS_PER_FAMILY: usize = 120;
/// Rungs of the delta-size ladder (1 element … 1% of edges).
pub const SIZE_RUNGS: usize = 8;
/// Chain steps per family checked in addition to the last one.
const SAMPLED_CHECKS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker threads of `execute_indexed`.
const THREADS: usize = 2;
/// The family whose last step is also checked against the naive
/// semantics (`Transformation::output_facts`), which is quadratic in the
/// instance: the cheapest family at this scale.
const NAIVE_CHECK_FAMILY: Family = Family::Medical;

/// One family's inputs.
struct Input {
    scenario: Scenario,
    /// The primary instance.
    graph: Graph,
    /// The primary transformation.
    transform: Transformation,
    chain: Vec<GraphDelta>,
    /// Chain steps (indices) checked against a from-scratch execution.
    checked: BTreeSet<usize>,
}

/// The geometric size ladder for an instance with `edges` edges.
pub fn size_ladder(edges: usize) -> Vec<usize> {
    let max = (edges / 100).max(1) as f64;
    let mut rungs: Vec<usize> = (0..SIZE_RUNGS)
        .map(|i| max.powf(i as f64 / (SIZE_RUNGS - 1) as f64).round().max(1.0) as usize)
        .collect();
    rungs.dedup();
    rungs
}

/// The labels a graph uses, to draw delta contents from.
pub struct Alphabet {
    edge_labels: Vec<EdgeLabel>,
    node_labels: Vec<NodeLabel>,
}

impl Alphabet {
    /// The edge and node labels present in `g`.
    pub fn of(g: &Graph) -> Alphabet {
        let edge_labels = g.edges().map(|e| e.1).collect::<BTreeSet<_>>().into_iter().collect();
        let node_labels = g
            .nodes()
            .flat_map(|u| g.labels(u).iter().map(NodeLabel).collect::<Vec<_>>())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Alphabet { edge_labels, node_labels }
    }
}

/// One delta against `g` of `kind` (0 edge adds plus a fresh node, 1 edge
/// removals, 2 relabels, 3 node removals) touching about `size`
/// elements. Removed edges are drawn from `edges`, a pool of `g`'s edges
/// that may hold stale entries.
pub fn one_delta(
    g: &Graph,
    edges: &mut Vec<(NodeId, EdgeLabel, NodeId)>,
    abc: &Alphabet,
    rng: &mut Rng,
    kind: usize,
    size: usize,
) -> GraphDelta {
    let nodes = g.num_nodes();
    let node = |rng: &mut Rng| NodeId(rng.below(nodes) as u32);
    let mut d = GraphDelta::default();
    match kind {
        0 => {
            for _ in 0..size {
                let l = abc.edge_labels[rng.below(abc.edge_labels.len())];
                d.added_edges.push((node(rng), l, node(rng)));
            }
            let fresh = NodeId(nodes as u32);
            d.added_nodes
                .push(LabelSet::singleton(abc.node_labels[rng.below(abc.node_labels.len())].0));
            let l = abc.edge_labels[rng.below(abc.edge_labels.len())];
            d.added_edges.push((node(rng), l, fresh));
        }
        1 => {
            while d.removed_edges.len() < size && !edges.is_empty() {
                let e = edges.swap_remove(rng.below(edges.len()));
                if g.has_edge(e.0, e.1, e.2) && !d.removed_edges.contains(&e) {
                    d.removed_edges.push(e);
                }
            }
        }
        2 => {
            for _ in 0..size {
                let u = node(rng);
                let Some(old) = g.labels(u).iter().next() else { continue };
                let new = abc.node_labels[rng.below(abc.node_labels.len())];
                if new.0 != old {
                    d.removed_labels.push((u, NodeLabel(old)));
                    d.added_labels.push((u, new));
                }
            }
        }
        _ => {
            for _ in 0..(size / 8).max(1) {
                d.removed_nodes.push(node(rng));
            }
        }
    }
    d
}

/// A seeded chain of `n` deltas valid against `g` applied in order.
pub fn delta_chain(g: &Graph, rng: &mut Rng, n: usize) -> Vec<GraphDelta> {
    let mut shadow = g.clone();
    let mut edges: Vec<(NodeId, EdgeLabel, NodeId)> = shadow.edges().collect();
    let abc = Alphabet::of(g);
    let ladder = size_ladder(edges.len());
    let mut chain = Vec::with_capacity(n);
    for k in 0..n {
        let size = ladder[(k / 4) % ladder.len()];
        let d = one_delta(&shadow, &mut edges, &abc, rng, k % 4, size);
        d.apply_in_place(&mut shadow).expect("generated deltas reference existing nodes");
        edges.extend(d.added_edges.iter().copied());
        chain.push(d);
    }
    chain
}

fn inputs(seed: u64) -> Vec<Input> {
    Family::ALL
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let sc = scenario(family, &Params { seed, scale: SCALE });
            let graph = sc.instance(&sc.primary.instance).expect("primary instance").graph.clone();
            let transform = sc.transform(&sc.primary.transform).expect("primary transform").clone();
            let mut rng = Rng::new(seed, 0xE0 + i as u64);
            let chain = delta_chain(&graph, &mut rng, DELTAS_PER_FAMILY);
            let mut checked: BTreeSet<usize> =
                (0..SAMPLED_CHECKS).map(|_| rng.below(DELTAS_PER_FAMILY - 1)).collect();
            checked.insert(DELTAS_PER_FAMILY - 1);
            Input { scenario: sc, graph, transform, chain, checked }
        })
        .collect()
}

/// The built state of one family.
struct State {
    index: IndexedGraph,
    inc: Incremental,
}

/// Builds every index and incremental state; returns them with the wall
/// time and the `IndexedGraph::build` part of it.
fn set_up(inputs: &[Input]) -> (Vec<State>, f64, f64) {
    let t0 = Instant::now();
    let mut build_s = 0.0;
    let states = inputs
        .iter()
        .map(|inp| {
            let b0 = Instant::now();
            let index = IndexedGraph::build(&inp.graph);
            build_s += b0.elapsed().as_secs_f64();
            State { index, inc: Incremental::new(&inp.transform, &inp.graph) }
        })
        .collect();
    (states, t0.elapsed().as_secs_f64(), build_s)
}

fn phase(name: &str) -> gts_obs::HistogramSnapshot {
    gts_obs::global()
        .histogram(
            "gts_exec_phase_micros",
            "Executor phase latency (index build/patch, rule evaluation, assembly, delta)",
            &[("phase", name)],
        )
        .snapshot()
}

const PHASES: [&str; 5] = ["index_build", "rule_eval", "assembly", "index_patch", "delta_apply"];

/// Summed µs and count of every one of [`PHASES`] so far.
fn phases_now() -> [(u64, u64); 5] {
    PHASES.map(|name| {
        let s = phase(name);
        (s.sum, s.count)
    })
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    delta_ms: Vec<f64>,
    executions: u64,
    deltas: u64,
    failed: u64,
    affected: u64,
    fallbacks: u64,
    /// Summed µs and count per [`PHASES`] entry, recorded by the measured
    /// operations only (the checks and re-set-ups execute too).
    phases: [(u64, u64); 5],
}

/// One pass over every family. With a ledger, each operation runs inside
/// a span collector. Checks run with the clock stopped.
fn pass(
    inputs: &[Input],
    states: &mut [State],
    mut ledger: Option<&mut Ledger>,
    report: &mut Report,
) -> Pass {
    let mut p = Pass::default();
    let opts = ExecOptions { threads: THREADS, ..Default::default() };
    let mut run = |f: &mut dyn FnMut(), phases: &mut [(u64, u64); 5]| {
        let before = phases_now();
        let t0 = Instant::now();
        match ledger.as_deref_mut() {
            Some(l) => {
                let ((), tree) = gts_obs::trace("op", f);
                l.absorb(&Span::from_obs(&tree));
            }
            None => f(),
        }
        let s = t0.elapsed().as_secs_f64();
        for (acc, (b, a)) in phases.iter_mut().zip(before.iter().zip(phases_now())) {
            acc.0 += a.0 - b.0;
            acc.1 += a.1 - b.1;
        }
        s
    };
    for (inp, st) in inputs.iter().zip(states.iter()) {
        for (name, t) in &inp.scenario.transforms {
            let mut out = None;
            let mut exec = || out = Some(gts_exec::execute_indexed(&st.index, t, &opts));
            p.wall_s += run(&mut exec, &mut p.phases);
            p.executions += 1;
            check_execution(inp, name, &out.expect("executed"), report);
        }
    }
    for (inp, st) in inputs.iter().zip(states.iter_mut()) {
        for (k, delta) in inp.chain.iter().enumerate() {
            let mut outcome = None;
            let s = run(&mut || outcome = Some(st.inc.apply_delta(delta)), &mut p.phases);
            p.wall_s += s;
            p.delta_ms.push(s * 1e3);
            p.deltas += 1;
            match outcome.expect("applied") {
                Ok(o) => {
                    p.affected += o.affected_sources as u64;
                    p.fallbacks += u64::from(o.strategy == DeltaStrategy::FullRebuild);
                }
                Err(e) => {
                    p.failed += 1;
                    report
                        .check(false, || format!("{} delta #{k}: {e}", inp.scenario.family.name()));
                }
            }
            if inp.checked.contains(&k) {
                check_step(inp, st, k, report);
            }
        }
    }
    p
}

/// A type check the corpus annotates as holding must hold on the output.
fn check_execution(inp: &Input, name: &str, out: &Graph, report: &mut Report) {
    for exp in &inp.scenario.expectations {
        if let Expectation::TypeCheck { transform, source, target, holds: true, .. } = exp {
            if transform == name && *source == inp.scenario.primary.source {
                let schema = inp.scenario.schema(target).expect("annotated schema");
                report.check(schema.conforms(out).is_ok(), || {
                    format!("{}: {name} output breaks {target}", inp.scenario.family.name())
                });
            }
        }
    }
}

/// The incremental output equals a from-scratch execution on the current
/// graph, and, on the last step of [`NAIVE_CHECK_FAMILY`], the naive
/// semantics.
fn check_step(inp: &Input, st: &State, k: usize, report: &mut Report) {
    let fam = inp.scenario.family.name();
    let graph = st.inc.graph();
    let fresh = gts_exec::output_facts(
        &IndexedGraph::build(graph),
        &inp.transform,
        &ExecOptions::default(),
    );
    let facts = st.inc.output_facts();
    report.check(facts == fresh, || {
        format!("{fam} step {k}: incremental output differs from re-execution")
    });
    if k + 1 == inp.chain.len() && inp.scenario.family == NAIVE_CHECK_FAMILY {
        let naive = inp.transform.output_facts(graph);
        report.check(facts == naive, || {
            format!("{fam} step {k}: incremental output differs from naive")
        });
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let inputs = inputs(args.seed);
    let (mut walls, mut builds) = (Vec::new(), Vec::new());
    let mut states = Vec::new();
    for _ in 0..SETUPS {
        states.clear();
        let (s, wall, build) = set_up(&inputs);
        walls.push(wall);
        builds.push(build);
        states = s;
    }
    report.set("setup_s", stats::median(&walls));
    report.set("exec.index_build_s", stats::median(&builds));
    let index_bytes: usize = states.iter().map(|s| s.index.approx_bytes()).sum();
    report.set("exec.index_mb", index_bytes as f64 / (1u64 << 20) as f64);

    // Whole rounds until the measuring time is used up; a later round
    // replays the chains on freshly built (untimed) state.
    let started = Instant::now();
    let mut rounds: Vec<Pass> = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        if !rounds.is_empty() {
            states = set_up(&inputs).0;
        }
        rounds.push(pass(&inputs, &mut states, None, &mut report));
    }
    let n = rounds.len() as f64;
    let per_round = |i: usize| {
        rounds.iter().fold((0, 0), |acc, r| (acc.0 + r.phases[i].0, acc.1 + r.phases[i].1))
    };
    let (rule_eval, assembly, patch, apply) =
        (per_round(1), per_round(2), per_round(3), per_round(4));
    report.attempted = rounds.iter().map(|r| r.executions + r.deltas).sum();
    report.failed = rounds.iter().map(|r| r.failed).sum();
    report.set("pass_s", stats::median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()));
    let latencies: Vec<Vec<f64>> = rounds.iter().map(|r| r.delta_ms.clone()).collect();
    latency_metrics(&mut report, &latencies);
    let deltas: u64 = rounds.iter().map(|r| r.deltas).sum();
    report.set("exec.rule_eval_s", rule_eval.0 as f64 / 1e6 / n);
    report.set("exec.assembly_s", assembly.0 as f64 / 1e6 / n);
    report.set("exec.index_patch_ms", patch.0 as f64 / 1e3 / deltas as f64);
    report.set("exec.delta_apply_ms", apply.0 as f64 / 1e3 / apply.1.max(1) as f64);
    report.set("exec.affected_sources", rounds.iter().map(|r| r.affected).sum::<u64>() as f64 / n);
    report.set("exec.fallbacks", rounds.iter().map(|r| r.fallbacks).sum::<u64>() as f64 / n);

    if args.trace {
        let plain_s = report.metrics["pass_s"];
        states = set_up(&inputs).0;
        let mut ledger = Ledger::default();
        let traced = pass(&inputs, &mut states, Some(&mut ledger), &mut report);
        let exec = ["index_build", "rule_eval", "assembly", "index_patch", "delta_apply"];
        let known: Vec<&str> = exec.iter().chain(&["op"]).copied().collect();
        report.check(ledger.unmapped(&known).is_empty(), || {
            format!("spans with no layer: {:?}", ledger.unmapped(&known))
        });
        let breakdown = Breakdown {
            wall_s: traced.wall_s,
            layers: vec![("ledger.exec_s".into(), ledger.self_s(&exec))],
        };
        finish_ledger(&mut report, &breakdown, "exec-large", plain_s);
    }
    report.set("peak_rss_mb", stats::peak_rss_mib("self").unwrap_or(0.0));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph {
        let sc = scenario(Family::Social, &Params { seed: 5, scale: 2_000 });
        sc.instance(&sc.primary.instance).unwrap().graph.clone()
    }

    #[test]
    fn delta_chains_are_a_function_of_the_seed() {
        let g = small();
        let chain = |seed| delta_chain(&g, &mut Rng::new(seed, 3), 40);
        assert_eq!(chain(9), chain(9));
        assert_ne!(chain(9), chain(10));
    }

    #[test]
    fn delta_chains_apply_in_order_and_cycle_kinds_and_sizes() {
        let g = small();
        let chain = delta_chain(&g, &mut Rng::new(1, 0), 64);
        let mut cur = g.clone();
        for d in &chain {
            d.apply_in_place(&mut cur).unwrap();
        }
        let ladder = size_ladder(g.num_edges());
        assert_eq!(ladder.first(), Some(&1));
        assert!(*ladder.last().unwrap() <= (g.num_edges() / 100).max(1));
        // The same kind/size schedule for every seed.
        let other = delta_chain(&g, &mut Rng::new(2, 0), 64);
        for (k, (a, b)) in chain.iter().zip(&other).enumerate() {
            assert_eq!(a.added_nodes.len(), b.added_nodes.len(), "step {k}");
            assert_eq!(a.removed_edges.len(), b.removed_edges.len(), "step {k}");
            assert_eq!(a.removed_nodes.len(), b.removed_nodes.len(), "step {k}");
        }
        assert!(chain[1].removed_edges.len() == 1 && chain[3].removed_nodes.len() == 1);
    }
}
