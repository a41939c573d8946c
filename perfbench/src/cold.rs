//! `cold-corpus`: the cold oracle (gts-containment over gts-sat) on the
//! whole scenario corpus, then gts-store's write/read pair.
//!
//! Set-up generates every corpus family at the seed, renders it to
//! `.gts` text and compiles that text with gts-cli (`GtsFile::parse`),
//! the way `gts batch` reads its input. The pass then takes one unit per
//! (family, source schema): a fresh `AnalysisSession` with a fresh
//! oracle cache, bound to an empty store directory, answers the full
//! `gts batch` suite through `Batch` on one worker and is dropped.
//! After each unit's answers and before its teardown the session's state
//! is flushed (timed apart as `store.flush_s`, outside `pass_s`), so the
//! whole corpus's state is never resident at once. The restart then
//! hydrates a fresh session per unit from that store and answers the
//! suite again (`store.restart_s`).
//!
//! One worker, not two: on a two-core host the two-worker `Batch` was
//! slower on this suite (paired runs: 29.6, 30.8 and 34.7 s against
//! 24.8, 27.5 and 29.1 s) and made each analysis's latency depend on how
//! the workers interleaved on the shared memo.
//!
//! The traced run answers the same suite on the calling thread through
//! `Request::run` (gts-obs span collection is per thread), once without
//! and once with a span collector, and reports the difference as the
//! tracing overhead.

use crate::ledger::{finish_ledger, Breakdown, Ledger, Span};
use crate::{latency_metrics, stats, Args, Report, Scratch};
use gts_cli::GtsFile;
use gts_core::containment::OracleCacheStats;
use gts_corpus::{scenario, Expectation, Family, Params, Scenario};
use gts_engine::{AnalysisSession, Batch, Request, Verdict};
use std::time::Instant;

/// Timed set-up blocks per run; `setup_s` is the median over blocks of a
/// block's mean set-up time.
const SETUP_BLOCKS: usize = 5;
/// Set-ups per block. One set-up takes about 15 ms, too short to time
/// steadily on its own; a block takes about 0.4 s.
const SETUPS_PER_BLOCK: usize = 25;
/// Worker threads of the measured pass (see the module docs).
const WORKERS: usize = 1;

/// One family, compiled.
struct Compiled {
    scenario: Scenario,
    file: GtsFile,
}

/// One (family, source schema) session's worth of requests.
pub(crate) struct Unit {
    family: usize,
    pub(crate) source: String,
    /// Per item: its `gts batch` label and the request.
    pub(crate) items: Vec<(String, Request)>,
    /// Per item, what it asks, by name.
    pub(crate) specs: Vec<Spec>,
}

/// What a suite item asks, by transformation and schema names.
pub(crate) enum Spec {
    Check { transform: String, target: String },
    Elicit { transform: String },
    Equiv { left: String, right: String },
}

/// The analysis suite of `gts batch` for one compiled file: every
/// transformation type-checked against every schema and elicited, and
/// every pair of transformations checked for equivalence — per source
/// schema.
pub(crate) fn suite(family: usize, file: &GtsFile) -> Vec<Unit> {
    let mut units = Vec::new();
    for (source, _) in &file.schemas {
        let (mut items, mut specs) = (Vec::new(), Vec::new());
        for (t, tr) in &file.transforms {
            for (target, schema) in &file.schemas {
                items.push((
                    format!("check {t}: {source} -> {target}"),
                    Request::TypeCheck { transform: tr.clone(), target: schema.clone() },
                ));
                specs.push(Spec::Check { transform: t.clone(), target: target.clone() });
            }
            items.push((
                format!("elicit {t} from {source}"),
                Request::Elicit { transform: tr.clone() },
            ));
            specs.push(Spec::Elicit { transform: t.clone() });
        }
        for (i, (t1, tr1)) in file.transforms.iter().enumerate() {
            for (t2, tr2) in file.transforms.iter().skip(i + 1) {
                items.push((
                    format!("equiv {t1} ~ {t2} mod {source}"),
                    Request::Equivalence { left: tr1.clone(), right: tr2.clone() },
                ));
                specs.push(Spec::Equiv { left: t1.clone(), right: t2.clone() });
            }
        }
        units.push(Unit { family, source: source.clone(), items, specs });
    }
    units
}

struct Setup {
    families: Vec<Compiled>,
    units: Vec<Unit>,
}

/// Generates, renders and compiles the corpus. Returns the set-up, its
/// wall time and the compile part of it.
fn set_up(seed: u64) -> Result<(Setup, f64, f64), String> {
    let t0 = Instant::now();
    let mut compile_s = 0.0;
    let mut families = Vec::new();
    for family in Family::ALL {
        let sc = scenario(family, &Params { seed, ..Params::default() });
        let text = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        let c0 = Instant::now();
        let file = GtsFile::parse(&text).map_err(|e| format!("{}: {e}", family.name()))?;
        compile_s += c0.elapsed().as_secs_f64();
        families.push(Compiled { scenario: sc, file });
    }
    let units = families.iter().enumerate().flat_map(|(i, c)| suite(i, &c.file)).collect();
    Ok((Setup { families, units }, t0.elapsed().as_secs_f64(), compile_s))
}

/// Times one block of [`SETUPS_PER_BLOCK`] set-ups, records the block's
/// mean set-up and compile times, and returns the last set-up.
fn setup_block(
    seed: u64,
    walls: &mut Vec<f64>,
    compiles_ms: &mut Vec<f64>,
) -> Result<Setup, String> {
    let (mut wall, mut compile, mut last) = (0.0, 0.0, None);
    for _ in 0..SETUPS_PER_BLOCK {
        drop(last.take());
        let (s, w, c) = set_up(seed)?;
        wall += w;
        compile += c;
        last = Some(s);
    }
    walls.push(wall / SETUPS_PER_BLOCK as f64);
    compiles_ms.push(compile * 1e3 / SETUPS_PER_BLOCK as f64);
    Ok(last.expect("a block holds set-ups"))
}

/// A verdict reduced to what must agree between passes.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Decision { holds: bool, certified: bool },
    Elicited { schema: gts_core::schema::Schema, certified: bool },
    Error(String),
}

fn answer(v: &Result<Verdict, gts_core::AnalysisError>) -> Answer {
    match v {
        Ok(Verdict::Decision(d)) => Answer::Decision { holds: d.holds, certified: d.certified },
        Ok(Verdict::Elicited { schema, certified }) => {
            Answer::Elicited { schema: schema.clone(), certified: *certified }
        }
        Ok(other) => Answer::Error(format!("unexpected verdict {other:?}")),
        Err(e) => Answer::Error(format!("{e:?}")),
    }
}

/// One round: the cold pass, then the restart from its store.
struct Round {
    pass: Pass,
    restart_s: f64,
    hydrate_s: f64,
    hydrated: usize,
    store_bytes: u64,
    failed: u64,
}

/// What one measured pass produced.
#[derive(Default)]
struct Pass {
    /// Answering plus teardown, summed over units.
    wall_s: f64,
    teardown_s: f64,
    flush_s: f64,
    flush_records: usize,
    request_ms: Vec<f64>,
    /// Per unit, per request: the answer.
    answers: Vec<Vec<Answer>>,
    hits: u64,
    misses: u64,
    oracle: OracleCacheStats,
    types_interned: usize,
}

impl Pass {
    fn absorb_session(&mut self, session: &AnalysisSession) {
        let s = session.stats();
        self.hits += s.hits;
        self.misses += s.misses;
        let o = session.oracle_stats();
        self.types_interned += o.solver.types_interned;
        self.oracle.absorb(&o);
    }
}

/// A fresh session for `unit`, checked to start empty.
fn fresh_session(setup: &Setup, unit: &Unit, report: &mut Report) -> AnalysisSession {
    let file = &setup.families[unit.family].file;
    let schema = file.schema(&unit.source).expect("suite names file schemas").clone();
    let session = AnalysisSession::new(schema, file.vocab.clone());
    let (s, o) = (session.stats(), session.oracle_stats());
    report.check(s.entries == 0 && s.hits + s.misses == 0 && o.solver.entries == 0, || {
        format!("session for {} starts warm", unit.source)
    });
    session
}

/// The measured pass: per unit, answer on [`WORKERS`] workers, flush to
/// `store`, drop.
fn batch_pass(setup: &Setup, store: &Scratch, report: &mut Report) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for unit in &setup.units {
        let items: Vec<(String, Request)> = unit.items.clone();
        let mut session = fresh_session(setup, unit, report);
        let t0 = Instant::now();
        let hydrated = session.attach_disk(&store.0);
        let mut batch = Batch::new(session);
        for (label, request) in items {
            batch.push(label, request);
        }
        let (results, session) = batch.run(WORKERS);
        let answered = t0.elapsed().as_secs_f64();
        report.check(hydrated.total() == 0, || format!("{}: scratch store not empty", unit.source));
        pass.absorb_session(&session);
        let f0 = Instant::now();
        let flushed = session
            .flush_disk()
            .expect("the session is bound to the scratch store")
            .map_err(|e| format!("flush: {e}"))?;
        pass.flush_s += f0.elapsed().as_secs_f64();
        pass.flush_records += flushed.records;
        let d0 = Instant::now();
        drop(session);
        let teardown = d0.elapsed().as_secs_f64();
        pass.teardown_s += teardown;
        pass.wall_s += answered + teardown;
        pass.request_ms.extend(results.iter().map(|r| r.micros as f64 / 1e3));
        pass.answers.push(results.iter().map(|r| answer(&r.verdict)).collect());
    }
    Ok(pass)
}

/// Fresh sessions hydrate from `store` and answer the suite again.
/// Returns the wall time, the hydration time, records hydrated and the
/// answers.
fn restart(
    setup: &Setup,
    store: &Scratch,
    report: &mut Report,
) -> (f64, f64, usize, Vec<Vec<Answer>>) {
    let (mut wall, mut hydrate_s, mut records) = (0.0, 0.0, 0);
    let mut answers = Vec::new();
    for unit in &setup.units {
        let items: Vec<(String, Request)> = unit.items.clone();
        let mut session = fresh_session(setup, unit, report);
        let t0 = Instant::now();
        let hydrated = session.attach_disk(&store.0);
        let h = t0.elapsed().as_secs_f64();
        let mut batch = Batch::new(session);
        for (label, request) in items {
            batch.push(label, request);
        }
        let (results, session) = batch.run(WORKERS);
        drop(session);
        wall += t0.elapsed().as_secs_f64();
        hydrate_s += h;
        records += hydrated.total();
        report.check(hydrated.total() > 0 && !hydrated.degraded, || {
            format!("{}: restart hydrated {hydrated:?}", unit.source)
        });
        answers.push(results.iter().map(|r| answer(&r.verdict)).collect());
    }
    (wall, hydrate_s, records, answers)
}

/// One unit of the traced run's single-thread pass: every request
/// through `Request::run` on this thread, each inside a span collector
/// when a ledger is given. Returns the wall time and the teardown part.
fn inline_unit(
    setup: &Setup,
    unit: &Unit,
    ledger: Option<&mut Ledger>,
    report: &mut Report,
) -> (f64, f64) {
    let items: Vec<(String, Request)> = unit.items.clone();
    let mut session = fresh_session(setup, unit, report);
    let t0 = Instant::now();
    match ledger {
        Some(ledger) => {
            for (_, request) in items {
                let (_, tree) = gts_obs::trace("request", || request.run(&mut session));
                ledger.absorb(&Span::from_obs(&tree));
            }
        }
        None => {
            for (_, request) in items {
                let _ = request.run(&mut session);
            }
        }
    }
    let d0 = Instant::now();
    drop(session);
    let done = Instant::now();
    ((done - t0).as_secs_f64(), (done - d0).as_secs_f64())
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| it.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Checks the cold pass's answers against the corpus annotations and
/// against execution on the corpus instances of the unit's source schema.
fn check_answers(setup: &Setup, answers: &[Vec<Answer>], report: &mut Report) {
    for (unit, unit_answers) in setup.units.iter().zip(answers) {
        let c = &setup.families[unit.family];
        let (sc, file) = (&c.scenario, &c.file);
        let fam = sc.family.name();
        let t = |name: &str| file.transform(name).expect("suite names file transforms");
        let outputs = |name: &str| -> Vec<(String, gts_core::graph::Graph)> {
            sc.instances
                .iter()
                .filter(|i| i.schema == unit.source)
                .map(|i| (i.name.clone(), gts_exec::execute(t(name), &i.graph)))
                .collect()
        };
        for ((label, spec), got) in
            unit.items.iter().map(|i| &i.0).zip(&unit.specs).zip(unit_answers)
        {
            match (spec, got) {
                (_, Answer::Error(e)) => report.check(false, || format!("{fam} {label}: {e}")),
                (Spec::Check { transform, target }, &Answer::Decision { holds, certified }) => {
                    for exp in annotations(sc, &unit.source, spec) {
                        agree(report, fam, label, exp, holds, certified);
                    }
                    if holds && certified {
                        let schema = file.schema(target).expect("suite names file schemas");
                        for (inst, out) in outputs(transform) {
                            report.check(schema.conforms(&out).is_ok(), || {
                                format!("{fam} {label}: output on {inst} breaks the target")
                            });
                        }
                    }
                }
                (Spec::Elicit { transform }, Answer::Elicited { schema, certified: true }) => {
                    for (inst, out) in outputs(transform) {
                        report.check(schema.conforms(&out).is_ok(), || {
                            format!("{fam} {label}: elicited schema rejects the output on {inst}")
                        });
                    }
                }
                (Spec::Elicit { .. }, Answer::Elicited { certified: false, .. }) => {}
                (Spec::Equiv { left, right }, &Answer::Decision { holds, certified }) => {
                    for exp in annotations(sc, &unit.source, spec) {
                        agree(report, fam, label, exp, holds, certified);
                    }
                    if holds && certified {
                        for i in sc.instances.iter().filter(|i| i.schema == unit.source) {
                            let same =
                                t(left).output_facts(&i.graph) == t(right).output_facts(&i.graph);
                            report.check(same, || {
                                format!("{fam} {label}: outputs differ on {}", i.name)
                            });
                        }
                    }
                }
                (_, other) => report.check(false, || format!("{fam} {label}: answered {other:?}")),
            }
        }
    }
}

/// The corpus annotations about `spec` asked modulo schema `source`.
pub(crate) fn annotations<'a>(
    sc: &'a Scenario,
    source: &'a str,
    spec: &'a Spec,
) -> impl Iterator<Item = &'a Expectation> + 'a {
    sc.expectations.iter().filter(move |exp| match (spec, exp) {
        (
            Spec::Check { transform, target },
            Expectation::TypeCheck { transform: et, source: es, target: eg, .. },
        ) => et == transform && es == source && eg == target,
        (
            Spec::Equiv { left, right },
            Expectation::Equivalence { left: el, right: er, source: es, .. },
        ) => es == source && ((el, er) == (left, right) || (el, er) == (right, left)),
        _ => false,
    })
}

/// The rule of `gts corpus check`: a certified annotation pins the
/// certified semantic verdict; an uncertified one pins only the lack of
/// certification.
pub(crate) fn agree(
    report: &mut Report,
    fam: &str,
    label: &str,
    exp: &Expectation,
    holds: bool,
    certified: bool,
) {
    let ok = if exp.certified() { certified && holds == exp.holds() } else { !certified };
    report.check(ok, || {
        format!("{fam} {label}: got holds={holds} certified={certified}, annotation {exp:?}")
    });
}

fn probes() -> u64 {
    gts_obs::global()
        .histogram("gts_containment_probe_micros", "Latency of completion entailment probes", &[])
        .snapshot()
        .count
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let (mut setups, mut compiles) = (Vec::new(), Vec::new());
    let mut setup = setup_block(args.seed, &mut setups, &mut compiles)?;
    for _ in 1..SETUP_BLOCKS {
        setup = setup_block(args.seed, &mut setups, &mut compiles)?;
    }
    report.set("setup_s", stats::median(&setups));
    report.set("cli.compile_ms", stats::median(&compiles));

    // Whole rounds until the measuring time is used up: each round is
    // the cold pass, its flush and the restart.
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // Query and probe counters count the measured passes only, not the
    // restarts or the checks.
    let (mut nfa_hits, mut nfa_misses, mut probe_count) = (0, 0, 0);
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let store = Scratch::new("cold-store").map_err(|e| format!("scratch: {e}"))?;
        let (nfa0, probes0) = (gts_core::query::nfa_cache_stats(), probes());
        let pass = batch_pass(&setup, &store, &mut report)?;
        let (nfa1, probes1) = (gts_core::query::nfa_cache_stats(), probes());
        nfa_hits += nfa1.0 - nfa0.0;
        nfa_misses += nfa1.1 - nfa0.1;
        probe_count += probes1 - probes0;
        let store_bytes = dir_bytes(&store.0);
        let (restart_s, hydrate_s, hydrated, again) = restart(&setup, &store, &mut report);
        report.check(again == pass.answers, || "restart verdicts differ from the cold pass".into());
        check_answers(&setup, &pass.answers, &mut report);
        let errors = pass.answers.iter().chain(&again).flatten();
        let failed = errors.filter(|a| matches!(a, Answer::Error(_))).count() as u64;
        rounds.push(Round { pass, restart_s, hydrate_s, hydrated, store_bytes, failed });
    }

    let ops_per_round: usize = setup.units.iter().map(|u| 2 * u.items.len()).sum();
    report.attempted = (ops_per_round * rounds.len()) as u64;
    report.failed = rounds.iter().map(|r| r.failed).sum();
    let med = |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.set("pass_s", med(&|r| r.pass.wall_s));
    let latencies: Vec<Vec<f64>> = rounds.iter().map(|r| r.pass.request_ms.clone()).collect();
    latency_metrics(&mut report, &latencies);
    report.set("store.flush_s", med(&|r| r.pass.flush_s));
    report.set("store.restart_s", med(&|r| r.restart_s));
    report.set("store.hydrate_s", med(&|r| r.hydrate_s));
    report.set("store.hydrated_records", med(&|r| r.hydrated as f64));
    report.set("store.mb", med(&|r| r.store_bytes as f64 / (1u64 << 20) as f64));
    report.set("store.flush_records", med(&|r| r.pass.flush_records as f64));
    report.set("engine.teardown_s", med(&|r| r.pass.teardown_s));
    let last = &rounds.last().expect("one round").pass;
    report.set("engine.memo_hit_rate", ratio(last.hits, last.misses));
    let o = &last.oracle;
    report.set("sat.decides", o.solver.decides as f64);
    report.set("sat.solver_hit_rate", o.solver.cache_hit_rate());
    report.set("sat.realize_hit_rate", o.solver.realize_hit_rate());
    report.set("sat.types_interned", last.types_interned as f64);
    report.set("query.nfa_hit_rate", ratio(nfa_hits, nfa_misses));
    report.set("containment.probes", probe_count as f64 / rounds.len() as f64);

    if args.trace {
        traced(&setup, &mut report);
    }
    report.set("peak_rss_mb", stats::peak_rss_mib("self").unwrap_or(0.0));
    Ok(report)
}

/// The traced run's single-thread passes and the layer ledger.
fn traced(setup: &Setup, report: &mut Report) {
    // Each unit runs once plain and once traced, alternating which goes
    // first, so drift and warm-up fall on both sides alike.
    let mut ledger = Ledger::default();
    let (mut plain_s, mut wall_s, mut teardown_s) = (0.0, 0.0, 0.0);
    for (i, unit) in setup.units.iter().enumerate() {
        if i % 2 == 0 {
            plain_s += inline_unit(setup, unit, None, report).0;
        }
        let (wall, teardown) = inline_unit(setup, unit, Some(&mut ledger), report);
        wall_s += wall;
        teardown_s += teardown;
        if i % 2 == 1 {
            plain_s += inline_unit(setup, unit, None, report).0;
        }
    }
    let engine = ["type_check", "equivalence", "elicit"];
    let containment = ["containment", "completion", "entailment_probe"];
    let sat = ["oracle_decide", "saturate"];
    let known: Vec<&str> =
        engine.iter().chain(&containment).chain(&sat).chain(&["request"]).copied().collect();
    report.check(ledger.unmapped(&known).is_empty(), || {
        format!("spans with no layer: {:?}", ledger.unmapped(&known))
    });
    report.set("engine.type_check_s", ledger.total_s("type_check"));
    report.set("engine.equivalence_s", ledger.total_s("equivalence"));
    report.set("engine.elicit_s", ledger.total_s("elicit"));
    report.set("containment.self_s", ledger.self_s(&["containment"]));
    report.set("containment.completion_s", ledger.self_s(&["completion", "entailment_probe"]));
    report.set("sat.decide_s", ledger.self_s(&sat));
    report.set("sat.saturate_s", ledger.self_s(&["saturate"]));
    let breakdown = Breakdown {
        wall_s,
        layers: vec![
            ("ledger.engine_s".into(), ledger.self_s(&engine) + teardown_s),
            ("ledger.containment_s".into(), ledger.self_s(&containment)),
            ("ledger.sat_s".into(), ledger.self_s(&sat)),
        ],
    };
    finish_ledger(report, &breakdown, "cold-corpus", plain_s);
}
