//! `served-mix`: a spawned `gts serve` under a closed loop of pipelined
//! protocol-v2 frames — gts-net framing, protocol JSON, the compile
//! cache, registry checkout, the response memo and the session memo over
//! the wire, plus small-instance gts-exec.
//!
//! The server is this program re-executed as `perfbench serve-child`,
//! which runs the `gts serve` command of gts-cli with its default
//! settings on an ephemeral port and no store. Set-up spawns it and warms
//! it with every distinct analysis frame once, so the cold oracle runs
//! only in set-up. The pass sends [`FRAMES`] frames over two connections
//! (one per client thread), each keeping [`DEPTH`] frames in flight; a
//! frame's latency runs from its write to the read of its response.
//!
//! Frames are drawn from a pool of distinct frames: the kind of frame `i`
//! is `KINDS[i % 5]`, the round-robin of the repository's load generator
//! (`loadgen --delta-mix`), and the frame of that kind is drawn by Zipf
//! sampling over a fixed ranking. The pool is several times the server's
//! 128-entry response memo and 64-entry compile cache (distinct `.gts`
//! texts differ by a trailing comment line, distinct analyze frames also
//! by their request label), so both hits and misses occur. The Zipf
//! exponent, the pipeline depth and the variant counts are assumptions:
//! the repository holds no trace of real requests to take them from.

use crate::cold::{self, Spec};
use crate::ledger::{finish_ledger, Breakdown, Ledger, Span};
use crate::stats::{self, Rng, Zipf};
use crate::{latency_metrics, Args, Report};
use gts_cli::GtsFile;
use gts_corpus::{scenario, Family, Params, Scenario};
use gts_engine::{AnalysisSession, Json, Verdict};
use gts_serve::{proto, Client};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Frames in the measured pass.
pub const FRAMES: usize = 8_000;
/// Frames each connection keeps in flight. Two connections × 3 stays
/// within the default admission limits (2 running + 4 queued on a
/// two-core host), so no frame is refused.
pub const DEPTH: usize = 3;
/// Frame kinds in the order the pass cycles through them: the four
/// request kinds `loadgen` round-robins, plus the `delta` verb its
/// `--delta-mix` appends. Each is a fifth of the frames.
pub const KINDS: [&str; 5] = ["type_check", "equivalence", "elicit", "execute", "delta"];
const TYPE_CHECK: usize = 0;
const EQUIVALENCE: usize = 1;
const ELICIT: usize = 2;
/// Kinds below this one are analyses, answered by the oracle (warm-up).
const EXECUTE: usize = 3;
const DELTA: usize = 4;
/// Zipf exponent of the within-kind draw.
pub const ZIPF_S: f64 = 1.0;
/// Families analysis frames are drawn over.
pub const ANALYZE_FAMILIES: [Family; 3] = [Family::Medical, Family::Stress, Family::Hardness];
/// Label variants of each analyze request (each its own memo entry).
pub const ANALYZE_TAGS: usize = 8;
/// Text variants of each family's `.gts` (each its own compile entry),
/// assigned to the family's frames in turn: 6 × 24 = 144 texts against
/// the 64-entry compile cache.
pub const TEXT_VARIANTS: usize = 24;
/// Node scales of the execute frames' instances, per family.
pub const EXEC_SCALES: [usize; 4] = [1_000, 2_000, 3_500, 5_000];
/// Copies of each execute frame, each with its own text variant.
pub const EXEC_TAGS: usize = 3;
/// Node scale of the delta frames' base instances.
pub const DELTA_SCALE: usize = 1_000;
/// Distinct delta frames per family.
pub const DELTAS_PER_FAMILY: usize = 12;
/// Frames sent one at a time with `"trace": true` in the traced run.
pub const TRACED_SAMPLE: usize = 600;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `perfbench serve-child`: `gts serve` on an ephemeral port.
pub fn serve_child() -> i32 {
    let args: Vec<String> = ["serve", "--addr", "127.0.0.1:0"].map(String::from).to_vec();
    let out = gts_cli::run(&args, &|p: &str| Err(format!("no file access: {p}")));
    print!("{}", out.output);
    out.code
}

/// A spawned server, shut down (or killed) and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    /// Held open so the server's last line ("server drained") has a
    /// reader.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr, _stdout: stdout }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: `{}`", line.trim()))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn control(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut c) = self.control() {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What a frame's response must show.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    Decision {
        holds: bool,
        certified: bool,
    },
    Elicited {
        schema: String,
        certified: bool,
    },
    /// Output size of the naive semantics and its conformance.
    Output {
        nodes: u64,
        edges: u64,
        conforms: bool,
    },
}

/// One distinct frame of the pool.
struct Frame {
    kind: usize,
    /// Compact JSON, without an `id`.
    text: String,
    expect: Expect,
}

fn variant(text: &str, k: usize) -> String {
    format!("{text}# text variant {k}\n")
}

/// The in-process answers of one family's `gts batch` suite, one fresh
/// session per source schema, each checked against the corpus
/// annotations: per item its kind, source, label, wire spec and answer.
fn in_process(
    sc: &Scenario,
    file: &GtsFile,
    report: &mut Report,
) -> Vec<(usize, String, String, Json, Expect)> {
    let fam = sc.family.name();
    let mut out = Vec::new();
    for unit in cold::suite(0, file) {
        let schema = file.schema(&unit.source).expect("suite names file schemas").clone();
        let mut session = AnalysisSession::new(schema, file.vocab.clone());
        for ((label, request), spec) in unit.items.into_iter().zip(&unit.specs) {
            let (kind, wire) = match spec {
                Spec::Check { transform, target } => {
                    (TYPE_CHECK, proto::spec_type_check(transform, target))
                }
                Spec::Equiv { left, right } => (EQUIVALENCE, proto::spec_equivalence(left, right)),
                Spec::Elicit { transform } => (ELICIT, proto::spec_elicit(transform)),
            };
            let expect = match request.run(&mut session) {
                Ok(Verdict::Decision(d)) => {
                    for exp in cold::annotations(sc, &unit.source, spec) {
                        cold::agree(report, fam, &label, exp, d.holds, d.certified);
                    }
                    Expect::Decision { holds: d.holds, certified: d.certified }
                }
                Ok(Verdict::Elicited { schema, certified }) => Expect::Elicited {
                    schema: gts_cli::schema_block("Elicited", &schema, &file.vocab),
                    certified,
                },
                other => {
                    report.check(false, || format!("{fam} {label}: in-process {other:?}"));
                    continue;
                }
            };
            out.push((kind, unit.source.clone(), label, wire, expect));
        }
    }
    out
}

/// Renders a delta in the instance-delta text syntax over an instance
/// rendered by `gts_cli::raw_instance` (nodes `n0, n1, …`).
fn delta_text(
    d: &gts_core::graph::GraphDelta,
    base_nodes: usize,
    vocab: &gts_core::graph::Vocab,
) -> String {
    use gts_core::graph::NodeLabel;
    let name = |u: gts_core::graph::NodeId| {
        let i = u.0 as usize;
        if i < base_nodes {
            format!("n{i}")
        } else {
            format!("fresh{}", i - base_nodes)
        }
    };
    let mut out = String::new();
    for (i, labels) in d.added_nodes.iter().enumerate() {
        out += &format!("add node fresh{i}");
        for l in labels.iter() {
            out += &format!(" {}", vocab.node_name(NodeLabel(l)));
        }
        out += "\n";
    }
    for &u in &d.removed_nodes {
        out += &format!("del node {}\n", name(u));
    }
    for &(s, l, t) in &d.removed_edges {
        out += &format!("del edge {} {} {}\n", name(s), vocab.edge_name(l), name(t));
    }
    for &(s, l, t) in &d.added_edges {
        out += &format!("add edge {} {} {}\n", name(s), vocab.edge_name(l), name(t));
    }
    for &(u, l) in &d.removed_labels {
        out += &format!("del label {} {}\n", name(u), vocab.node_name(l));
    }
    for &(u, l) in &d.added_labels {
        out += &format!("add label {} {}\n", name(u), vocab.node_name(l));
    }
    out
}

fn naive_output(sc: &Scenario, g: &gts_core::graph::Graph) -> Expect {
    let t = sc.transform(&sc.primary.transform).expect("primary transform");
    let target = sc.schema(&sc.primary.target).expect("primary target");
    let out = t.apply(g);
    Expect::Output {
        nodes: out.num_nodes() as u64,
        edges: out.num_edges() as u64,
        conforms: target.conforms(&out).is_ok(),
    }
}

/// Round-robin merge: the first of every list, then the second, …
fn interleave<T>(lists: Vec<Vec<T>>) -> Vec<T> {
    let mut iters: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        out.extend(iters.iter_mut().filter_map(Iterator::next));
        if out.len() == before {
            return out;
        }
    }
}

/// The frame pool, grouped by kind ([`KINDS`]). The Zipf rank order
/// within a kind is fixed, interleaving families (and instance scales),
/// so that the cost of the frame at each rank does not depend on the
/// seed; the seed picks the instances, the deltas and the draws.
fn pool(seed: u64, report: &mut Report) -> [Vec<Frame>; 5] {
    let mut per_family: [Vec<Vec<Frame>>; 5] = Default::default();
    for family in Family::ALL {
        let mut groups: [Vec<Frame>; 5] = Default::default();
        let sc = scenario(family, &Params { seed, ..Params::default() });
        let text = gts_cli::render_file(&gts_cli::scenario_file(&sc));
        let mut texts = (0..).map(|k| variant(&text, k % TEXT_VARIANTS));
        let mut push = |kind: usize, f: Json, expect: Expect| {
            groups[kind].push(Frame { kind, text: f.compact(), expect });
        };
        if ANALYZE_FAMILIES.contains(&family) {
            let file = GtsFile::parse(&text).expect("corpus text compiles");
            let answers = in_process(&sc, &file, report);
            for tag in 0..ANALYZE_TAGS {
                for (kind, source, label, spec, expect) in &answers {
                    let mut spec = spec.clone();
                    spec.set("label", format!("{label} #{tag}"));
                    let text = texts.next().expect("endless");
                    let f = proto::analyze_frame(&text, Some(source.as_str()), vec![spec]);
                    push(*kind, f, expect.clone());
                }
            }
        }
        let p = &sc.primary;
        let instances: Vec<_> = EXEC_SCALES
            .iter()
            .enumerate()
            .map(|(i, &scale)| {
                let inst = scenario(
                    family,
                    &Params { seed: seed.wrapping_mul(31).wrapping_add(i as u64), scale },
                );
                let g = &inst.instance(&inst.primary.instance).expect("primary instance").graph;
                let spec = proto::spec_execute(
                    &p.transform,
                    &gts_cli::raw_instance(g, &sc.vocab),
                    Some(&p.target),
                );
                (spec, naive_output(&sc, g))
            })
            .collect();
        for _ in 0..EXEC_TAGS {
            for (spec, expect) in &instances {
                let text = texts.next().expect("endless");
                let f = proto::analyze_frame(&text, Some(&p.source), vec![spec.clone()]);
                push(EXECUTE, f, expect.clone());
            }
        }
        let base_sc = scenario(family, &Params { seed: seed.wrapping_add(7), scale: DELTA_SCALE });
        let base = &base_sc.instance(&base_sc.primary.instance).expect("primary instance").graph;
        let base_text = gts_cli::raw_instance(base, &sc.vocab);
        let abc = crate::exec_large::Alphabet::of(base);
        let ladder = crate::exec_large::size_ladder(base.num_edges());
        let mut rng = Rng::new(seed, 0xD0 + family as u64);
        for k in 0..DELTAS_PER_FAMILY {
            let mut edges: Vec<_> = base.edges().collect();
            let size = ladder[(k / 4) % ladder.len()];
            let d = crate::exec_large::one_delta(base, &mut edges, &abc, &mut rng, k % 4, size);
            let patched = d.apply_to(base).expect("generated deltas reference existing nodes");
            let mut f = proto::delta_frame(
                &texts.next().expect("endless"),
                &p.transform,
                &base_text,
                &delta_text(&d, base.num_nodes(), &sc.vocab),
                Some(&p.target),
            );
            f.set("source", p.source.as_str());
            push(DELTA, f, naive_output(&sc, &patched));
        }
        for (all, mine) in per_family.iter_mut().zip(groups) {
            all.push(mine);
        }
    }
    per_family.map(interleave)
}

/// The frame schedule: `n` (kind, rank) draws, frame `i` of kind
/// `i % 5`.
pub fn schedule(seed: u64, stream: u64, sizes: [usize; 5], n: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, stream);
    let zipfs = sizes.map(|s| Zipf::new(s, ZIPF_S));
    (0..n)
        .map(|i| {
            let kind = i % KINDS.len();
            (kind, zipfs[kind].sample(&mut rng))
        })
        .collect()
}

/// Checks one response against its frame's expectation.
fn check_response(resp: &Json, frame: &Frame) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response {}", resp.compact()));
    }
    let entry = match frame.kind {
        DELTA => resp.get("result"),
        _ => resp.get("results").and_then(Json::as_arr).and_then(|r| r.first()),
    }
    .ok_or("no result entry")?;
    let got = match &frame.expect {
        Expect::Decision { .. } => Expect::Decision {
            holds: entry.get("holds").and_then(Json::as_bool).ok_or("no holds")?,
            certified: entry.get("certified").and_then(Json::as_bool).ok_or("no certified")?,
        },
        Expect::Elicited { .. } => Expect::Elicited {
            schema: entry.get("schema").and_then(Json::as_str).ok_or("no schema")?.to_owned(),
            certified: entry.get("certified").and_then(Json::as_bool).ok_or("no certified")?,
        },
        Expect::Output { .. } => Expect::Output {
            nodes: entry.get("output_nodes").and_then(Json::as_u64).ok_or("no output_nodes")?,
            edges: entry.get("output_edges").and_then(Json::as_u64).ok_or("no output_edges")?,
            conforms: entry.get("conforms").and_then(Json::as_bool).ok_or("no conforms")?,
        },
    };
    if got == frame.expect {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {:?}", frame.expect))
    }
}

/// One frame's outcome on the client.
struct Sample {
    latency_ms: f64,
    /// The server's span tree of the frame (traced frames only).
    tree: Option<Span>,
    error: Option<String>,
}

/// Drives one connection in a closed loop: `depth` frames in flight,
/// each response checked and matched to its frame by `id`.
fn drive(addr: &str, frames: &[&Frame], depth: usize, trace: bool) -> Result<Vec<Sample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut out: Vec<Option<Sample>> = (0..frames.len()).map(|_| None).collect();
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let (mut next, mut done) = (0usize, 0usize);
    let mut line = String::new();
    while done < frames.len() {
        while sent_at.len() < depth && next < frames.len() {
            let body = &frames[next].text[1..];
            let head = if trace { "{\"trace\":true," } else { "{" };
            let msg = format!("{head}\"id\":{next},{body}\n");
            sent_at.insert(next as u64, Instant::now());
            writer.write_all(msg.as_bytes()).map_err(|e| format!("write: {e}"))?;
            next += 1;
        }
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| format!("read: {e}"))?;
        let at = Instant::now();
        if n == 0 {
            return Err("connection closed by the server".into());
        }
        let resp = Json::parse(line.trim()).map_err(|e| format!("unparseable response: {e}"))?;
        let id = resp.get("id").and_then(Json::as_u64).ok_or("response without an id")?;
        let t0 = sent_at
            .remove(&id)
            .ok_or_else(|| format!("response for unknown or repeated id {id}"))?;
        let i = id as usize;
        let tree = resp.get("trace").and_then(Span::from_json);
        out[i] = Some(Sample {
            latency_ms: (at - t0).as_secs_f64() * 1e3,
            tree,
            error: check_response(&resp, frames[i]).err(),
        });
        done += 1;
    }
    Ok(out.into_iter().map(|s| s.expect("every frame answered")).collect())
}

/// Runs `frames` over two connections (this thread and one more),
/// alternating frames between them. Returns the samples in frame order
/// and the wall time.
fn two_connections(addr: &str, frames: &[&Frame]) -> Result<(Vec<Sample>, f64), String> {
    let a: Vec<&Frame> = frames.iter().step_by(2).copied().collect();
    let b: Vec<&Frame> = frames.iter().skip(1).step_by(2).copied().collect();
    let t0 = Instant::now();
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(|| drive(addr, &b, DEPTH, false));
        let ra = drive(addr, &a, DEPTH, false);
        (ra, hb.join().expect("client thread panicked"))
    });
    let wall = t0.elapsed().as_secs_f64();
    let (ra, rb) = (ra?, rb?);
    let mut merged = Vec::with_capacity(frames.len());
    let (mut ia, mut ib) = (ra.into_iter(), rb.into_iter());
    for i in 0..frames.len() {
        merged.push(if i % 2 == 0 { ia.next() } else { ib.next() }.expect("one sample per frame"));
    }
    Ok((merged, wall))
}

/// The samples of prometheus-text series `name{…}` whose labels contain
/// one of `filter` (e.g. `verb="delta"`): `(label set, le bound, value)`.
fn series<'a>(text: &'a str, name: &str, filter: &[&str]) -> Vec<(&'a str, f64, f64)> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some(rest) = line.strip_prefix(name) else { continue };
        let Some((labels, value)) = rest.split_once(' ') else { continue };
        if !(labels.is_empty() || labels.starts_with('{'))
            || !filter.iter().any(|f| labels.contains(f))
        {
            continue;
        }
        let le = match labels.split("le=\"").nth(1).and_then(|r| r.split('"').next()) {
            Some("+Inf") => f64::INFINITY,
            Some(b) => b.parse().unwrap_or(f64::INFINITY),
            None => f64::NAN,
        };
        let series_key = labels.split(",le=").next().unwrap_or(labels);
        out.push((series_key, le, value.trim().parse().unwrap_or(0.0)));
    }
    out
}

fn scalar(text: &str, name: &str, filter: &[&str]) -> f64 {
    series(text, name, filter).iter().map(|s| s.2).sum()
}

/// Quantile `q`, in ms, of the frames recorded between two scrapes of
/// `gts_serve_frame_micros`, over every label set matching `filter`: the
/// upper bound of the first bucket whose merged cumulative count reaches
/// the rank (the histogram's own ≤12.5% resolution).
fn bucket_quantile(before: &str, after: &str, filter: &[&str], q: f64) -> f64 {
    let name = "gts_serve_frame_micros_bucket";
    let (b, a) = (series(before, name, filter), series(after, name, filter));
    // A series' cumulative count at `le`: its row with the largest bound
    // not above `le` (buckets with no observations are not rendered).
    let cum_at = |rows: &[(&str, f64, f64)], key: &str, le: f64| {
        rows.iter().filter(|r| r.0 == key && r.1 <= le).map(|r| r.2).fold(0.0, f64::max)
    };
    let mut keys: Vec<&str> = a.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut bounds: Vec<f64> = a.iter().map(|r| r.1).filter(|le| le.is_finite()).collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let merged =
        |le: f64| -> f64 { keys.iter().map(|k| cum_at(&a, k, le) - cum_at(&b, k, le)).sum() };
    let count = merged(f64::INFINITY);
    let rank = (q * count).ceil().max(1.0);
    bounds.into_iter().find(|&le| merged(le) >= rank).unwrap_or(f64::NAN) / 1e3
}

fn scrape(server: &Server) -> Result<(String, Json), String> {
    let mut c = server.control()?;
    let m = c.metrics(None).map_err(|e| format!("metrics: {e}"))?;
    let text = m.get("body").and_then(Json::as_str).ok_or("metrics without a body")?.to_owned();
    let s = c.stats().map_err(|e| format!("stats: {e}"))?;
    Ok((text, s))
}

fn threads_of(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:").and_then(|v| v.trim().parse().ok()))
        })
        .unwrap_or(0.0)
}

fn stat(s: &Json, path: &[&str]) -> f64 {
    let mut cur = s;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let groups = pool(args.seed, &mut report);
    let sizes = groups.each_ref().map(Vec::len);
    let warmup: Vec<&Frame> = groups[..EXECUTE].iter().flatten().collect();

    let (mut setups, mut warmups) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::spawn()?;
        let w0 = Instant::now();
        let (samples, _) = two_connections(&s.addr, &warmup)?;
        warmups.push(w0.elapsed().as_secs_f64());
        setups.push(t0.elapsed().as_secs_f64());
        for (f, smp) in warmup.iter().zip(&samples) {
            if let Some(e) = &smp.error {
                report.check(false, || {
                    format!("warm-up frame {}: {e}", &f.text[..80.min(f.text.len())])
                });
            }
        }
        server = Some(s);
    }
    let server = server.expect("one set-up");
    report.set("setup_s", stats::median(&setups));
    report.set("serve.warmup_s", stats::median(&warmups));

    let (m0, s0) = scrape(&server)?;
    let mut rounds: Vec<(Vec<Sample>, f64)> = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let plan = schedule(args.seed, 0x5E + round, sizes, FRAMES);
        let frames: Vec<&Frame> = plan.iter().map(|&(k, r)| &groups[k][r]).collect();
        rounds.push(two_connections(&server.addr, &frames)?);
        round += 1;
    }
    let (m1, s1) = scrape(&server)?;
    report.set("serve.threads", threads_of(&server.pid()));

    report.attempted = rounds.iter().map(|r| r.0.len() as u64).sum();
    report.failed = rounds.iter().flat_map(|r| &r.0).filter(|s| s.error.is_some()).count() as u64;
    for e in rounds.iter().flat_map(|r| &r.0).filter_map(|s| s.error.as_ref()).take(5) {
        report.check(false, || format!("pass frame: {e}"));
    }
    report.set("pass_s", stats::median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>()));
    let latencies: Vec<Vec<f64>> =
        rounds.iter().map(|r| r.0.iter().map(|s| s.latency_ms).collect()).collect();
    latency_metrics(&mut report, &latencies);

    let verbs = ["verb=\"analyze\"", "verb=\"delta\""];
    report.set("serve.frame_p50_ms", bucket_quantile(&m0, &m1, &verbs, 0.50));
    report.set("serve.frame_p99_ms", bucket_quantile(&m0, &m1, &verbs, 0.99));
    let diff = |name: &str, filter: &[&str]| scalar(&m1, name, filter) - scalar(&m0, name, filter);
    let analyze_frames = diff("gts_serve_frames_total", &["verb=\"analyze\""]);
    let memo = stat(&s1, &["server", "memo_served"]) - stat(&s0, &["server", "memo_served"]);
    report.set("serve.memo_served_share", memo / analyze_frames.max(1.0));
    let hits = stat(&s1, &["registry", "hits"]) - stat(&s0, &["registry", "hits"]);
    let misses = stat(&s1, &["registry", "misses"]) - stat(&s0, &["registry", "misses"]);
    report.set("serve.pool_hit_rate", hits / (hits + misses).max(1.0));
    let delta_filter = ["verb=\"delta\""];
    let delta_count = diff("gts_serve_frame_micros_count", &delta_filter);
    report.set(
        "serve.delta_frame_ms",
        diff("gts_serve_frame_micros_sum", &delta_filter) / 1e3 / delta_count.max(1.0),
    );
    if args.trace {
        traced(args.seed, &server, &groups, sizes, &mut report)?;
    }
    report.set("peak_rss_mb", stats::peak_rss_mib(&server.pid()).unwrap_or(0.0));
    drop(server);
    Ok(report)
}

/// The traced run's sample: the same seeded frames sent one at a time on
/// one connection, first plain, then with `"trace": true`.
fn traced(
    seed: u64,
    server: &Server,
    groups: &[Vec<Frame>; 5],
    sizes: [usize; 5],
    report: &mut Report,
) -> Result<(), String> {
    let plan = schedule(seed, 0x7ACE, sizes, TRACED_SAMPLE);
    let frames: Vec<&Frame> = plan.iter().map(|&(k, r)| &groups[k][r]).collect();
    let t0 = Instant::now();
    drive(&server.addr, &frames, 1, false)?;
    let plain_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let samples = drive(&server.addr, &frames, 1, true)?;
    let wall_s = t1.elapsed().as_secs_f64();
    report.set("serve.traced_frames", frames.len() as f64);

    let mut ledger = Ledger::default();
    let (mut net_s, mut wire) = (0.0, Vec::new());
    let mut exec_frames = Vec::new();
    for (f, s) in frames.iter().zip(&samples) {
        if let Some(e) = &s.error {
            report.check(false, || format!("traced frame: {e}"));
        }
        let Some(tree) = &s.tree else {
            report.check(false, || "traced frame without a span tree".into());
            continue;
        };
        ledger.absorb(tree);
        let server_ms = tree.micros as f64 / 1e3;
        let w = s.latency_ms - server_ms;
        net_s += w / 1e3;
        wire.push(w);
        if f.kind == EXECUTE {
            exec_frames.push(server_ms);
        }
    }
    let serve = ["frame", "parse", "session_checkout"];
    let engine = ["type_check", "equivalence", "elicit", "execute", "execute_delta"];
    let containment = ["containment", "completion", "entailment_probe"];
    let sat = ["oracle_decide", "saturate"];
    let exec = ["index_build", "rule_eval", "assembly", "index_patch", "delta_apply"];
    let known: Vec<&str> =
        [&serve[..], &engine[..], &containment[..], &sat[..], &exec[..]].concat();
    report.check(ledger.unmapped(&known).is_empty(), || {
        format!("spans with no layer: {:?}", ledger.unmapped(&known))
    });
    let n = frames.len().max(1) as f64;
    report.set("serve.parse_ms", ledger.total_s("parse") * 1e3 / n);
    report.set("serve.checkout_ms", ledger.total_s("session_checkout") * 1e3 / n);
    if !exec_frames.is_empty() {
        report.set("serve.execute_frame_ms", stats::median(&exec_frames));
    }
    if !wire.is_empty() {
        report.set("net.wire_p50_ms", stats::percentile(&wire, 50.0));
    }
    let breakdown = Breakdown {
        wall_s,
        layers: vec![
            ("ledger.serve_s".into(), ledger.self_s(&serve)),
            ("ledger.net_s".into(), net_s),
            ("ledger.engine_s".into(), ledger.self_s(&engine)),
            ("ledger.containment_s".into(), ledger.self_s(&containment)),
            ("ledger.sat_s".into(), ledger.self_s(&sat)),
            ("ledger.exec_s".into(), ledger.self_s(&exec)),
        ],
    };
    finish_ledger(report, &breakdown, "served-mix", plain_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed_with_fixed_shares() {
        let sizes = [200, 60, 80, 72, 72];
        let a = schedule(3, 1, sizes, 20_000);
        assert_eq!(a, schedule(3, 1, sizes, 20_000));
        assert_ne!(a, schedule(4, 1, sizes, 20_000));
        // The kinds take turns, so every prefix of five holds each once.
        assert!(a.iter().enumerate().all(|(i, &(k, _))| k == i % KINDS.len()));
        assert!(a.iter().all(|&(k, r)| r < sizes[k]));
        // Zipf(1): the top rank is drawn most, about 1/H(n) of the time.
        let top = a.iter().filter(|&&(k, r)| k == EXECUTE && r == 0).count() as f64 / 4_000.0;
        let h: f64 = (1..=72).map(|i| 1.0 / i as f64).sum();
        assert!((top - 1.0 / h).abs() < 0.03, "top-rank share {top}");
    }

    #[test]
    fn prometheus_buckets_merge_across_verbs() {
        let before = "gts_serve_frame_micros_bucket{verb=\"analyze\",le=\"100\"} 1\n\
                      gts_serve_frame_micros_count{verb=\"analyze\"} 1\n";
        let after = "# HELP x\n\
                     gts_serve_frame_micros_bucket{verb=\"analyze\",le=\"100\"} 5\n\
                     gts_serve_frame_micros_bucket{verb=\"analyze\",le=\"1000\"} 9\n\
                     gts_serve_frame_micros_bucket{verb=\"analyze\",le=\"+Inf\"} 9\n\
                     gts_serve_frame_micros_count{verb=\"analyze\"} 9\n\
                     gts_serve_frame_micros_count{verb=\"ping\"} 4\n";
        let f = ["verb=\"analyze\""];
        assert_eq!(scalar(after, "gts_serve_frame_micros_count", &f), 9.0);
        // 8 new frames: 4 at ≤100µs, 4 more at ≤1000µs.
        assert_eq!(bucket_quantile(before, after, &f, 0.5), 0.1);
        assert_eq!(bucket_quantile(before, after, &f, 0.99), 1.0);
    }

    #[test]
    fn delta_text_round_trips_through_the_cli_parser() {
        let sc = scenario(Family::Retail, &Params { seed: 2, scale: 200 });
        let g = &sc.instance(&sc.primary.instance).unwrap().graph;
        let abc = crate::exec_large::Alphabet::of(g);
        let mut rng = Rng::new(1, 1);
        for kind in 0..4 {
            let mut edges: Vec<_> = g.edges().collect();
            let d = crate::exec_large::one_delta(g, &mut edges, &abc, &mut rng, kind, 3);
            let mut vocab = sc.vocab.clone();
            let mut named =
                gts_cli::parse_instance(&gts_cli::raw_instance(g, &sc.vocab), &mut vocab).unwrap();
            let parsed = gts_cli::parse_delta(
                &delta_text(&d, g.num_nodes(), &sc.vocab),
                &mut vocab,
                &mut named,
            )
            .unwrap();
            assert_eq!(parsed.apply_to(g).unwrap().num_edges(), d.apply_to(g).unwrap().num_edges());
            assert_eq!(parsed.added_nodes, d.added_nodes);
            assert_eq!(parsed.removed_nodes, d.removed_nodes);
        }
    }
}
