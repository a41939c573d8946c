//! `perfbench steady`: runs one workload repeatedly, each run with its own
//! seed, and prints for every end-to-end metric its median, quartiles,
//! spread and largest deviation against the metric's bound in
//! `BENCHMARK.json`.
//!
//! ```text
//! perfbench steady --workload W [--runs 10] [--seed 1] [--seconds S]
//! ```
//!
//! Run from the directory holding `BENCHMARK.json` (the repository
//! root). The spread is the distance between the first and third
//! quartile (as Python's `statistics.quantiles(values, n=4)` gives them)
//! as a share of the median; a metric is steady when its spread stays
//! below a third of its bound.

use crate::stats;
use gts_engine::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn benchmark_json() -> Result<(Vec<Bound>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).ok_or("no run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    Ok((bounds, seconds))
}

/// Runs `perfbench steady`.
pub fn main(argv: &[String]) -> i32 {
    match steady(argv) {
        Ok(all_steady) => i32::from(!all_steady),
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            eprintln!("usage: perfbench steady --workload W [--runs N] [--seed N] [--seconds S]");
            2
        }
    }
}

fn steady(argv: &[String]) -> Result<bool, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("bad arguments {pair:?}")),
        }
    }
    let (bounds, default_seconds) = benchmark_json()?;
    let workload = *flags.get("workload").ok_or("missing --workload")?;
    let num = |name: &str, default: u64| -> Result<u64, String> {
        flags
            .get(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{name}: not a number")))
    };
    let runs = num("runs", 10)?;
    let seed = num("seed", 1)?;
    let seconds = num("seconds", default_seconds)?;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for i in 0..runs {
        let run_seed = (seed + i).to_string();
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &run_seed])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let doc =
            Json::parse(last).map_err(|e| format!("run {i} (seed {run_seed}): {e}: `{last}`"))?;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) || !out.status.success() {
            return Err(format!("run {i} (seed {run_seed}) failed its checks:\n{stdout}"));
        }
        let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        shares.push(failed / attempted.max(1.0));
        let metrics = doc.get("metrics").ok_or("result without metrics")?;
        let mut line = format!("run {i:>2} seed {run_seed:>4}:");
        for b in &bounds {
            let v = metrics.get(&b.name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            let v = v.ok_or_else(|| format!("run {i}: no metric {}", b.name))?;
            values.entry(b.name.clone()).or_default().push(v);
            line += &format!(" {}={v:.4}", b.name);
        }
        println!("{line}");
    }
    println!("\n{workload}: {runs} runs, seeds {seed}..{}, {seconds} s each", seed + runs - 1);
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "metric", "unit", "median", "q1", "q3", "spread", "maxdev", "bound"
    );
    let mut all_steady = true;
    for b in &bounds {
        let v = &values[&b.name];
        let med = stats::median(v);
        let [q1, _, q3] = stats::quartiles(v);
        let spread = (q3 - q1) / med;
        let maxdev = v.iter().map(|x| (x - med).abs() / med).fold(0.0, f64::max);
        let verdict = if spread < b.bound / 3.0 {
            "steady"
        } else if spread <= b.bound {
            all_steady = false;
            "within bound, not steady"
        } else {
            all_steady = false;
            "SPREAD EXCEEDS BOUND"
        };
        println!(
            "{:<12} {:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
            b.name,
            b.unit,
            100.0 * spread,
            100.0 * maxdev,
            100.0 * b.bound
        );
    }
    let same_share = shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "failed share: {:?} ({})",
        shares[0],
        if same_share { "identical in every run" } else { "VARIES" }
    );
    Ok(all_steady && same_share)
}
