//! voicebench — the MUVE stack's seeded voice-session benchmark.
//!
//! ```text
//! cargo run --release --manifest-path voicebench/Cargo.toml -- \
//!     --workload voice_scan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload (see [`workloads`]) from the given seed, prints
//! every metric by name with its unit, checks the program's outputs, and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes its spans to `.voicebench/`. Each run appends its
//! result, with seed, core count, commit and source hash, to
//! `.voicebench/results.jsonl`, and reports every metric's spread over the
//! runs recorded there for the same workload and source.
//!
//! Exits 1 when an output check fails, 2 when the run cannot be measured
//! (bad arguments, too few samples for a percentile).

mod inputs;
mod replay;
mod schedule;
mod stats;
mod tally;
mod workloads;

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::Workload;

/// End-to-end metrics, reported by `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("session_p50_ms", "ms"),
    ("session_p95_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("served_share", "fraction"),
    ("exact_share", "fraction"),
    ("disambiguation_ms", "ms"),
    ("true_shown_share", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Printed with the end-to-end metrics but left out of the result object:
/// both read zero on healthy or greedy runs. `served_share` is the bounded
/// form of `failed_share`; `core.plan_proven_share` the per-layer form of
/// `plan_proven_share`.
const PRINTED_ONLY: [(&str, &str); 2] = [
    ("failed_share", "fraction"),
    ("plan_proven_share", "fraction"),
];

/// Per-layer metrics, reported by `--trace 1` on every workload (zero
/// where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 39] = [
    ("dbms.execute_us_p50", "us"),
    ("dbms.execute_us_p95", "us"),
    ("dbms.rows_scanned_per_session", "rows"),
    ("dbms.mrows_per_s", "Mrows/s"),
    ("dbms.scans_per_session", "count"),
    ("dbms.rows_scanned_per_table_row", "ratio"),
    ("dbms.scan_p99_over_p50", "ratio"),
    ("solver.nodes_per_session", "count"),
    ("solver.nodes_per_ms", "1/ms"),
    ("solver.restarts_per_session", "count"),
    ("core.plan_us_p50", "us"),
    ("core.plan_us_p95", "us"),
    ("core.render_us", "us"),
    ("core.plan_proven_share", "fraction"),
    ("nlq.translate_us", "us"),
    ("nlq.candidates_us", "us"),
    ("phonetics.index_build_us", "us"),
    ("cache.candidates.hit_ratio", "fraction"),
    ("cache.results.hit_ratio", "fraction"),
    ("cache.plans.hit_ratio", "fraction"),
    ("cache.flight_waits_per_request", "1/request"),
    ("cache.evictions_per_request", "1/request"),
    ("cache.lookup_us", "us"),
    ("pipeline.self_us", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p95", "us"),
    ("serve.worker_busy_share", "fraction"),
    ("serve.max_rate_qps", "1/s"),
    ("serve.open_loop_p50_ms", "ms"),
    ("serve.open_loop_p95_ms", "ms"),
    ("serve.retries_per_request", "1/request"),
    ("serve.shed_per_request", "1/request"),
    ("shard.gather_us_p50", "us"),
    ("shard.gather_us_p95", "us"),
    ("shard.subqueries_per_session", "count"),
    ("shard.hedges_per_session", "1/session"),
    ("shard.failovers_per_session", "1/session"),
    ("shard.gather_over_single", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// Where runs leave their spans and results, relative to the working
/// directory.
const OUT_DIR: &str = ".voicebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: voicebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("voicebench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("voicebench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git_commit(Path::new("."));
    let source = source_hash(Path::new("."));
    println!(
        "voicebench workload={} seed={} seconds={} trace={} cores={cores} commit={commit} \
         source={source:016x}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    );
    let r = workloads::run(args.workload, args.seed, args.seconds, args.trace)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if let Some(t) = &r.tracer {
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", t.spans().len(), path.display());
        print_self_times(t);
    }
    for note in &r.notes {
        println!("{note}");
    }

    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in reported {
        let value = match r.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0, // layer not exercised by this workload
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((name, unit, value));
    }
    let history = record(args, cores, &commit, source, &r, &metrics)?;
    for &(name, unit, value) in &metrics {
        let spread = stats::spread(history.get(name).map_or(&[][..], Vec::as_slice));
        println!(
            "{name:34} {value:>14.4} {unit:9}{}",
            spread.map_or(String::new(), |s| format!(
                " spread {:.3} over {} runs",
                s,
                history[name].len()
            ))
        );
    }
    if !args.trace {
        for (name, unit) in PRINTED_ONLY {
            println!(
                "{name:34} {:>14.4} {unit}",
                r.metrics.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    println!(
        "requests: {} attempted, {} failed ({})",
        r.tally.attempted(),
        r.tally.failed(),
        r.tally.describe()
    );
    if let Some((p50, max)) = r.lateness {
        println!("open-loop generator lateness: p50 {p50:.3} ms, max {max:.3} ms");
    }
    let mut correct = true;
    for (name, res) in &r.checks {
        match res {
            Ok(()) => println!("check ok: {name}"),
            Err(e) => {
                correct = false;
                println!("check FAILED: {name}: {e}");
            }
        }
    }
    if r.tally.attempted() == 0 {
        return Err("no request completed in the measured time".into());
    }
    let metrics_json = Value::Object(
        metrics
            .iter()
            .map(|&(name, unit, value)| (name.to_owned(), json!({"value": value, "unit": unit})))
            .collect(),
    );
    let line = json!({
        "correct": correct,
        "attempted": r.tally.attempted(),
        "failed": r.tally.failed(),
        "metrics": metrics_json,
    });
    println!("{line}");
    Ok(correct)
}

/// Mean self time per span name, slowest first.
fn print_self_times(t: &replay::Tracer) {
    let selfs = t.self_times();
    let mut by_name: Vec<(&str, f64, usize)> = Vec::new();
    for (s, self_us) in t.spans().iter().zip(selfs) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += self_us;
                e.2 += 1;
            }
            None => by_name.push((s.name, self_us, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, total, n) in by_name {
        println!(
            "self time {name:24} {:>12.1} us total, {:>9.1} us mean over {n} calls",
            total,
            total / n as f64
        );
    }
}

/// Append this run to the results file and return, per reported metric,
/// its values over every recorded run of the same workload, trace mode and
/// source hash (this one included).
fn record(
    args: &Args,
    cores: usize,
    commit: &str,
    source: u64,
    r: &workloads::RunResult,
    metrics: &[(&str, &str, f64)],
) -> Result<std::collections::BTreeMap<String, Vec<f64>>, String> {
    use std::io::Write;
    let path = PathBuf::from(OUT_DIR).join("results.jsonl");
    let source = format!("{source:016x}");
    let line = json!({
        "workload": args.workload.name(),
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds.as_secs_f64(),
        "cores": cores,
        "commit": commit,
        "source": source.clone(),
        "lateness_ms_p50": r.lateness.map(|l| l.0),
        "lateness_ms_max": r.lateness.map(|l| l.1),
        "correct": r.checks.iter().all(|(_, c)| c.is_ok()),
        "metrics": Value::Object(
            metrics.iter().map(|&(n, _, v)| (n.to_owned(), json!(v))).collect()
        ),
    });
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut history: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for l in text.lines() {
        let Ok(v) = serde_json::from_str(l) else {
            continue;
        };
        let same = v["workload"] == args.workload.name()
            && v["trace"] == Value::Bool(args.trace)
            && v["source"] == source.as_str();
        if !same {
            continue;
        }
        if let Value::Object(ms) = &v["metrics"] {
            for (name, value) in ms {
                if let Some(x) = value.as_f64() {
                    history.entry(name.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(history)
}

/// The checked-out commit, read from `.git` without running git, or
/// `unknown` outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of every Rust source and manifest
/// under `crates/`, `src/` and `voicebench/`: identifies the measured code
/// where no commit id is at hand.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src", "voicebench"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            eat(&bytes);
        }
    }
    h
}
