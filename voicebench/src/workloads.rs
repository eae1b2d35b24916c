//! The four workloads and what each run measures and checks.
//!
//! | workload        | rows      | planner               | loop                            |
//! |-----------------|-----------|-----------------------|---------------------------------|
//! | `voice_scan`    | 2,000,000 | greedy, 10 candidates | closed, one client              |
//! | `voice_plan`    | 20,000    | ILP, 2 candidates     | closed, one client              |
//! | `served_zipf`   | 200,000   | greedy, θ = 250 ms    | open 150/s, one direct client   |
//! | `voice_sharded` | 2,000,000 | as `voice_scan`, 2×2  | closed, one client              |
//!
//! `voicebench/METRICS.md` lists every metric and what it should move.
//!
//! An untraced run (`--trace 0`) times requests through the real
//! `Session` (or `Server`) and reports the end-to-end metrics. A traced
//! run (`--trace 1`) re-runs each request untraced, then replays it
//! through the crates' public functions under spans, checks that the
//! replay reproduced the outcome, and reports the per-layer metrics.

use crate::inputs::{self, stream_seed, Utterance, Zipf};
use crate::replay::{self, ms, Backend, Replayed, Tracer};
use crate::schedule::Schedule;
use crate::stats::{self, block_rate, mean, median, nearest_rank, quantile};
use crate::tally::{Disposition, Tally};
use muve_cache::CacheStats;
use muve_core::{IlpConfig, Planner};
use muve_dbms::{
    execute_reference, fidelity_key, plan_merged, query_fingerprint, ExecOptions, Query, ResultKey,
    Table,
};
use muve_nlq::{translate, CandidateKey};
use muve_pipeline::{Session, SessionCaches, SessionConfig, SessionOutcome, Visualization};
use muve_serve::{Request, ServeOutcome, Server, ServerConfig};
use muve_shard::{ShardSet, ShardSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit on p95 for `serve.max_rate_qps`.
pub const LIMIT_MS: f64 = 100.0;
/// Failed share allowed while measuring `serve.max_rate_qps`.
pub const LIMIT_FAILED: f64 = 0.01;
/// Offered rate at which `served_zipf` reports its latency (requests/s).
pub const REFERENCE_RATE: f64 = 150.0;
/// Worker threads of the `served_zipf` server.
const WORKERS: usize = 2;
/// Requests kept outstanding while measuring `serve.max_rate_qps`: one in
/// service and one queued behind it per worker, so no worker waits on the
/// client's next submit and the backlog stays bounded. The rate is flat in
/// the window from 2 × workers up (see `voicebench/METRICS.md`).
const WINDOW: usize = 2 * WORKERS;
/// Untimed warm-up requests before `served_zipf` measures. About a sixth
/// of the reference requests still miss the caches afterwards, so p95 sits
/// well inside the miss latencies: after 1,000 warm-up requests only a
/// ninth missed, p95 sat near the misses' median, and its spread over ten
/// seeds was 0.42 against 0.13 after 300.
const WARMUP_REQUESTS: usize = 300;
/// Shared cache bundle of `served_zipf`.
const CACHE_BYTES: usize = 64 << 20;
/// Distinct transcripts behind the `served_zipf` Zipf draw.
const ZIPF_POOL: usize = 2_000;
/// Sessions whose shown values are checked against `execute_reference`.
const REFERENCE_CHECKS: usize = 4;
/// Sessions re-run unsharded, or served answers checked, per run.
const CROSS_CHECKS: usize = 12;
/// Time blocks a rate is the median over.
const RATE_BLOCKS: usize = 10;
/// Closed loops keep the outcome of every `KEEP_EVERY`-th session (from a
/// seeded offset, at most [`CROSS_CHECKS`] of them) for the output checks,
/// so the benchmark's own memory does not grow with the program's speed.
const KEEP_EVERY: usize = 7;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scan-bound: execute is nearly the whole session.
    VoiceScan,
    /// Plan-bound: the ILP proves optimality on a small table.
    VoicePlan,
    /// Cache- and queue-bound: open-loop Zipf traffic through the server.
    ServedZipf,
    /// Shard-bound: `voice_scan` through a 2-shard × 2-replica set.
    VoiceSharded,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::VoiceScan,
        Workload::VoicePlan,
        Workload::ServedZipf,
        Workload::VoiceSharded,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VoiceScan => "voice_scan",
            Workload::VoicePlan => "voice_plan",
            Workload::ServedZipf => "served_zipf",
            Workload::VoiceSharded => "voice_sharded",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn rows(self) -> usize {
        match self {
            Workload::VoiceScan | Workload::VoiceSharded => 2_000_000,
            Workload::VoicePlan => 20_000,
            Workload::ServedZipf => 200_000,
        }
    }

    /// Sessions a closed loop judges quality on: the first this many, a
    /// fixed number, so a faster program is judged on the same questions.
    /// The loop runs past `--seconds` until it has them (and at least the
    /// 200 that p95 needs), for at most three times `--seconds`.
    fn quality_sessions(self) -> usize {
        match self {
            Workload::VoiceScan => 600,
            Workload::VoicePlan => 3_000,
            Workload::VoiceSharded | Workload::ServedZipf => 300,
        }
    }

    /// Distinct utterances generated for the run: enough that a closed
    /// loop rarely cycles, so the run's query mix is a large sample.
    fn pool(self) -> usize {
        match self {
            Workload::VoiceScan | Workload::VoiceSharded => 1_500,
            Workload::VoicePlan => 6_000,
            Workload::ServedZipf => ZIPF_POOL,
        }
    }

    fn config(self) -> SessionConfig {
        let greedy = SessionConfig {
            planner: Planner::Greedy,
            ..SessionConfig::default()
        };
        match self {
            Workload::VoiceScan | Workload::VoiceSharded => greedy,
            Workload::VoicePlan => SessionConfig {
                planner: Planner::Ilp(IlpConfig {
                    warm_start: true,
                    ..IlpConfig::default()
                }),
                // At 3 candidates time-to-proof is bimodal (about half the
                // sessions prove within ~50 ms, the rest take 100-330 ms),
                // so the median jumps between modes from seed to seed; at
                // 2 every session proves within a single mode.
                max_candidates: 2,
                ..SessionConfig::default()
            },
            Workload::ServedZipf => SessionConfig {
                deadline: Duration::from_millis(250),
                ..greedy
            },
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every request of the timed region, by disposition.
    pub tally: Tally,
    /// Output checks: name → outcome.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Open-loop generator lateness, `(p50 ms, max ms)`, if any.
    pub lateness: Option<(f64, f64)>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    fn check(&mut self, name: impl Into<String>, r: Result<(), String>) {
        self.checks.push((name.into(), r));
    }
}

/// Everything a session needs, built during set-up.
struct Ctx {
    workload: Workload,
    seed: u64,
    table: Arc<Table>,
    shards: Option<Arc<ShardSet>>,
    cfg: SessionConfig,
}

impl Ctx {
    fn session(&self) -> Session<'_> {
        let s = Session::new(&self.table, self.cfg.clone());
        match &self.shards {
            Some(set) => s.with_shards(Arc::clone(set)),
            None => s,
        }
    }

    fn backend(&self) -> Backend<'_> {
        Backend {
            table: &self.table,
            shards: self.shards.as_deref(),
        }
    }
}

/// Build at least three times and for at least 1.5 s in total (at most
/// 25 times), keeping the last build; `setup_s` is the median. Earlier
/// builds are dropped before the next starts, so memory holds one.
fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    loop {
        last.take();
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
        let total: f64 = times.iter().sum();
        if times.len() >= 25 || (times.len() >= 3 && total >= 1.5) {
            return (last.expect("built at least once"), times);
        }
    }
}

/// Run one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Result<RunResult, String> {
    match workload {
        Workload::ServedZipf => served(seed, seconds, trace),
        _ => closed(workload, seed, seconds, trace),
    }
}

// ---------------------------------------------------------------------------
// Per-session quality

/// What the user saw in one completed session.
#[derive(Debug, Clone, Copy)]
struct Seen {
    exact: bool,
    disambiguation_ms: f64,
    true_shown: bool,
    proven: bool,
}

fn seen(cfg: &SessionConfig, table: &Table, truth_fp: u64, out: &SessionOutcome) -> Seen {
    let proven = out
        .stage_trace
        .span("plan")
        .is_some_and(|s| s.detail.starts_with("ILP planned (optimal)"));
    match &out.visualization {
        Visualization::Multiplot {
            multiplot,
            approximate,
            ..
        } => Seen {
            exact: !approximate,
            disambiguation_ms: cfg.model.expected_cost(multiplot, &out.candidates),
            true_shown: multiplot
                .candidates_shown()
                .iter()
                .any(|&i| query_fingerprint(&out.candidates[i].query, Some(table)) == truth_fp),
            proven,
        },
        // Text leaves the user to ask again: the cost of a miss.
        Visualization::Text { .. } => Seen {
            exact: false,
            disambiguation_ms: cfg.model.miss_ms,
            true_shown: false,
            proven,
        },
    }
}

/// Shown values and multiplot of a completed session, for comparisons.
fn shown(out: &SessionOutcome) -> Option<(&muve_core::Multiplot, &[Option<f64>], bool)> {
    match &out.visualization {
        Visualization::Multiplot {
            multiplot,
            results,
            approximate,
            ..
        } => Some((multiplot, results, *approximate)),
        Visualization::Text { .. } => None,
    }
}

/// The quality metrics over completed sessions.
fn quality(r: &mut RunResult, seen: &[Seen]) {
    let n = seen.len().max(1) as f64;
    let share = |f: &dyn Fn(&Seen) -> bool| seen.iter().filter(|s| f(s)).count() as f64 / n;
    r.set("exact_share", share(&|s| s.exact));
    r.set("true_shown_share", share(&|s| s.true_shown));
    r.set("plan_proven_share", share(&|s| s.proven));
    r.set(
        "disambiguation_ms",
        mean(&seen.iter().map(|s| s.disambiguation_ms).collect::<Vec<_>>()),
    );
}

/// p50 and p95 of latencies in ms, refusing too few samples.
fn latency(r: &mut RunResult, lat_ms: &[f64], label: &str) -> Result<(), String> {
    let p50 = quantile(lat_ms, 0.5).map_err(|e| format!("{label} session_p50_ms: {e}"))?;
    let p95 = quantile(lat_ms, 0.95).map_err(|e| format!("{label} session_p95_ms: {e}"))?;
    r.set("session_p50_ms", p50);
    r.set("session_p95_ms", p95);
    if let Some(q) = stats::highest_supported(lat_ms.len()) {
        r.notes.push(format!(
            "{label}: {} samples; highest supported percentile p{} = {:.3} ms",
            lat_ms.len(),
            q * 100.0,
            quantile(lat_ms, q)?
        ));
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Closed loop: voice_scan, voice_plan, voice_sharded

fn closed(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let rows = workload.rows();
    let sharded = workload == Workload::VoiceSharded;
    let ((table, shards), setup) = repeated_setup(|| {
        let table = Arc::new(inputs::table(rows));
        let shards =
            sharded.then(|| Arc::new(ShardSet::build(Arc::clone(&table), ShardSpec::new(2, 2))));
        (table, shards)
    });
    r.set("setup_s", median(&setup));
    r.notes.push(format!(
        "setup: median {:.4} s over {} builds",
        median(&setup),
        setup.len()
    ));
    let pool = inputs::utterances(&table, workload.pool(), seed);
    let ctx = Ctx {
        workload,
        seed,
        table,
        shards,
        cfg: workload.config(),
    };
    // Untimed warm-up: fault in the table and the lazily built state.
    for u in pool.iter().rev().take(2) {
        ctx.session().run(&u.transcript);
    }
    if trace {
        traced_pairs(&ctx, &pool, seconds, &mut r)?;
    } else {
        let run = closed_loop(&ctx, &pool, seconds);
        latency(&mut r, &run.latency_ms, workload.name())?;
        r.tally = run.tally;
        let judged = workload.quality_sessions().min(run.seen.len());
        if judged < workload.quality_sessions() {
            r.notes
                .push(format!("quality judged on only {judged} sessions"));
        }
        quality(&mut r, &run.seen[..judged]);
        let rate = block_rate(&run.done_s, run.wall.as_secs_f64(), RATE_BLOCKS);
        r.set("sessions_per_s", rate);
        closed_checks(&ctx, &pool, &run.kept, &mut r);
    }
    r.set("served_share", 1.0 - r.tally.failed_share());
    r.set("failed_share", r.tally.failed_share());
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}

/// What a closed loop measured.
struct ClosedRun {
    latency_ms: Vec<f64>,
    /// When each session finished, in seconds since the loop started.
    done_s: Vec<f64>,
    seen: Vec<Seen>,
    tally: Tally,
    /// `(utterance, outcome)` of the sessions kept for the output checks.
    kept: Vec<(usize, SessionOutcome)>,
    wall: Duration,
}

fn closed_loop(ctx: &Ctx, pool: &[Utterance], span: Duration) -> ClosedRun {
    let keep_at = stream_seed(ctx.seed, 5) as usize % KEEP_EVERY;
    let mut run = ClosedRun {
        latency_ms: Vec::new(),
        done_s: Vec::new(),
        seen: Vec::new(),
        tally: Tally::default(),
        kept: Vec::new(),
        wall: Duration::ZERO,
    };
    let start = Instant::now();
    let mut i = 0usize;
    let wanted = ctx.workload.quality_sessions().max(220);
    while start.elapsed() < span || (run.latency_ms.len() < wanted && start.elapsed() < 3 * span) {
        let utt = i % pool.len();
        let t0 = Instant::now();
        let outcome = ctx.session().run(&pool[utt].transcript);
        run.latency_ms.push(ms(t0.elapsed()));
        run.done_s.push(start.elapsed().as_secs_f64());
        run.tally.add(Disposition::of_session(&outcome));
        run.seen
            .push(seen(&ctx.cfg, &ctx.table, pool[utt].truth_fp, &outcome));
        if i % KEEP_EVERY == keep_at && run.kept.len() < CROSS_CHECKS {
            run.kept.push((utt, outcome));
        }
        i += 1;
    }
    run.wall = start.elapsed();
    run
}

/// A seeded choice of up to `n` indexes into `items` that satisfy `keep`.
fn seeded_subset<T>(items: &[T], n: usize, seed: u64, keep: impl Fn(&T) -> bool) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..items.len()).filter(|&i| keep(&items[i])).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.truncate(n);
    idx.sort_unstable();
    idx
}

fn closed_checks(
    ctx: &Ctx,
    pool: &[Utterance],
    kept: &[(usize, SessionOutcome)],
    r: &mut RunResult,
) {
    let exact: Vec<&(usize, SessionOutcome)> = kept
        .iter()
        .filter(|(_, o)| shown(o).is_some_and(|(_, _, approx)| !approx))
        .collect();
    match ctx.workload {
        Workload::VoiceSharded => {
            // Sharded values equal voice_scan's (unsharded) bit for bit.
            let unsharded = Ctx {
                workload: Workload::VoiceScan,
                seed: ctx.seed,
                table: Arc::clone(&ctx.table),
                shards: None,
                cfg: Workload::VoiceScan.config(),
            };
            let res = exact.iter().try_for_each(|(utt, out)| {
                let single = unsharded.session().run(&pool[*utt].transcript);
                same_outcome(out, &single)
                    .map_err(|e| format!("transcript {:?}: {e}", pool[*utt].transcript))
            });
            r.check(
                format!("sharded equals unsharded ({} sessions)", exact.len()),
                res,
            );
        }
        _ => {
            let picks = &exact[..exact.len().min(REFERENCE_CHECKS)];
            let res = picks
                .iter()
                .try_for_each(|(_, out)| against_reference(&ctx.table, out));
            r.check(
                format!(
                    "exact values equal execute_reference ({} sessions)",
                    picks.len()
                ),
                res,
            );
        }
    }
}

/// Every shown value of an exact session equals the row-at-a-time
/// reference executor's answer for that candidate.
fn against_reference(table: &Table, out: &SessionOutcome) -> Result<(), String> {
    let (multiplot, results, _) = shown(out).ok_or("session ended as text")?;
    for i in multiplot.candidates_shown() {
        let q: &Query = &out.candidates[i].query;
        let want = execute_reference(table, q, None, ExecOptions::default())
            .map_err(|e| format!("reference {}: {e}", q.to_sql()))?
            .scalar();
        if !replay::same_values(&[want], &[results[i]]) {
            return Err(format!(
                "{}: session {:?}, reference {want:?}",
                q.to_sql(),
                results[i]
            ));
        }
    }
    Ok(())
}

/// Two completed sessions show the same multiplot and the same values.
fn same_outcome(a: &SessionOutcome, b: &SessionOutcome) -> Result<(), String> {
    let (ma, va, xa) = shown(a).ok_or("first session ended as text")?;
    let (mb, vb, xb) = shown(b).ok_or("second session ended as text")?;
    if ma != mb {
        return Err("multiplots differ".into());
    }
    if xa != xb {
        return Err("fidelity differs".into());
    }
    if !replay::same_values(va, vb) {
        return Err(format!("values differ: {va:?} vs {vb:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run: untraced session, then its replay under spans

#[derive(Default)]
struct Layers {
    untraced_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    rows_per_session: Vec<f64>,
    scans_per_session: Vec<f64>,
    nodes: Vec<f64>,
    restarts: Vec<f64>,
    replay_nodes: f64,
    proven: Vec<f64>,
    pipeline_self_us: Vec<f64>,
    gather_over_single: Vec<f64>,
    subqueries: u64,
    hedges: u64,
    failovers: u64,
    mismatches: Vec<String>,
    replayed: usize,
    /// Timed result-cache lookups and how many of them hit.
    result_lookups: (usize, usize),
}

/// Wall time of a session minus the time its stage spans cover.
fn pipeline_self_us(out: &SessionOutcome) -> f64 {
    let stages: Duration = out.stage_trace.spans.iter().map(|s| s.spent).sum();
    out.elapsed.saturating_sub(stages).as_secs_f64() * 1e6
}

fn traced_pairs(
    ctx: &Ctx,
    pool: &[Utterance],
    span: Duration,
    r: &mut RunResult,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let mut l = Layers::default();
    pairs(ctx, pool, span, None, &mut t, &mut l, r);
    layers(ctx, &t, &l, r)?;
    r.tracer = Some(t);
    Ok(())
}

/// For `span`: run a session untraced, then replay it under spans and
/// check the replay against it. With `caches`, also time the lookups the
/// served session would make against that warm bundle.
fn pairs(
    ctx: &Ctx,
    pool: &[Utterance],
    span: Duration,
    caches: Option<&SessionCaches>,
    t: &mut Tracer,
    l: &mut Layers,
    r: &mut RunResult,
) {
    let rows = muve_obs::metrics().counter("dbms.rows_scanned");
    let start = Instant::now();
    let mut i = 0usize;
    let order: Vec<usize> = match caches {
        // The served pool is replayed in Zipf order, as it was served.
        Some(_) => {
            let mut z = Zipf::new(pool.len(), 1.0, stream_seed(ctx.seed, 4));
            (0..pool.len()).map(|_| z.draw()).collect()
        }
        None => (0..pool.len()).collect(),
    };
    while start.elapsed() < span {
        let u = &pool[order[i % order.len()]];
        let req = i as u64;
        i += 1;
        let shard_before = ctx.shards.as_ref().map(|s| s.stats().snapshot());
        let rows_before = rows.get();
        let t0 = Instant::now();
        let out = ctx.session().run(&u.transcript);
        l.untraced_ms.push(ms(t0.elapsed()));
        let untraced_rows = rows.get() - rows_before;
        if let (Some(set), Some(b)) = (&ctx.shards, shard_before) {
            let a = set.stats().snapshot();
            l.subqueries += a.dispatched - b.dispatched;
            l.hedges += a.hedges_fired - b.hedges_fired;
            l.failovers += a.failovers - b.failovers;
        }
        let d = Disposition::of_session(&out);
        r.tally.add(d);
        l.pipeline_self_us.push(pipeline_self_us(&out));
        if let Some(p) = out.stage_trace.span("plan") {
            l.nodes.push(p.counter("nodes").unwrap_or(0.0));
            l.restarts.push(p.counter("restarts").unwrap_or(0.0));
        }
        if d != Disposition::Ok {
            continue; // only clean sessions have a replayable path
        }
        t.begin_request(req);
        let spans_before = t.spans().len();
        let rows_before = rows.get();
        let replayed = replay::replay(t, &ctx.backend(), &ctx.cfg, &u.transcript);
        let replay_rows = rows.get() - rows_before;
        let session_span = &t.spans()[spans_before];
        l.replay_ms.push(session_span.dur_us() / 1e3);
        l.replayed += 1;
        let verdict = replayed.as_ref().map_err(Clone::clone).and_then(|rep| {
            replay::matches(&out, rep)?;
            // The replay's scans move the global counter exactly as the
            // session's did. Sharded runs are checked on the gathers' scan
            // statistics only: a hedge's losing copy finishes, and counts
            // its rows, after the gather has returned.
            if ctx.shards.is_none() && replay_rows != untraced_rows {
                return Err(format!(
                    "dbms.rows_scanned delta: session {untraced_rows}, replay {replay_rows}"
                ));
            }
            l.rows_per_session.push(rep.rows_scanned as f64);
            l.proven.push(f64::from(u8::from(rep.proven)));
            l.replay_nodes += rep.nodes as f64;
            l.gather_over_single.extend(replay::gather_over_single(
                t,
                &ctx.table,
                &ctx.cfg,
                &rep.gathers,
            )?);
            Ok(())
        });
        let scans = t.spans()[spans_before..]
            .iter()
            .filter(|s| s.name == "dbms.execute" || s.name == "shard.gather")
            .count();
        l.scans_per_session.push(scans as f64);
        if let Err(e) = verdict {
            l.mismatches.push(format!("{:?}: {e}", u.transcript));
        }
        if let (Some(caches), Ok(rep)) = (caches, &replayed) {
            let (n, hits) = time_cache_lookups(ctx, caches, t, &u.transcript, rep);
            l.result_lookups.0 += n;
            l.result_lookups.1 += hits;
        }
    }
    let res = if l.mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} replays differ; first: {}",
            l.mismatches.len(),
            l.replayed,
            l.mismatches[0]
        ))
    };
    r.check(
        format!(
            "traced replay reproduces the untraced session ({} replays)",
            l.replayed
        ),
        res,
    );
}

/// Time the public cache lookups a served session makes for `transcript`
/// against the warm shared bundle: its candidate distribution, then, as
/// `Session` keys them, each merge group of the candidates its multiplot
/// shows at every fidelity the session walked. Returns the result lookups
/// made and how many hit.
fn time_cache_lookups(
    ctx: &Ctx,
    caches: &SessionCaches,
    t: &mut Tracer,
    transcript: &str,
    rep: &Replayed,
) -> (usize, usize) {
    if let Ok(base) = translate(transcript.trim(), &ctx.table) {
        let key = CandidateKey {
            fingerprint: query_fingerprint(&base, Some(&ctx.table)),
            k: ctx.cfg.k,
            max_candidates: ctx.cfg.max_candidates,
        };
        t.span("cache.lookup", "candidates", |_| {
            caches.candidates().get(&key)
        });
    }
    let (mut lookups, mut hits) = (0, 0);
    for g in plan_merged(&rep.shown_queries) {
        let fingerprint = query_fingerprint(&g.merged, Some(&ctx.table));
        for &fraction in &rep.fidelities {
            let key = ResultKey {
                fingerprint,
                fidelity: fidelity_key(fraction, ctx.cfg.seed),
            };
            let hit = t.span("cache.lookup", "results", |_| caches.results().get(&key));
            lookups += 1;
            hits += usize::from(hit.is_some());
        }
    }
    (lookups, hits)
}

/// Durations (µs) of spans named `name`, optionally with `detail`.
fn durations(t: &Tracer, name: &str, detail: Option<&str>) -> Vec<f64> {
    t.spans()
        .iter()
        .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
        .map(|s| s.dur_us())
        .collect()
}

fn layers(ctx: &Ctx, t: &Tracer, l: &Layers, r: &mut RunResult) -> Result<(), String> {
    let p = |v: &[f64], q: f64| nearest_rank(v, q);
    let mut exec = durations(t, "dbms.execute", None);
    exec.extend(durations(t, "shard.gather", None));
    let mut exact = durations(t, "dbms.execute", Some("exact"));
    exact.extend(durations(t, "shard.gather", Some("exact")));
    let busy_s: f64 = exec.iter().sum::<f64>() / 1e6;
    let rows_total: f64 = l.rows_per_session.iter().sum();
    r.set("dbms.execute_us_p50", p(&exec, 0.5));
    r.set("dbms.execute_us_p95", p(&exec, 0.95));
    r.set("dbms.rows_scanned_per_session", mean(&l.rows_per_session));
    r.set(
        "dbms.mrows_per_s",
        if busy_s > 0.0 {
            rows_total / busy_s / 1e6
        } else {
            0.0
        },
    );
    r.set("dbms.scans_per_session", mean(&l.scans_per_session));
    r.set(
        "dbms.rows_scanned_per_table_row",
        mean(&l.rows_per_session) / ctx.table.num_rows() as f64,
    );
    let tail_q = stats::highest_supported(exact.len()).unwrap_or(0.5);
    r.set(
        "dbms.scan_p99_over_p50",
        if exact.is_empty() {
            0.0
        } else {
            p(&exact, tail_q) / p(&exact, 0.5)
        },
    );
    r.notes.push(format!(
        "dbms.scan_p99_over_p50 uses p{} over {} exact scans",
        tail_q * 100.0,
        exact.len()
    ));

    let plan = durations(t, "core.plan", None);
    let plan_ms: f64 = plan.iter().sum::<f64>() / 1e3;
    r.set("solver.nodes_per_session", mean(&l.nodes));
    r.set(
        "solver.nodes_per_ms",
        if plan_ms > 0.0 {
            l.replay_nodes / plan_ms
        } else {
            0.0
        },
    );
    r.set("solver.restarts_per_session", mean(&l.restarts));
    r.set("core.plan_us_p50", p(&plan, 0.5));
    r.set("core.plan_us_p95", p(&plan, 0.95));
    r.set("core.render_us", p(&durations(t, "core.render", None), 0.5));
    r.set("core.plan_proven_share", mean(&l.proven));
    r.set(
        "nlq.translate_us",
        p(&durations(t, "nlq.translate", None), 0.5),
    );
    r.set(
        "nlq.candidates_us",
        p(&durations(t, "nlq.candidates", None), 0.5),
    );
    r.set(
        "phonetics.index_build_us",
        p(&durations(t, "phonetics.index_build", None), 0.5),
    );
    r.set(
        "cache.lookup_us",
        p(&durations(t, "cache.lookup", None), 0.5),
    );
    r.set("pipeline.self_us", p(&l.pipeline_self_us, 0.5));
    let sessions = l.untraced_ms.len().max(1) as f64;
    r.set(
        "shard.gather_us_p50",
        p(&durations(t, "shard.gather", None), 0.5),
    );
    r.set(
        "shard.gather_us_p95",
        p(&durations(t, "shard.gather", None), 0.95),
    );
    r.set(
        "shard.subqueries_per_session",
        l.subqueries as f64 / sessions,
    );
    r.set("shard.hedges_per_session", l.hedges as f64 / sessions);
    r.set("shard.failovers_per_session", l.failovers as f64 / sessions);
    r.set("shard.gather_over_single", p(&l.gather_over_single, 0.5));
    let untraced =
        quantile(&l.untraced_ms, 0.5).map_err(|e| format!("untraced session_p50_ms: {e}"))?;
    let traced = quantile(&l.replay_ms, 0.5).map_err(|e| format!("traced session_p50_ms: {e}"))?;
    r.set("obs.trace_overhead", traced / untraced);
    r.notes.push(format!(
        "trace: {} untraced sessions (p50 {untraced:.3} ms), {} replays (p50 {traced:.3} ms)",
        l.untraced_ms.len(),
        l.replayed
    ));
    if l.result_lookups.0 > 0 {
        r.notes.push(format!(
            "cache.lookup: {} of {} timed result lookups hit",
            l.result_lookups.1, l.result_lookups.0
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Open loop through the server: served_zipf

struct Served {
    utt: usize,
    /// Latency from the due time; `None` when the request never completed.
    latency: Option<Duration>,
    /// When the benchmark saw the answer, in seconds since the step began.
    done_s: f64,
    queue_wait: Duration,
    service: Duration,
    disposition: Disposition,
    /// Kept for the reference step only; later outcomes are folded into
    /// the [`ValueBook`] and dropped.
    outcome: Option<Box<SessionOutcome>>,
}

/// Every value an exact served answer showed, by candidate fingerprint.
/// Hits and the misses that filled them meet here: a cache hit must show
/// the value its filling miss produced, so no candidate shows two values.
#[derive(Default)]
struct ValueBook {
    values: BTreeMap<u64, Option<u64>>,
    repeats: usize,
    conflict: Option<String>,
}

impl ValueBook {
    fn observe(&mut self, table: &Table, out: &SessionOutcome) {
        let Some((multiplot, results, false)) = shown(out) else {
            return;
        };
        for i in multiplot.candidates_shown() {
            let q = &out.candidates[i].query;
            let bits = results[i].map(f64::to_bits);
            match self.values.entry(query_fingerprint(q, Some(table))) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(bits);
                }
                std::collections::btree_map::Entry::Occupied(e) => {
                    self.repeats += 1;
                    if *e.get() != bits && self.conflict.is_none() {
                        self.conflict = Some(format!(
                            "{}: {:?} and {:?}",
                            q.to_sql(),
                            e.get().map(f64::from_bits),
                            results[i]
                        ));
                    }
                }
            }
        }
    }
}

/// One step of `served_zipf` traffic: results, the generator's lateness
/// per open-loop request, queue depth after each submit, and wall time.
struct Step {
    served: Vec<Served>,
    lateness_ms: Vec<f64>,
    depth: Vec<usize>,
    wall: Duration,
}

impl Step {
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.served {
            t.add(s.disposition);
        }
        t
    }

    /// Successful completions per second, as the median over
    /// [`RATE_BLOCKS`] time blocks of the step.
    fn ok_rate(&self) -> f64 {
        let ok_at: Vec<f64> = self
            .served
            .iter()
            .filter(|s| s.disposition == Disposition::Ok)
            .map(|s| s.done_s)
            .collect();
        block_rate(&ok_at, self.wall.as_secs_f64(), RATE_BLOCKS)
    }

    /// Latencies in ms; requests that failed count as missing any limit.
    fn latencies_failed_as_infinite(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| match (s.disposition, s.latency) {
                (Disposition::Ok, Some(l)) => ms(l),
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Mean queue depth over the last quarter minus over the first quarter.
    fn depth_growth(&self) -> f64 {
        let q = (self.depth.len() / 4).max(1);
        let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        avg(&self.depth[self.depth.len().saturating_sub(q)..])
            - avg(&self.depth[..q.min(self.depth.len())])
    }

    /// One report line: requests, dispositions, latency, backlog, verdict.
    fn describe(&self, label: &str, verdict: &Result<(), String>) -> String {
        let lat = self.latencies_failed_as_infinite();
        format!(
            "{label}: {} sent, {}, p50 {:.3} ms, p95 {:.3} ms, queue growth {:.1}: {}",
            self.served.len(),
            self.tally().describe(),
            nearest_rank(&lat, 0.5),
            nearest_rank(&lat, 0.95),
            self.depth_growth(),
            verdict
                .as_ref()
                .map_or_else(Clone::clone, |()| "within limits".to_owned())
        )
    }

    /// Whether the step met every limit, and why not.
    fn verdict(&self) -> Result<(), String> {
        let lat = self.latencies_failed_as_infinite();
        let p95 = quantile(&lat, 0.95)?;
        let failed = self.tally().failed_share();
        let growth = self.depth_growth();
        // A few back-to-back misses queue a handful of requests for a
        // moment; a backlog that outgrows 3% of the step is overload.
        let allowed = (0.03 * self.served.len() as f64).max(4.0);
        if p95 > LIMIT_MS {
            Err(format!("p95 {p95:.1} ms > {LIMIT_MS} ms"))
        } else if failed > LIMIT_FAILED {
            Err(format!("failed share {failed:.4} > {LIMIT_FAILED}"))
        } else if growth > allowed {
            Err(format!("queue grew by {growth:.1}"))
        } else {
            Ok(())
        }
    }
}

/// What `served_zipf` traffic draws from and where its answers go.
struct Traffic<'a> {
    server: &'a Server,
    ctx: &'a Ctx,
    pool: &'a [Utterance],
    zipf: Zipf,
    book: ValueBook,
    /// Distinct utterances the reference steps asked, in first-asked
    /// order, and the position the closed loops replay them from.
    asked: Vec<usize>,
    asked_once: std::collections::BTreeSet<usize>,
    cursor: usize,
}

impl Traffic<'_> {
    fn request(&self, utt: usize) -> Request {
        Request::new(self.pool[utt].transcript.clone()).with_config(self.ctx.cfg.clone())
    }

    /// The next already-asked utterance, cycling through each once: its
    /// answer is cached, and Zipf weights would let a seed's few most
    /// popular questions set a rate.
    fn next_asked(&mut self) -> usize {
        let utt = self.asked[self.cursor % self.asked.len()];
        self.cursor += 1;
        utt
    }

    /// Send at `rate` for `span` on a fixed schedule, then collect every
    /// answer, keeping the outcomes.
    fn step(&mut self, rate: f64, span: Duration) -> Step {
        let schedule = Schedule::new(Instant::now(), rate);
        let mut depth = Vec::new();
        let start = Instant::now();
        let sent = schedule.drive(span, |_| {
            let utt = self.zipf.draw();
            if self.asked_once.insert(utt) {
                self.asked.push(utt);
            }
            let ticket = self.server.submit(self.request(utt));
            depth.push(self.server.stats().queue_depth);
            (utt, ticket)
        });
        let mut served = Vec::with_capacity(sent.len());
        let mut lateness_ms = Vec::with_capacity(sent.len());
        for s in sent {
            lateness_ms.push(ms(s.lateness));
            let (utt, ticket) = s.reply;
            served.push(self.resolve(utt, s.lateness, ticket, true, start));
        }
        Step {
            served,
            lateness_ms,
            depth,
            wall: start.elapsed(),
        }
    }

    /// Keep [`WINDOW`] requests for already-asked utterances outstanding
    /// for `span`, as that many closed-loop clients would: each answer is
    /// followed by the next request.
    fn saturate(&mut self, span: Duration) -> Step {
        let mut outstanding = std::collections::VecDeque::new();
        let mut served = Vec::new();
        let mut depth = Vec::new();
        let start = Instant::now();
        loop {
            while outstanding.len() < WINDOW && start.elapsed() < span {
                let utt = self.next_asked();
                outstanding.push_back((utt, self.server.submit(self.request(utt))));
                depth.push(self.server.stats().queue_depth);
            }
            let Some((utt, ticket)) = outstanding.pop_front() else {
                break;
            };
            served.push(self.resolve(utt, Duration::ZERO, ticket, false, start));
        }
        Step {
            served,
            lateness_ms: Vec::new(),
            depth,
            wall: start.elapsed(),
        }
    }

    /// One closed-loop client running sessions for already-asked
    /// utterances on `caches` itself, not through the server, for `span`.
    fn direct(&mut self, caches: &Arc<SessionCaches>, span: Duration) -> Step {
        let mut served = Vec::new();
        let start = Instant::now();
        while start.elapsed() < span {
            let utt = self.next_asked();
            let t0 = Instant::now();
            let out = self
                .ctx
                .session()
                .with_caches(Arc::clone(caches))
                .run(&self.pool[utt].transcript);
            let total = t0.elapsed();
            self.book.observe(&self.ctx.table, &out);
            served.push(Served {
                utt,
                latency: Some(total),
                done_s: start.elapsed().as_secs_f64(),
                queue_wait: Duration::ZERO,
                service: total,
                disposition: Disposition::of_session(&out),
                outcome: None,
            });
        }
        Step {
            served,
            lateness_ms: Vec::new(),
            depth: Vec::new(),
            wall: start.elapsed(),
        }
    }

    /// Wait for one submitted request and fold its answer into the book.
    fn resolve(
        &mut self,
        utt: usize,
        lateness: Duration,
        ticket: Result<muve_serve::Ticket, muve_serve::Rejected>,
        keep: bool,
        start: Instant,
    ) -> Served {
        let mut record = Served {
            utt,
            latency: None,
            done_s: 0.0,
            queue_wait: Duration::ZERO,
            service: Duration::ZERO,
            disposition: Disposition::Rejected,
            outcome: None,
        };
        let Ok(ticket) = ticket else {
            return record;
        };
        let out = ticket.wait();
        record.done_s = start.elapsed().as_secs_f64();
        record.disposition = Disposition::of_served(&out);
        if let ServeOutcome::Completed {
            outcome,
            queue_wait,
            total,
            ..
        } = out
        {
            // From the due time: the generator's lateness, then the
            // submit-to-answer time the server reported.
            record.latency = Some(lateness + total);
            record.queue_wait = queue_wait;
            record.service = total.saturating_sub(queue_wait);
            self.book.observe(&self.ctx.table, &outcome);
            record.outcome = keep.then_some(outcome);
        }
        record
    }

    /// Untimed warm-up: `n` requests, two in flight at a time (one per
    /// worker).
    fn warm_up(&mut self, n: usize) {
        for _ in 0..n / 2 {
            let tickets: Vec<_> = (0..2)
                .filter_map(|_| {
                    let utt = self.zipf.draw();
                    self.server.submit(self.request(utt)).ok()
                })
                .collect();
            for t in tickets {
                t.wait();
            }
        }
    }
}

fn served(seed: u64, seconds: Duration, trace: bool) -> Result<RunResult, String> {
    let workload = Workload::ServedZipf;
    let mut r = RunResult::default();
    let rows = workload.rows();
    let ((table, caches, server), setup) = repeated_setup(|| {
        let table = Arc::new(inputs::table(rows));
        let caches = Arc::new(SessionCaches::new(CACHE_BYTES));
        let server = Server::new(
            Arc::clone(&table),
            ServerConfig {
                workers: WORKERS,
                queue_depth: 64,
                caches: Some(Arc::clone(&caches)),
                ..ServerConfig::default()
            },
        );
        (table, caches, server)
    });
    r.set("setup_s", median(&setup));
    r.notes.push(format!(
        "setup: median {:.4} s over {} builds",
        median(&setup),
        setup.len()
    ));
    let pool = inputs::utterances(&table, workload.pool(), seed);
    let ctx = Ctx {
        workload,
        seed,
        table,
        shards: None,
        cfg: workload.config(),
    };
    let mut traffic = Traffic {
        server: &server,
        ctx: &ctx,
        pool: &pool,
        zipf: Zipf::new(pool.len(), 1.0, stream_seed(seed, 4)),
        book: ValueBook::default(),
        asked: Vec::new(),
        asked_once: std::collections::BTreeSet::new(),
        cursor: 0,
    };
    traffic.warm_up(WARMUP_REQUESTS);

    let cache_before = caches.stats();
    let serve_before = server.stats();
    let reference = traffic.step(REFERENCE_RATE, seconds / 2);
    let cache_after = caches.stats();
    let serve_after = server.stats();
    r.notes.push(format!(
        "reference step: {} of {} requests missed the candidate cache",
        (cache_after.candidates.lookups - cache_before.candidates.lookups)
            - (cache_after.candidates.hits - cache_before.candidates.hits),
        reference.served.len()
    ));
    r.tally = reference.tally();
    let completed: Vec<(usize, &SessionOutcome, &Served)> = reference
        .served
        .iter()
        .filter_map(|s| s.outcome.as_deref().map(|o| (s.utt, o, s)))
        .collect();
    // Open-loop latency from the due time. Its tail is the misses' service
    // time, which CPU steal on a 2-vCPU VM moved beyond any bound (see
    // voicebench/METRICS.md), so it is a per-layer metric.
    let open_ms: Vec<f64> = completed
        .iter()
        .filter_map(|(_, _, s)| s.latency.map(ms))
        .collect();
    let open_p = |q: f64| quantile(&open_ms, q).map_err(|e| format!("served_zipf open loop: {e}"));
    let (open_p50, open_p95) = (open_p(0.5)?, open_p(0.95)?);
    r.notes.push(format!(
        "open loop @150/s from the due time: p50 {open_p50:.3} ms, p95 {open_p95:.3} ms"
    ));

    if trace {
        let waits: Vec<f64> = completed
            .iter()
            .map(|(_, _, s)| s.queue_wait.as_secs_f64() * 1e6)
            .collect();
        r.set("serve.queue_wait_us_p50", nearest_rank(&waits, 0.5));
        r.set("serve.queue_wait_us_p95", nearest_rank(&waits, 0.95));
        r.set("serve.open_loop_p50_ms", open_p50);
        r.set("serve.open_loop_p95_ms", open_p95);
        let busy: f64 = completed
            .iter()
            .map(|(_, _, s)| s.service.as_secs_f64())
            .sum();
        r.set(
            "serve.worker_busy_share",
            busy / (WORKERS as f64 * reference.wall.as_secs_f64()),
        );
        // Counts per request of the step, so they do not grow with its length.
        let per_request = |n: u64| n as f64 / reference.served.len().max(1) as f64;
        r.set(
            "serve.retries_per_request",
            per_request(serve_after.retries - serve_before.retries),
        );
        r.set(
            "serve.shed_per_request",
            per_request(serve_after.shed - serve_before.shed),
        );
        let ratio = |a: CacheStats, b: CacheStats| match a.lookups - b.lookups {
            0 => 0.0,
            lookups => (a.hits - b.hits) as f64 / lookups as f64,
        };
        r.set(
            "cache.candidates.hit_ratio",
            ratio(cache_after.candidates, cache_before.candidates),
        );
        r.set(
            "cache.results.hit_ratio",
            ratio(cache_after.results, cache_before.results),
        );
        r.set(
            "cache.plans.hit_ratio",
            ratio(cache_after.plans, cache_before.plans),
        );
        r.set(
            "cache.flight_waits_per_request",
            per_request(cache_after.singleflight_waits - cache_before.singleflight_waits),
        );
        let evictions = |c: &muve_pipeline::CachesReport| {
            c.candidates.evictions + c.results.evictions + c.plans.evictions
        };
        r.set(
            "cache.evictions_per_request",
            per_request(evictions(&cache_after) - evictions(&cache_before)),
        );
        // The highest rate within the limits: completions per second with
        // the workers kept busy, or 0 when that load breaks a limit. The
        // requests replay already-asked utterances, so the caches the
        // replays' lookups are timed against do not change.
        let saturated = traffic.saturate(seconds / 5);
        let rate = saturated.ok_rate();
        let verdict = saturated.verdict();
        r.notes
            .push(saturated.describe(&format!("{WINDOW} outstanding at {rate:.1}/s"), &verdict));
        r.set(
            "serve.max_rate_qps",
            if verdict.is_ok() { rate } else { 0.0 },
        );
        for s in &saturated.served {
            r.tally.add(s.disposition);
        }
        // The replay part: uncached sessions over the same pool, each
        // followed by its replay and timed lookups against the warm bundle.
        let mut t = Tracer::new();
        let mut l = Layers::default();
        let mut pair_run = RunResult::default();
        pairs(
            &ctx,
            &pool,
            seconds * 3 / 10,
            Some(&caches),
            &mut t,
            &mut l,
            &mut pair_run,
        );
        r.checks.append(&mut pair_run.checks);
        layers(&ctx, &t, &l, &mut r)?;
        // Sessions in the replay part are not served: the pipeline's own
        // overhead is read from the served sessions instead.
        let selfs: Vec<f64> = completed
            .iter()
            .map(|(_, o, _)| pipeline_self_us(o))
            .collect();
        r.set("pipeline.self_us", nearest_rank(&selfs, 0.5));
        r.tracer = Some(t);
    } else {
        // Quality per distinct transcript: under Zipf traffic a per-request
        // share would mostly report the few most popular questions.
        let mut once = std::collections::BTreeSet::new();
        let seen_all: Vec<Seen> = completed
            .iter()
            .filter(|(utt, _, _)| once.insert(*utt))
            .map(|&(utt, out, _)| seen(&ctx.cfg, &ctx.table, pool[utt].truth_fp, out))
            .collect();
        r.notes.push(format!(
            "quality over {} distinct transcripts of {} answers",
            seen_all.len(),
            completed.len()
        ));
        quality(&mut r, &seen_all);
        // Latency and throughput of one closed-loop client running cached
        // sessions on the server's caches, without the queue hand-off.
        let direct = traffic.direct(&caches, seconds * 3 / 10);
        let direct_ms: Vec<f64> = direct
            .served
            .iter()
            .filter_map(|s| s.latency.map(ms))
            .collect();
        latency(&mut r, &direct_ms, "served_zipf direct client")?;
        let rate = direct.ok_rate();
        r.set("sessions_per_s", rate);
        r.notes.push(direct.describe(
            &format!("one direct client at {rate:.1}/s"),
            &direct.verdict(),
        ));
        for s in &direct.served {
            r.tally.add(s.disposition);
        }
    }
    r.lateness = Some((
        median(&reference.lateness_ms),
        reference.lateness_ms.iter().copied().fold(0.0, f64::max),
    ));

    let book = std::mem::take(&mut traffic.book);
    let report = server.drain();
    r.check(
        format!("ServeStats reconcile ({})", report.stats),
        if report.stats.reconciles() {
            Ok(())
        } else {
            Err("submitted != served + degraded + shed".into())
        },
    );
    r.check(
        format!(
            "cache hits show their filling miss's values ({} candidates, {} repeats)",
            book.values.len(),
            book.repeats
        ),
        book.conflict.map_or(Ok(()), Err),
    );
    let exact: Vec<&SessionOutcome> = completed
        .iter()
        .map(|(_, o, _)| *o)
        .filter(|o| shown(o).is_some_and(|(_, _, approx)| !approx))
        .collect();
    let picks = seeded_subset(&exact, CROSS_CHECKS, stream_seed(seed, 6), |_| true);
    let res = picks
        .iter()
        .try_for_each(|&i| against_reference(&ctx.table, exact[i]));
    r.check(
        format!(
            "served values equal execute_reference ({} answers)",
            picks.len()
        ),
        res,
    );
    r.set("served_share", 1.0 - r.tally.failed_share());
    r.set("failed_share", r.tally.failed_share());
    r.set("peak_rss_mb", peak_rss_mb());
    Ok(r)
}
