//! The traced replay: one request re-run through each crate's public
//! functions in `Session`'s order, with a span around every call.
//!
//! Spans carry a name, start, end, parent and request id, stay in memory,
//! and are written out when the run ends. A layer's self time is its
//! span's duration minus the part of it that child spans cover. The
//! replay must reproduce the untraced `Session` outcome — multiplot,
//! values and rows scanned — or the traced run fails.

use muve_core::{
    headline, plan, plan_incremental_observed, render_text, Candidate, IncumbentSlot, Multiplot,
    Planner,
};
use muve_dbms::{
    execute_approximate_with_opts, execute_merged_with_opts, execute_with_opts, extract_merged,
    plan_merged, ExecOptions, MergeGroup, Query, ResultSet, Table,
};
use muve_nlq::{translate, CandidateGenerator};
use muve_pipeline::{DeadlineBudget, SessionConfig, SessionOutcome, Stage, Visualization};
use muve_shard::{ShardExecOptions, ShardSet};
use serde_json::json;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the call belongs to.
    pub req: u64,
    /// Span id, unique within the run.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified call name, e.g. `dbms.execute`.
    pub name: &'static str,
    /// Free-form qualifier, e.g. `exact` or `sample`.
    pub detail: &'static str,
    /// Start, in µs since the tracer was created.
    pub start_us: f64,
    /// End, in µs since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Wall time of the call, in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    req: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Attribute the following spans to request `req`.
    pub fn begin_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            req: self.req,
            id,
            parent: self.stack.last().copied(),
            name,
            detail,
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the union of its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.dur_us() - covered(&mut kids))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_us) in self.spans.iter().zip(selfs) {
            let line = json!({
                "req": s.req, "id": s.id, "parent": s.parent, "name": s.name,
                "detail": s.detail, "start_us": s.start_us, "end_us": s.end_us,
                "self_us": self_us,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// What a replay produced, in the terms the untraced outcome reports.
#[derive(Debug)]
pub struct Replayed {
    /// The planned multiplot.
    pub multiplot: Multiplot,
    /// Per-candidate values.
    pub results: Vec<Option<f64>>,
    /// Whether the values come from a sample.
    pub approximate: bool,
    /// Rows scanned by every execution call.
    pub rows_scanned: usize,
    /// Solver nodes (zero for greedy).
    pub nodes: usize,
    /// Whether the plan was proven optimal.
    pub proven: bool,
    /// Every sharded execution call, for the single-table comparison.
    pub gathers: Vec<Gathered>,
    /// Queries of the candidates the multiplot shows, in shown order.
    pub shown_queries: Vec<Query>,
    /// Fidelities executed, in ladder order (`None` = exact).
    pub fidelities: Vec<Option<f64>>,
}

/// One scatter-gather call of a sharded replay.
#[derive(Debug)]
pub struct Gathered {
    query: Query,
    fraction: Option<f64>,
    gather_us: f64,
}

/// Run each gathered query once more on the unsharded table, each under
/// a root span `shard.single_baseline` (outside the replayed session), and
/// return the gather's time over the single-table time per call.
pub fn gather_over_single(
    t: &mut Tracer,
    table: &Table,
    cfg: &SessionConfig,
    gathers: &[Gathered],
) -> Result<Vec<f64>, String> {
    let mut ratios = Vec::with_capacity(gathers.len());
    for g in gathers {
        let kind = if g.fraction.is_some() {
            "sample"
        } else {
            "exact"
        };
        let t0 = Instant::now();
        t.span("shard.single_baseline", kind, |_| match g.fraction {
            Some(f) => {
                execute_approximate_with_opts(table, &g.query, f, cfg.seed, ExecOptions::default())
                    .map(|_| ())
            }
            None => execute_with_opts(table, &g.query, None, ExecOptions::default()).map(|_| ()),
        })
        .map_err(|e| format!("single-table baseline ({kind}): {e}"))?;
        ratios.push(g.gather_us / (t0.elapsed().as_secs_f64() * 1e6).max(1e-3));
    }
    Ok(ratios)
}

/// Where a replay executes: the table, optionally behind a shard set.
pub struct Backend<'a> {
    /// The benchmark table.
    pub table: &'a Table,
    /// The shard set the session executed through, if any.
    pub shards: Option<&'a ShardSet>,
}

/// Replay one transcript. Mirrors `Session::run` on its undisturbed path
/// (no faults, no caches); any error is reported, since the replay only
/// runs for sessions that finished clean.
pub fn replay(
    t: &mut Tracer,
    backend: &Backend<'_>,
    cfg: &SessionConfig,
    transcript: &str,
) -> Result<Replayed, String> {
    t.span("session", "", |t| replay_inner(t, backend, cfg, transcript))
}

fn replay_inner(
    t: &mut Tracer,
    backend: &Backend<'_>,
    cfg: &SessionConfig,
    transcript: &str,
) -> Result<Replayed, String> {
    let table = backend.table;
    let budget = DeadlineBudget::new(cfg.deadline);
    let cancel = budget.cancel_token();
    let base = t
        .span("nlq.translate", "", |_| translate(transcript.trim(), table))
        .map_err(|e| format!("translate: {e}"))?;
    let gen = t.span("phonetics.index_build", "", |_| {
        CandidateGenerator::new(table)
    });
    let cands = t
        .span("nlq.candidates", "", |_| {
            gen.try_candidates(&base, cfg.k, cfg.max_candidates)
        })
        .map_err(|e| format!("candidates: {e}"))?;
    let candidates: Vec<Candidate> = cands
        .iter()
        .map(|c| Candidate::new(c.query.clone(), c.probability))
        .collect();
    t.span("core.headline", "", |_| headline(&candidates));

    let planned = match &cfg.planner {
        Planner::Greedy => t.span("core.plan", "greedy", |_| {
            plan(&Planner::Greedy, &candidates, &cfg.screen, &cfg.model)
        }),
        Planner::Ilp(ilp) => {
            let mut ilp = ilp.clone();
            ilp.cancel = Some(cancel.clone());
            let schedule = muve_core::IncrementalSchedule {
                total: budget.stage_budget(Stage::Plan),
                ..cfg.schedule
            };
            t.span("core.plan", "ilp", |_| {
                plan_incremental_observed(
                    &candidates,
                    &cfg.screen,
                    &cfg.model,
                    &ilp,
                    &schedule,
                    &IncumbentSlot::new(),
                    |_| {},
                )
            })
        }
    };
    if planned.multiplot.num_plots() == 0 {
        return Err("planner produced an empty multiplot".into());
    }

    let shown = planned.multiplot.candidates_shown();
    let queries: Vec<Query> = shown.iter().map(|&i| candidates[i].query.clone()).collect();
    let groups = t.span("dbms.plan_merged", "", |_| plan_merged(&queries));
    let mut ladder: Vec<Option<f64>> = Vec::new();
    if table.num_rows() >= cfg.sample_threshold_rows {
        ladder.extend(cfg.sample_ladder.iter().copied().map(Some));
    }
    ladder.push(None);
    let opts = ExecOptions {
        cancel: Some(&cancel),
        ..ExecOptions::default()
    };
    let mut results = vec![None; candidates.len()];
    let mut out = Replayed {
        multiplot: Multiplot::default(),
        results: Vec::new(),
        approximate: false,
        rows_scanned: 0,
        nodes: planned.nodes,
        proven: planned.proven_optimal,
        gathers: Vec::new(),
        shown_queries: Vec::new(),
        fidelities: Vec::new(),
    };
    let mut any_success = false;
    for fraction in ladder {
        if any_success && fraction.is_some() {
            continue; // never de-escalate
        }
        out.fidelities.push(fraction);
        let mut produced = false;
        for g in &groups {
            let (rs, values) = execute_group(t, backend, cfg, g, fraction, opts, &mut out)?;
            out.rows_scanned += rs;
            for (local, v) in values {
                produced |= v.is_some();
                results[shown[local]] = v;
            }
        }
        if fraction.is_some() && !produced {
            continue;
        }
        any_success = true;
        out.approximate = fraction.is_some();
        if fraction.is_none() {
            break;
        }
    }
    t.span("core.render", "", |_| {
        render_text(&planned.multiplot, &results)
    });
    out.multiplot = planned.multiplot;
    out.results = results;
    out.shown_queries = queries;
    Ok(out)
}

/// One merge group at one fidelity, through the single-table executor or
/// the shard set's gather. Returns rows scanned and member values.
type GroupValues = (usize, Vec<(usize, Option<f64>)>);

fn execute_group(
    t: &mut Tracer,
    backend: &Backend<'_>,
    cfg: &SessionConfig,
    g: &MergeGroup,
    fraction: Option<f64>,
    opts: ExecOptions<'_>,
    out: &mut Replayed,
) -> Result<GroupValues, String> {
    let table = backend.table;
    let kind = if fraction.is_some() {
        "sample"
    } else {
        "exact"
    };
    let err = |e: muve_dbms::ExecError| format!("execute ({kind}): {e}");
    let Some(set) = backend.shards else {
        return match fraction {
            Some(f) => t.span("dbms.execute", kind, |_| {
                execute_approximate_with_opts(table, &g.merged, f, cfg.seed, opts)
                    .map(|(rs, _)| (rs.stats.rows_scanned, extract_merged(&rs, g)))
                    .map_err(err)
            }),
            None => t.span("dbms.execute", kind, |_| {
                execute_merged_with_opts(table, g, opts)
                    .map(|m| (m.stats.rows_scanned, m.results))
                    .map_err(err)
            }),
        };
    };
    let shard_opts = ShardExecOptions {
        cancel: opts.cancel,
        mem: None,
        budget: None,
        allow_partial: true,
    };
    let t0 = Instant::now();
    let rs: ResultSet = t
        .span("shard.gather", kind, |_| match fraction {
            Some(f) => set
                .execute_sampled(&g.merged, f, cfg.seed, shard_opts)
                .map(|(sr, _)| sr)
                .map_err(err),
            None => set.execute(&g.merged, shard_opts).map_err(err),
        })
        .and_then(|sr| {
            if sr.report.missing() > 0 {
                Err(format!("gather lost {} shard(s)", sr.report.missing()))
            } else {
                Ok(sr.result)
            }
        })?;
    out.gathers.push(Gathered {
        query: g.merged.clone(),
        fraction,
        gather_us: t0.elapsed().as_secs_f64() * 1e6,
    });
    Ok((rs.stats.rows_scanned, extract_merged(&rs, g)))
}

/// Bit-for-bit equality of two value vectors.
pub fn same_values(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// Rows the untraced session reported scanning in its execute stage.
pub fn session_rows_scanned(outcome: &SessionOutcome) -> usize {
    outcome
        .stage_trace
        .span("execute")
        .and_then(|s| s.counter("rows_scanned"))
        .unwrap_or(0.0) as usize
}

/// Check that a replay reproduced the untraced outcome.
pub fn matches(outcome: &SessionOutcome, r: &Replayed) -> Result<(), String> {
    let Visualization::Multiplot {
        multiplot,
        results,
        approximate,
        ..
    } = &outcome.visualization
    else {
        return Err("untraced session ended as text".into());
    };
    if multiplot != &r.multiplot {
        return Err("multiplot differs".into());
    }
    if !same_values(results, &r.results) {
        return Err(format!("values differ: {results:?} vs {:?}", r.results));
    }
    if *approximate != r.approximate {
        return Err("fidelity differs".into());
    }
    let rows = session_rows_scanned(outcome);
    if rows != r.rows_scanned {
        return Err(format!(
            "rows scanned differ: session {rows}, replay {}",
            r.rows_scanned
        ));
    }
    Ok(())
}

/// Elapsed time as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.begin_request(1);
        t.span("outer", "", |t| {
            t.span("a", "", |_| std::thread::sleep(Duration::from_millis(4)));
            t.span("b", "", |_| std::thread::sleep(Duration::from_millis(4)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 1));
        let selfs = t.self_times();
        let children = spans[1].dur_us() + spans[2].dur_us();
        assert!((selfs[0] - (spans[0].dur_us() - children)).abs() < 1e-6);
        assert!((selfs[1] - spans[1].dur_us()).abs() < 1e-6);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let mut v = vec![(0.0, 10.0), (5.0, 12.0), (20.0, 25.0)];
        assert_eq!(covered(&mut v), 17.0);
    }

    #[test]
    fn replay_reproduces_a_greedy_session() {
        use muve_pipeline::Session;
        let table = muve_data::Dataset::Flights.generate(60_000, 2);
        let cfg = SessionConfig {
            planner: Planner::Greedy,
            ..SessionConfig::default()
        };
        let transcript = "average dep delay where origin is JFK";
        let outcome = Session::new(&table, cfg.clone()).run(transcript);
        let mut t = Tracer::new();
        let backend = Backend {
            table: &table,
            shards: None,
        };
        let r = replay(&mut t, &backend, &cfg, transcript).expect("replay runs");
        matches(&outcome, &r).expect("replay matches");
        // 60k rows sit above the sampling threshold: a sample pass, then exact.
        let kinds: Vec<&str> = t
            .spans()
            .iter()
            .filter(|s| s.name == "dbms.execute")
            .map(|s| s.detail)
            .collect();
        assert!(
            kinds.contains(&"sample") && kinds.contains(&"exact"),
            "{kinds:?}"
        );
    }
}
