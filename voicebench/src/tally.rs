//! What became of each request, counted exactly once.
//!
//! A request fails when it was rejected at submit, shed after admission,
//! ended as text, ended below its planned rung, or carried any
//! `PipelineError`. The first of those that applies names the failure, so
//! a shed request is never also counted as degraded, and so on.

use muve_pipeline::{SessionOutcome, Visualization};
use muve_serve::ServeOutcome;

/// The one class a finished request is counted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Disposition {
    /// Served on its planned rung with no error.
    Ok,
    /// Refused by admission control at submit.
    Rejected,
    /// Admitted, then shed (queue expiry, crash, shutdown).
    Shed,
    /// Ended as the text fallback.
    Text,
    /// Ended below its planned rung.
    Degraded,
    /// Finished on its rung but recorded a pipeline error.
    Errored,
}

impl Disposition {
    /// Every class, in report order.
    pub const ALL: [Disposition; 6] = [
        Disposition::Ok,
        Disposition::Rejected,
        Disposition::Shed,
        Disposition::Text,
        Disposition::Degraded,
        Disposition::Errored,
    ];

    /// Classify a finished session.
    pub fn of_session(outcome: &SessionOutcome) -> Disposition {
        if matches!(outcome.visualization, Visualization::Text { .. }) {
            Disposition::Text
        } else if outcome.degraded() {
            Disposition::Degraded
        } else if !outcome.errors.is_empty() {
            Disposition::Errored
        } else {
            Disposition::Ok
        }
    }

    /// Classify a request the server resolved.
    pub fn of_served(outcome: &ServeOutcome) -> Disposition {
        match outcome {
            ServeOutcome::Shed { .. } => Disposition::Shed,
            ServeOutcome::Completed { outcome, .. } => Disposition::of_session(outcome),
        }
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Disposition::Ok => "ok",
            Disposition::Rejected => "rejected",
            Disposition::Shed => "shed",
            Disposition::Text => "text",
            Disposition::Degraded => "degraded",
            Disposition::Errored => "errored",
        }
    }
}

/// Request counts per [`Disposition`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; 6],
}

impl Tally {
    /// Count one request.
    pub fn add(&mut self, d: Disposition) {
        self.counts[d as usize] += 1;
    }

    /// Requests counted under `d`.
    pub fn get(&self, d: Disposition) -> u64 {
        self.counts[d as usize]
    }

    /// Every request counted.
    pub fn attempted(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Requests counted under any class but [`Disposition::Ok`].
    pub fn failed(&self) -> u64 {
        self.attempted() - self.get(Disposition::Ok)
    }

    /// `failed ÷ attempted` (zero before any request).
    pub fn failed_share(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// `name=count` for every non-empty class.
    pub fn describe(&self) -> String {
        Disposition::ALL
            .iter()
            .filter(|&&d| self.get(d) > 0)
            .map(|&d| format!("{}={}", d.name(), self.get(d)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_core::Planner;
    use muve_data::Dataset;
    use muve_dbms::Table;
    use muve_pipeline::{FaultInjector, PipelineError, Session, SessionConfig};
    use muve_serve::Rejected;
    use std::time::Duration;

    fn table() -> Table {
        Dataset::Flights.generate(2_000, 3)
    }

    fn greedy() -> SessionConfig {
        SessionConfig {
            planner: Planner::Greedy,
            ..SessionConfig::default()
        }
    }

    fn run(t: &Table, transcript: &str, faults: &str) -> SessionOutcome {
        let injector = FaultInjector::parse(faults).expect("fault spec parses");
        Session::new(t, greedy())
            .with_injector(injector)
            .run(transcript)
    }

    #[test]
    fn each_kind_of_failure_is_counted_once() {
        let t = table();
        let ok = run(&t, "average dep delay where origin is JFK", "");
        let text = run(
            &t,
            "average dep delay where origin is JFK",
            "translate:error@p=1",
        );
        let degraded = run(
            &t,
            "average dep delay where origin is JFK",
            "plan:error@p=1",
        );
        let mut errored = ok.clone();
        errored
            .errors
            .push(PipelineError::Planning("injected".into()));

        assert_eq!(Disposition::of_session(&ok), Disposition::Ok);
        assert_eq!(Disposition::of_session(&text), Disposition::Text);
        // A text ending is also below the planned rung; it counts as text.
        assert!(text.degraded());
        assert_eq!(Disposition::of_session(&degraded), Disposition::Degraded);
        // A degraded run also carries the error that degraded it.
        assert!(!degraded.errors.is_empty());
        assert_eq!(Disposition::of_session(&errored), Disposition::Errored);

        let shed = ServeOutcome::Shed {
            reason: Rejected::Expired {
                waited: Duration::from_millis(300),
            },
            total: Duration::from_millis(300),
        };
        assert_eq!(Disposition::of_served(&shed), Disposition::Shed);
        let served = ServeOutcome::Completed {
            outcome: Box::new(ok.clone()),
            attempts: 1,
            queue_wait: Duration::ZERO,
            total: Duration::from_millis(5),
        };
        assert_eq!(Disposition::of_served(&served), Disposition::Ok);

        let mut tally = Tally::default();
        for d in [
            Disposition::of_session(&ok),
            Disposition::Rejected,
            Disposition::of_served(&shed),
            Disposition::of_session(&text),
            Disposition::of_session(&degraded),
            Disposition::of_session(&errored),
        ] {
            tally.add(d);
        }
        assert_eq!(tally.attempted(), 6);
        assert_eq!(tally.failed(), 5);
        for d in Disposition::ALL {
            assert_eq!(tally.get(d), 1, "{}", d.name());
        }
        assert!((tally.failed_share() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn describe_lists_non_empty_classes() {
        let mut a = Tally::default();
        a.add(Disposition::Ok);
        a.add(Disposition::Shed);
        a.add(Disposition::Ok);
        assert_eq!(a.attempted(), 3);
        assert_eq!(a.failed(), 1);
        assert_eq!(a.describe(), "ok=2 shed=1");
    }
}
