//! Open-loop sending on a fixed schedule.
//!
//! Request `i` of a step is due at `start + i / rate`, whether or not
//! earlier requests have finished. Latency counts from the due time, so a
//! stall in the system (or in the generator) charges every request it
//! delays; the generator's own lateness is reported next to it.

use std::time::{Duration, Instant};

/// One request handed to the sender.
#[derive(Debug)]
pub struct Sent<R> {
    /// How late the generator actually sent it.
    pub lateness: Duration,
    /// What the sender returned.
    pub reply: R,
}

/// A fixed-rate schedule of due times.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        assert!(rate > 0.0, "an open-loop rate must be positive");
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Requests due within `span` of the start.
    pub fn count_within(&self, span: Duration) -> usize {
        (span.as_secs_f64() / self.interval.as_secs_f64()).floor() as usize
    }

    /// Send every request due within `span`, each at its due time (or as
    /// soon after as the generator gets to it), and return what the
    /// sender replied with the generator's lateness.
    pub fn drive<R>(&self, span: Duration, mut send: impl FnMut(usize) -> R) -> Vec<Sent<R>> {
        let n = self.count_within(span);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let due = self.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lateness = Instant::now().saturating_duration_since(due);
            let reply = send(i);
            out.push(Sent { lateness, reply });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_replies() {
        let start = Instant::now();
        let s = Schedule::new(start, 200.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(10) - start, Duration::from_millis(50));
        assert_eq!(s.count_within(Duration::from_millis(100)), 20);
    }

    #[test]
    fn a_stall_makes_later_requests_late_and_is_charged_to_them() {
        // 100/s: one request every 10 ms. Request 0 stalls the sender for
        // 45 ms, so requests 1..=4 go out late; each must carry that
        // lateness in its latency even though its own service is instant
        // (request 4, due at 40 ms, is only just late, so 1..=3 are checked).
        let s = Schedule::new(Instant::now(), 100.0);
        let sent = s.drive(Duration::from_millis(80), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(45));
            }
            Duration::ZERO
        });
        assert_eq!(sent.len(), 8);
        assert!(sent[0].lateness < Duration::from_millis(5));
        for r in &sent[1..=3] {
            let lat = r.lateness + r.reply;
            assert!(lat >= Duration::from_millis(5), "lateness {:?}", r.lateness);
        }
        // Request 1 was due at 10 ms and sent at ≥ 45 ms.
        assert!(sent[1].lateness >= Duration::from_millis(34));
        // The generator caught up: the last request went out on time.
        assert!(sent[7].lateness < Duration::from_millis(5));
    }
}
