//! Open-loop load generation and the `max_rate_rps` rung rule.
//!
//! Requests fall due on a seeded schedule whether or not earlier ones
//! have finished. A small pool of senders takes them in due order; when
//! every sender is busy, the next request goes out late, and its latency,
//! timed from when it was due, includes that wait. How late each request
//! was sent is kept as well: a generator that falls further behind over a
//! rung means the offered rate was not sustained.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{self, Tail};

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op<K> {
    /// When it falls due, from the start of the phase.
    pub due: Duration,
    /// What kind of request it is.
    pub kind: K,
    /// Which prepared input it sends.
    pub item: usize,
}

/// One finished request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Done<K> {
    /// Position in the schedule.
    pub index: usize,
    /// The request's kind.
    pub kind: K,
    /// When it fell due, from the start of the phase.
    pub due: Duration,
    /// When a sender sent it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl<K> Done<K> {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Arrival offsets at a constant `rate_rps` over `seconds`, the first at
/// `phase` (a fraction in `[0, 1)`) of one gap. A constant rate rather than
/// a Poisson stream keeps the offered load, and with it the tail, the same
/// from seed to seed; the seed still sets the phase.
pub fn arrivals(rate_rps: f64, seconds: f64, phase: f64) -> Vec<Duration> {
    (0..)
        .map(|k| (k as f64 + phase) / rate_rps)
        .take_while(|&t| t < seconds)
        .map(Duration::from_secs_f64)
        .collect()
}

/// Send `ops` (sorted by due time) from `senders` threads, starting now.
/// `exec` performs one request and reports whether it succeeded. Results
/// come back in schedule order.
pub fn run<K: Copy + Send + Sync>(
    ops: &[Op<K>],
    senders: usize,
    exec: &(dyn Fn(usize, &Op<K>) -> bool + Sync),
) -> Vec<Done<K>> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(ops.len()));
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(op) = ops.get(index) else { break };
                let wait = op.due.saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let ok = exec(index, op);
                let done = start.elapsed();
                results
                    .lock()
                    .expect("results lock: a sender panicked")
                    .push(Done {
                        index,
                        kind: op.kind,
                        due: op.due,
                        sent,
                        done,
                        ok,
                    });
            });
        }
    });
    let mut results = results
        .into_inner()
        .expect("results lock: a sender panicked");
    results.sort_by_key(|d| d.index);
    results
}

/// Lateness may grow by this much across a rung before the generator
/// counts as falling behind.
pub const LATE_GROWTH_LIMIT_MS: f64 = 5.0;

/// Growth of generator lateness over a rung: median lateness of the last
/// quarter of its requests (in due order) minus that of the first quarter.
/// Medians, so that the short stall behind one append does not read as a
/// backlog that keeps growing.
pub fn late_growth_ms(late_in_due_order: &[f64]) -> f64 {
    let q = late_in_due_order.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let n = late_in_due_order.len();
    stats::median(&late_in_due_order[n - q..]) - stats::median(&late_in_due_order[..q])
}

/// What one rung of the ladder measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered impute rate, requests per second.
    pub rate: f64,
    /// Impute latency at p99, or the highest percentile the rung's sample
    /// supports.
    pub tail: Option<Tail>,
    /// Failed requests during the rung (imputes and appends).
    pub failed: usize,
    /// [`late_growth_ms`] over the rung's imputes.
    pub late_growth_ms: f64,
}

impl Rung {
    /// Summarise a rung from its impute latencies and lateness (both in
    /// due order) and its failure count.
    pub fn measure(rate: f64, latency_ms: &[f64], late_ms: &[f64], failed: usize) -> Rung {
        Rung {
            rate,
            tail: stats::tail(latency_ms, 99.0),
            failed,
            late_growth_ms: late_growth_ms(late_ms),
        }
    }

    /// The rung rule: no failures, the tail within `limit_ms`, and no
    /// growing generator backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.tail.is_some_and(|t| t.value <= limit_ms)
            && self.late_growth_ms <= LATE_GROWTH_LIMIT_MS
    }
}

/// `max_rate_rps`: the highest passing rung below the lowest failing one
/// (a pass above a failure is noise, not capacity); 0 when none passes.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let lowest_fail = rungs
        .iter()
        .filter(|r| !r.passes(limit_ms))
        .map(|r| r.rate)
        .fold(f64::INFINITY, f64::min);
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms) && r.rate < lowest_fail)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn requests_queued_behind_a_stall_include_it() {
        // One sender, requests due every 10 ms; the first stalls 200 ms.
        let ops: Vec<Op<()>> = (0..10)
            .map(|i| Op {
                due: ms(10 * i),
                kind: (),
                item: i as usize,
            })
            .collect();
        let stall = |index: usize, _: &Op<()>| {
            std::thread::sleep(if index == 0 { ms(200) } else { ms(1) });
            true
        };
        let done = run(&ops, 1, &stall);
        assert_eq!(done.len(), 10);
        assert!(done[0].latency_ms() >= 200.0);
        assert!(
            done[0].late_ms() < 50.0,
            "the stalled request went out on time"
        );
        for d in &done[1..] {
            let due_ms = d.due.as_secs_f64() * 1e3;
            // Sent only once the stall cleared, so timed from its due time
            // the wait is part of its latency.
            assert!(d.late_ms() >= 200.0 - due_ms - 1.0, "{d:?}");
            assert!(d.latency_ms() >= d.late_ms());
        }
        // The generator reports how far behind it ran.
        let late: Vec<f64> = done.iter().map(Done::late_ms).collect();
        assert!(late.iter().cloned().fold(0.0, f64::max) >= 190.0);
    }

    #[test]
    fn an_idle_sender_pool_sends_on_time() {
        let ops: Vec<Op<()>> = (0..5)
            .map(|i| Op {
                due: ms(5 * i),
                kind: (),
                item: 0,
            })
            .collect();
        let done = run(&ops, 2, &|_, _| true);
        assert!(done.iter().all(|d| d.ok && d.late_ms() < 50.0));
        assert_eq!(
            done.iter().map(|d| d.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn late_growth_compares_last_and_first_quarters() {
        assert_eq!(late_growth_ms(&[0.0; 8]), 0.0);
        let growing = [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 20.0];
        assert_eq!(late_growth_ms(&growing), 15.0);
        // One spike in the last quarter is not a growing backlog.
        let spike = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 60.0];
        assert_eq!(late_growth_ms(&spike), 0.0);
        assert_eq!(late_growth_ms(&[7.0, 9.0]), 0.0, "too short to judge");
    }

    #[test]
    fn arrivals_keep_the_rate_from_the_phase() {
        let a = arrivals(100.0, 2.0, 0.5);
        assert_eq!(a.len(), 200);
        assert_eq!(a[0], Duration::from_secs_f64(0.005));
        assert!(a
            .windows(2)
            .all(|w| ((w[1] - w[0]).as_secs_f64() - 0.01).abs() < 1e-9));
        assert!(arrivals(100.0, 2.0, 0.0).len() == 200);
    }

    fn rung(rate: f64, p99: f64, failed: usize, growth: f64) -> Rung {
        let latency: Vec<f64> = vec![p99; 1000];
        let mut r = Rung::measure(rate, &latency, &[], failed);
        r.late_growth_ms = growth;
        r
    }

    #[test]
    fn each_condition_of_the_rung_rule_can_fail_a_rung() {
        assert!(rung(50.0, 20.0, 0, 0.0).passes(50.0));
        assert!(rung(50.0, 50.0, 0, 0.0).passes(50.0));
        assert!(!rung(50.0, 50.1, 0, 0.0).passes(50.0));
        assert!(!rung(50.0, 20.0, 1, 0.0).passes(50.0));
        assert!(!rung(50.0, 20.0, 0, 6.0).passes(50.0));
        // Too few samples for any percentile: not a pass.
        assert!(!Rung::measure(50.0, &[1.0; 5], &[], 0).passes(50.0));
    }

    #[test]
    fn max_rate_is_the_highest_pass_below_the_lowest_failure() {
        let ladder = [
            rung(100.0, 10.0, 0, 0.0),
            rung(115.0, 20.0, 0, 0.0),
            rung(132.0, 80.0, 0, 0.0),
            // Refinement between the last pass and the first failure.
            rung(123.0, 30.0, 0, 0.0),
            rung(127.0, 60.0, 0, 0.0),
        ];
        assert_eq!(max_rate(&ladder, 50.0), 123.0);
        // A pass above a failure does not count.
        let noisy = [
            rung(100.0, 10.0, 0, 0.0),
            rung(115.0, 20.0, 2, 0.0),
            rung(132.0, 20.0, 0, 0.0),
        ];
        assert_eq!(max_rate(&noisy, 50.0), 100.0);
        assert_eq!(max_rate(&[rung(100.0, 90.0, 0, 0.0)], 50.0), 0.0);
        assert_eq!(max_rate(&[], 50.0), 0.0);
    }
}
