//! Open-loop load: requests are due on a seeded Poisson schedule and
//! are timed from when they were due, not from when a sender got to
//! them, so a stall charges every request queued behind it.
//!
//! At most `senders` requests are in flight at once (one per sender
//! thread). When every sender is busy a due request waits; that wait is
//! the generator lag, reported on its own and included in latency.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cafemio_bench::mutate::SplitMix64;

use crate::cpu;

/// A uniform draw in `[0, 1)` with 53 random bits.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `count` arrival offsets of a Poisson process at `rate` per second,
/// starting at zero.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, count: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let due = Duration::from_secs_f64(at);
            at += -(1.0 - unit(rng)).ln() / rate;
            due
        })
        .collect()
}

/// How one request went, measured against its due time.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Send time minus due time: how late the generator was.
    pub lag: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
}

/// What [`drive`] returns.
pub struct Driven<R> {
    /// Each request's timing with `send`'s result, in schedule order.
    pub sent: Vec<(Timing, R)>,
    /// CPU time the sender threads used, so that it can be told apart
    /// from what the system under load used.
    pub sender_cpu: Duration,
}

/// Sends request `i` at `start + due[i]` from up to `senders` threads.
/// `send` is called exactly once per request.
pub fn drive<R, F>(due: &[Duration], senders: usize, send: F) -> Driven<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let sender_nanos = AtomicU64::new(0);
    let results: Mutex<Vec<Option<(Timing, R)>>> =
        Mutex::new((0..due.len()).map(|_| None).collect());
    // A short lead so the first request is not already late.
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = due.get(i) else { break };
                    let due_at = start + offset;
                    let now = Instant::now();
                    if now < due_at {
                        std::thread::sleep(due_at - now);
                    }
                    let sent = Instant::now();
                    let result = send(i);
                    let done = Instant::now();
                    let timing = Timing {
                        lag: sent.saturating_duration_since(due_at),
                        latency: done.saturating_duration_since(due_at),
                    };
                    results
                        .lock()
                        .expect("no sender panics while holding the lock")[i] =
                        Some((timing, result));
                }
                // The thread is this call's own, so all its time is.
                sender_nanos.fetch_add(cpu::thread().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    let sent = results
        .into_inner()
        .expect("no sender panicked")
        .into_iter()
        .map(|slot| slot.expect("every scheduled request was sent"))
        .collect();
    Driven {
        sent,
        sender_cpu: Duration::from_nanos(sender_nanos.into_inner()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lag_is_reported() {
        // Three requests due at once, one sender, 20 ms each: the second
        // waits one service time and the third two, and both waits show
        // up as lag and inside latency.
        let service = Duration::from_millis(20);
        let due = vec![Duration::ZERO; 3];
        let driven = drive(&due, 1, |_| std::thread::sleep(service));
        // Sleeping costs the sender next to no CPU time.
        assert!(driven.sender_cpu < service);
        let timings = driven.sent;
        for (k, (timing, ())) in timings.iter().enumerate() {
            let k = k as u32;
            assert!(timing.lag >= service * k, "lag {k}: {:?}", timing.lag);
            assert!(
                timing.latency >= service * (k + 1),
                "latency {k}: {:?}",
                timing.latency
            );
            assert!(timing.latency >= timing.lag + service);
        }
    }

    #[test]
    fn every_request_is_sent_once_and_reported_in_schedule_order() {
        let due = vec![Duration::ZERO; 200];
        let calls = AtomicUsize::new(0);
        let timings = drive(&due, 2, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .sent;
        assert_eq!(calls.into_inner(), 200);
        for (i, (timing, sent)) in timings.iter().enumerate() {
            assert_eq!(*sent, i);
            assert!(timing.latency >= timing.lag);
        }
    }

    #[test]
    fn poisson_schedules_are_seeded_and_have_the_requested_rate() {
        let a = poisson_schedule(&mut SplitMix64::new(3), 500.0, 5000);
        let b = poisson_schedule(&mut SplitMix64::new(3), 500.0, 5000);
        let c = poisson_schedule(&mut SplitMix64::new(4), 500.0, 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().expect("nonempty").as_secs_f64();
        let rate = 4999.0 / span;
        assert!((450.0..550.0).contains(&rate), "rate {rate}");
    }
}
