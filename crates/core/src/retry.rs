//! Retry policy for recipient-driven sync rounds.
//!
//! The paper's rounds are idempotent: re-shipping an already-dominated
//! item is a no-op by IVV comparison, and every exchange is initiated
//! fresh from the recipient's current DBVV. That makes "retry the whole
//! round" a safe and complete recovery strategy for every transient
//! transport failure — lost frames, corrupt frames, reset connections,
//! unreachable peers. This module provides the policy (bounded attempts,
//! exponential backoff, deterministic jitter, an optional per-round
//! deadline) and the one stop-or-pause decision
//! ([`RetryPolicy::pause_before_retry`]); the one retry loop is the
//! drivers' in [`crate::engine`].

use std::time::{Duration, Instant};

use epidb_common::{Error, Result};

/// How a sync round responds to transient transport failure.
///
/// Backoff for attempt `k` (1-based, after the `k`-th failure) is
/// `base_backoff * 2^(k-1)` capped at `max_backoff`, then jittered
/// deterministically from `jitter_seed` — two runs with the same policy
/// and the same failures sleep identically, which keeps chaos runs
/// replayable by seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per round (1 = no retries).
    pub max_attempts: u32,
    /// Backoff after the first failure.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff pause.
    pub max_backoff: Duration,
    /// Give up retrying once a round has spent this long, even with
    /// attempts remaining. `None` = attempts are the only bound.
    pub round_deadline: Option<Duration>,
    /// Seed for the deterministic jitter applied to each backoff.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, fail on the first error. The behaviour of
    /// every driver before this policy existed.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            round_deadline: None,
            jitter_seed: 0,
        }
    }

    /// `attempts` tries with no backoff pause — for simulated transports,
    /// where the fault process is driven by the harness, not by time.
    pub const fn attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            round_deadline: None,
            jitter_seed: 0,
        }
    }

    /// Whether `err` should be retried at all.
    pub fn retryable(&self, err: &Error) -> bool {
        self.max_attempts > 1 && err.is_retryable()
    }

    /// The pause before attempt `failed + 1`, where `failed` counts
    /// failures so far. Exponential in `failed`, capped, with
    /// deterministic ±25% jitter. `failed = 0` is tolerated (treated as
    /// the first failure) rather than relying on every caller to uphold
    /// the ≥ 1 convention — the subtraction below must never underflow.
    pub fn backoff(&self, failed: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base_backoff.saturating_mul(1u32 << (failed.max(1) - 1).min(16));
        let capped = exp.min(self.max_backoff.max(self.base_backoff));
        let nanos = capped.as_nanos();
        // splitmix64 of (seed, attempt) — stable across runs, different
        // across attempts, no shared state.
        let mut z =
            self.jitter_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(failed as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Scale into [0.75, 1.25) of the capped backoff, entirely in u128:
        // in u64 the product `(z % 512) * nanos` wraps once the capped
        // backoff exceeds ~2^55 ns (~417 days), collapsing a huge backoff
        // into a near-zero pause.
        let jittered = nanos / 4 * 3 + (z % 512) as u128 * nanos / 1024;
        let secs = jittered / 1_000_000_000;
        match u64::try_from(secs) {
            Ok(s) => Duration::new(s, (jittered % 1_000_000_000) as u32),
            // ≥ 1.0× jitter of a near-Duration::MAX backoff can exceed
            // what Duration represents; saturate.
            Err(_) => Duration::MAX,
        }
    }

    /// Whether a round that started at `start` has exhausted its deadline.
    pub fn deadline_exceeded(&self, start: Instant) -> bool {
        match self.round_deadline {
            Some(d) => start.elapsed() >= d,
            None => false,
        }
    }

    /// The instant a round's deadline counts from: read now if this policy
    /// has a deadline, not at all otherwise — an idle round is ~90 ns and
    /// a clock read is a fifth of that.
    pub fn round_start(&self) -> Option<Instant> {
        self.round_deadline.map(|_| Instant::now())
    }

    /// [`RetryPolicy::deadline_exceeded`] for a start taken by
    /// [`RetryPolicy::round_start`].
    pub(crate) fn past_deadline(&self, start: Option<Instant>) -> bool {
        start.is_some_and(|s| self.deadline_exceeded(s))
    }

    /// The one retry decision, shared by every loop that retries a round:
    /// after the `failed`-th failure (`err`) of a round begun at `start`
    /// (from [`RetryPolicy::round_start`]), `Some(pause)` means back off
    /// that long and try again; `None` means stop and surface `err` — it
    /// is not transient, the attempts are spent, or the round's deadline
    /// has passed. Callers charge the retry to their own counters.
    pub fn pause_before_retry(
        &self,
        failed: u32,
        start: Option<Instant>,
        err: &Error,
    ) -> Option<Duration> {
        let stop = !self.retryable(err) || failed >= self.max_attempts || self.past_deadline(start);
        (!stop).then(|| self.backoff(failed))
    }

    /// Poll `probe` until it returns true, pausing per
    /// [`RetryPolicy::backoff`] between probes (same exponential +
    /// deterministic jitter as sync-round retries — probing starts near
    /// `base_backoff` and decays toward `max_backoff`), for at most
    /// `deadline`. On timeout returns the typed
    /// [`Error::DeadlineExceeded`] naming `waiting_for`, so callers can
    /// distinguish "never converged" from transport failures instead of
    /// decoding a bare `false`.
    ///
    /// The final probe runs exactly at (or just past) the deadline, so a
    /// condition that becomes true during the last pause is still seen.
    pub fn poll_until(
        &self,
        waiting_for: &str,
        deadline: Duration,
        mut probe: impl FnMut() -> bool,
    ) -> Result<()> {
        let start = Instant::now();
        let mut failed = 0u32;
        loop {
            if probe() {
                return Ok(());
            }
            failed = failed.saturating_add(1);
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Err(Error::DeadlineExceeded {
                    waiting_for: waiting_for.to_string(),
                    after: deadline,
                });
            }
            let pause = self.backoff(failed).min(deadline - elapsed);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}

impl Default for RetryPolicy {
    /// A conservative live-network default: 4 attempts, 2 ms → 100 ms
    /// backoff, no deadline.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            round_deadline: None,
            jitter_seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.retryable(&Error::Network("lost".into())));
        assert_eq!(p.backoff(1), Duration::ZERO);
    }

    #[test]
    fn only_transient_errors_retry() {
        let p = RetryPolicy::default();
        assert!(p.retryable(&Error::Network("lost".into())));
        assert!(p.retryable(&Error::CorruptFrame("crc".into())));
        assert!(!p.retryable(&Error::UnknownItem(epidb_common::ItemId(0))));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(16),
            round_deadline: None,
            jitter_seed: 7,
        };
        // Jitter keeps each pause within [0.75, 1.25) of the nominal value.
        let within = |d: Duration, nominal_ms: u64| {
            let n = Duration::from_millis(nominal_ms);
            d >= n * 3 / 4 && d < n * 5 / 4
        };
        assert!(within(p.backoff(1), 2));
        assert!(within(p.backoff(2), 4));
        assert!(within(p.backoff(3), 8));
        assert!(within(p.backoff(4), 16));
        assert!(within(p.backoff(5), 16), "capped at max_backoff");
    }

    #[test]
    fn backoff_zero_failures_is_guarded() {
        // Regression: `backoff(0)` used to compute `failed - 1` and
        // underflow (a debug-build panic). It now uses the first failure's
        // exponent: within jitter of `base_backoff`, never zero.
        let p = RetryPolicy::default();
        let zero = p.backoff(0);
        assert!(zero >= p.base_backoff * 3 / 4);
        assert!(zero < p.base_backoff * 5 / 4);
    }

    #[test]
    fn jitter_stays_in_range_at_max_backoff() {
        // The jitter scaling must keep every pause within [0.75, 1.25) of
        // the nominal capped backoff, across many seeds, at the cap where
        // the nanos arithmetic is largest.
        let cap = Duration::from_millis(100);
        for seed in 0..256u64 {
            let p = RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(2),
                max_backoff: cap,
                round_deadline: None,
                jitter_seed: seed,
            };
            // Failures 7+ saturate the exponential at max_backoff.
            for failed in 7..12 {
                let d = p.backoff(failed);
                assert!(d >= cap * 3 / 4, "seed {seed} failed {failed}: {d:?} below 0.75x");
                assert!(d < cap * 5 / 4, "seed {seed} failed {failed}: {d:?} at/above 1.25x");
            }
        }
    }

    #[test]
    fn giant_backoffs_do_not_wrap() {
        // Regression: the jitter product `(z % 512) * nanos` was computed
        // in u64 and wrapped once the capped backoff exceeded ~2^55 ns
        // (~417 days), collapsing the pause to nearly zero.
        let cap = Duration::from_secs(60 * 60 * 24 * 500); // 500 days
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: cap,
            max_backoff: cap,
            round_deadline: None,
            jitter_seed: 3,
        };
        let d = p.backoff(1);
        assert!(d >= cap * 3 / 4, "wrapped to {d:?}");
        assert!(d < cap * 5 / 4);
    }

    proptest::proptest! {
        /// The jittered pause stays within [0.75, 1.25) of the capped
        /// nominal backoff for arbitrary durations (far past the ~417-day
        /// u64 overflow point), seeds, and failure counts.
        #[test]
        fn backoff_jitter_stays_in_range(
            base_ns in 1u64..u64::MAX,
            cap_ns in 1u64..u64::MAX,
            seed in proptest::prelude::any::<u64>(),
            failed in 0u32..40,
        ) {
            let p = RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_nanos(base_ns),
                max_backoff: Duration::from_nanos(cap_ns),
                round_deadline: None,
                jitter_seed: seed,
            };
            // Recompute the nominal capped backoff the same way, then
            // check the bounds in exact u128 nanosecond arithmetic
            // (allowing the implementation's two integer truncations,
            // each worth < 4 ns, on the low side).
            let exp = p.base_backoff.saturating_mul(1u32 << (failed.max(1) - 1).min(16));
            let capped = exp.min(p.max_backoff.max(p.base_backoff));
            let n = capped.as_nanos();
            let d = p.backoff(failed).as_nanos();
            proptest::prop_assert!(d + 4 >= n * 3 / 4, "{d} ns below 0.75 x {n} ns");
            proptest::prop_assert!(d * 1024 < n * 1280, "{d} ns at/above 1.25 x {n} ns");
        }
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        let q = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        for k in 1..6 {
            assert_eq!(p.backoff(k), q.backoff(k));
        }
    }

    #[test]
    fn attempts_policy_is_pause_free() {
        let p = RetryPolicy::attempts(5);
        assert!(p.retryable(&Error::Network("lost".into())));
        for k in 1..5 {
            assert_eq!(p.backoff(k), Duration::ZERO);
        }
    }

    #[test]
    fn poll_until_sees_late_success_and_types_timeouts() {
        let p = RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut n = 0;
        p.poll_until("counter", Duration::from_secs(5), || {
            n += 1;
            n >= 3
        })
        .unwrap();
        assert_eq!(n, 3);

        let err = p.poll_until("quiescence", Duration::from_millis(2), || false).unwrap_err();
        match err {
            Error::DeadlineExceeded { waiting_for, after } => {
                assert_eq!(waiting_for, "quiescence");
                assert_eq!(after, Duration::from_millis(2));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadline_bounds_a_round() {
        let p = RetryPolicy { round_deadline: Some(Duration::ZERO), ..RetryPolicy::default() };
        assert!(p.deadline_exceeded(Instant::now()));
        let p = RetryPolicy::default();
        assert!(!p.deadline_exceeded(Instant::now()));
    }

    #[test]
    fn the_retry_decision_stops_on_each_bound_and_reads_no_clock_without_a_deadline() {
        let lost = Error::Network("lost".into());
        let p = RetryPolicy::default();
        assert_eq!(p.round_start(), None);
        assert_eq!(p.pause_before_retry(1, None, &lost), Some(p.backoff(1)));
        assert_eq!(p.pause_before_retry(4, None, &lost), None, "attempts spent");
        assert_eq!(
            p.pause_before_retry(1, None, &Error::UnknownItem(epidb_common::ItemId(0))),
            None
        );
        let p = RetryPolicy { round_deadline: Some(Duration::ZERO), ..p };
        assert_eq!(p.pause_before_retry(1, p.round_start(), &lost), None, "deadline passed");
    }
}
