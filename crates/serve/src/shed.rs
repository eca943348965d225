//! Adaptive load shedding: demote traffic to the degraded tier under
//! sustained queue pressure, promote back on recovery.
//!
//! # The signal
//!
//! The controller watches the **queue wait** of rows as workers take them
//! (enqueue → take, the time a request spent waiting for a worker, not the
//! model call itself). A worker feeds the wait at take time, before any
//! injected delay, and by this rule:
//!
//! * the take **leaves rows behind** in the queue (a backlog): each taken
//!   row's real wait is fed;
//! * the take **empties** the queue: each taken row is fed as zero. Such
//!   a row waited only for a busy or stalled worker, not behind other
//!   rows; the front-end's reply timeout already covers that case, and
//!   the zeros keep promotion evaluating at low traffic.
//!
//! So only a standing backlog — arrivals outrunning the pool — moves the
//! p95. When the p95 of a sliding window of waits crosses `demote_p95`,
//! the server stops queueing new requests and answers them inline through
//! the §3.2 quantised binary-query path — the paper's robustness tier
//! repurposed as an overload response: cheap enough to absorb traffic the
//! full-precision pipeline cannot.
//!
//! While demoted, every `PROBE_EVERY`-th request is still sent through the
//! full pipeline. Those probes keep feeding wait samples, so the
//! controller can observe recovery and promote once the probe p95 falls
//! below `promote_p95` (a lower threshold — hysteresis, so the tier does
//! not flap around the boundary).
//!
//! The window keeps two running counts, samples above each threshold, so
//! each observation costs O(1): with `rank = ceil(0.95·n) − 1`, "p95 > T"
//! holds exactly when at least `n − rank` samples exceed `T`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One in `PROBE_EVERY` requests takes the full path while demoted.
const PROBE_EVERY: u64 = 16;

/// Thresholds for the adaptive shed controller.
#[derive(Debug, Clone)]
pub struct ShedConfig {
    /// Demote to the degraded tier when windowed p95 queue wait exceeds
    /// this.
    pub demote_p95: Duration,
    /// Promote back when the probe p95 falls below this. Clamped to at
    /// most `demote_p95` so the hysteresis band can never invert.
    pub promote_p95: Duration,
    /// Sliding-window length in samples.
    pub window: usize,
}

impl Default for ShedConfig {
    fn default() -> Self {
        Self {
            demote_p95: Duration::from_millis(50),
            promote_p95: Duration::from_millis(25),
            window: 256,
        }
    }
}

/// Adaptive queue-wait controller deciding full-precision vs. degraded
/// tier (see the module docs).
#[derive(Debug)]
pub struct ShedController {
    cfg: ShedConfig,
    waits: Mutex<Window>,
    degraded: AtomicBool,
    probe_counter: AtomicU64,
    demotions: AtomicU64,
    promotions: AtomicU64,
}

impl ShedController {
    /// Builds a controller; `window` is clamped to at least 8 samples so a
    /// single outlier can never flip the tier.
    pub fn new(cfg: ShedConfig) -> Self {
        let cfg = ShedConfig {
            window: cfg.window.max(8),
            promote_p95: cfg.promote_p95.min(cfg.demote_p95),
            ..cfg
        };
        Self {
            cfg,
            waits: Mutex::new(Window::default()),
            degraded: AtomicBool::new(false),
            probe_counter: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        }
    }

    /// Records one queue wait (see the module docs for what a worker
    /// feeds) and re-evaluates the tier. Called for every row a worker
    /// takes, including probes while demoted.
    pub fn observe_wait(&self, wait: Duration) {
        let us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
        let demote_us = self.cfg.demote_p95.as_micros() as u64;
        let promote_us = self.cfg.promote_p95.as_micros() as u64;
        let mut w = crate::lock_unpoisoned(&self.waits);
        if w.samples.len() == self.cfg.window {
            if let Some(old) = w.samples.pop_front() {
                w.above_demote -= usize::from(old > demote_us);
                w.above_promote -= usize::from(old > promote_us);
            }
        }
        w.samples.push_back(us);
        w.above_demote += usize::from(us > demote_us);
        w.above_promote += usize::from(us > promote_us);
        // Re-evaluate only on a reasonably full window: demotion is a
        // claim about sustained pressure, not one slow take.
        let n = w.samples.len();
        if n < self.cfg.window / 2 {
            return;
        }
        // The sorted window's p95 sample sits at `rank`; it exceeds a
        // threshold exactly when the `n - rank` largest samples all do.
        let rank = ((0.95 * n as f64).ceil() as usize).max(1) - 1;
        let at_or_above_rank = n - rank.min(n - 1);
        // The tier only changes here, under the window's lock.
        if self.degraded.load(Ordering::Relaxed) {
            if w.above_promote < at_or_above_rank {
                self.degraded.store(false, Ordering::Relaxed);
                self.promotions.fetch_add(1, Ordering::Relaxed);
                // Waits measured under overload describe the regime we
                // just left; start the next evaluation fresh.
                *w = Window::default();
            }
        } else if w.above_demote >= at_or_above_rank {
            self.degraded.store(true, Ordering::Relaxed);
            self.demotions.fetch_add(1, Ordering::Relaxed);
            *w = Window::default();
        }
    }

    /// Per-request routing decision. `false`: take the full-precision
    /// pipeline. `true`: answer inline through the degraded tier. While
    /// demoted, every `PROBE_EVERY`-th call returns `false` so recovery
    /// stays observable.
    pub fn should_degrade(&self) -> bool {
        if !self.degraded.load(Ordering::Relaxed) {
            return false;
        }
        !self
            .probe_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(PROBE_EVERY)
    }

    /// Whether the controller currently routes traffic to the degraded
    /// tier.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Times the controller demoted to the degraded tier.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Times the controller promoted back to the full tier.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }
}

/// Sliding window of recent queue waits in µs, with running counts of
/// the samples above each threshold.
#[derive(Debug, Default)]
struct Window {
    samples: VecDeque<u64>,
    above_demote: usize,
    above_promote: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShedController {
        ShedController::new(ShedConfig {
            demote_p95: Duration::from_millis(10),
            promote_p95: Duration::from_millis(2),
            window: 8,
        })
    }

    #[test]
    fn starts_in_full_tier() {
        let c = small();
        assert!(!c.is_degraded());
        assert!(!c.should_degrade());
        assert_eq!(c.demotions(), 0);
    }

    #[test]
    fn sustained_pressure_demotes_and_recovery_promotes() {
        let c = small();
        for _ in 0..8 {
            c.observe_wait(Duration::from_millis(50));
        }
        assert!(c.is_degraded(), "p95 far above threshold must demote");
        assert_eq!(c.demotions(), 1);

        // Recovery: fast probe waits promote back.
        for _ in 0..8 {
            c.observe_wait(Duration::from_micros(100));
        }
        assert!(!c.is_degraded());
        assert_eq!(c.promotions(), 1);
    }

    #[test]
    fn hysteresis_band_does_not_flap() {
        let c = small();
        for _ in 0..8 {
            c.observe_wait(Duration::from_millis(50));
        }
        assert!(c.is_degraded());
        // Waits between promote (2ms) and demote (10ms) thresholds: stay
        // demoted — the band absorbs the boundary regime.
        for _ in 0..32 {
            c.observe_wait(Duration::from_millis(5));
        }
        assert!(c.is_degraded());
        assert_eq!(c.demotions(), 1);
        assert_eq!(c.promotions(), 0);
    }

    #[test]
    fn below_half_window_never_evaluates() {
        // Demotion is a claim about sustained pressure: even arbitrarily
        // slow waits cannot flip the tier before half a window of
        // evidence has accumulated.
        let c = small();
        c.observe_wait(Duration::from_secs(10));
        c.observe_wait(Duration::from_secs(10));
        c.observe_wait(Duration::from_secs(10));
        assert!(!c.is_degraded());
        assert_eq!(c.demotions(), 0);
    }

    #[test]
    fn probes_pass_through_while_demoted() {
        let c = small();
        for _ in 0..8 {
            c.observe_wait(Duration::from_millis(50));
        }
        assert!(c.is_degraded());
        let full: usize = (0..64).filter(|_| !c.should_degrade()).count();
        assert_eq!(full, 4, "one probe per {PROBE_EVERY} requests");
    }

    #[test]
    fn inverted_thresholds_are_clamped() {
        let c = ShedController::new(ShedConfig {
            demote_p95: Duration::from_millis(1),
            promote_p95: Duration::from_millis(100),
            window: 8,
        });
        for _ in 0..8 {
            c.observe_wait(Duration::from_millis(50));
        }
        assert!(c.is_degraded());
        // With promote clamped to demote, 50ms waits can never promote.
        for _ in 0..8 {
            c.observe_wait(Duration::from_millis(50));
        }
        assert!(c.is_degraded());
    }

    /// p-th percentile of `samples` (unsorted ring contents), in µs: the
    /// sort the running counts replaced.
    fn percentile(samples: &VecDeque<u64>, p: f64) -> u64 {
        let mut v: Vec<u64> = samples.iter().copied().collect();
        v.sort_unstable();
        if v.is_empty() {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1) - 1;
        v[rank.min(v.len() - 1)]
    }

    /// The sort-based controller the running counts replaced, kept as the
    /// reference its decisions must match sample for sample.
    struct Reference {
        cfg: ShedConfig,
        waits: VecDeque<u64>,
        degraded: bool,
        demotions: u64,
        promotions: u64,
    }

    impl Reference {
        fn observe(&mut self, us: u64) {
            if self.waits.len() == self.cfg.window {
                self.waits.pop_front();
            }
            self.waits.push_back(us);
            if self.waits.len() < self.cfg.window / 2 {
                return;
            }
            let p95 = percentile(&self.waits, 0.95);
            if self.degraded {
                if p95 <= self.cfg.promote_p95.as_micros() as u64 {
                    self.degraded = false;
                    self.promotions += 1;
                    self.waits.clear();
                }
            } else if p95 > self.cfg.demote_p95.as_micros() as u64 {
                self.degraded = true;
                self.demotions += 1;
                self.waits.clear();
            }
        }
    }

    #[test]
    fn running_counts_decide_exactly_like_the_sorted_window() {
        let mut state: u64 = 0x5EED_0F5E;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound.max(1)
        };
        let mut flips = 0;
        for case in 0..120 {
            let demote = 1_000 + next(5_000);
            let c = ShedController::new(ShedConfig {
                demote_p95: Duration::from_micros(demote),
                // Sometimes above `demote`, to exercise the clamp.
                promote_p95: Duration::from_micros(next(demote * 5 / 4)),
                window: next(48) as usize,
            });
            let mut r = Reference {
                cfg: c.cfg.clone(),
                waits: VecDeque::new(),
                degraded: false,
                demotions: 0,
                promotions: 0,
            };
            let promote = c.cfg.promote_p95.as_micros() as u64;
            for i in 0..1_500 {
                // Alternate pressure and calm phases so both transitions
                // fire, with values at and around both thresholds.
                let pressure = (i / (20 + case % 40)) % 2 == 0;
                let us = match next(8) {
                    0 => demote,
                    1 => promote,
                    2 => demote + 1,
                    3 => promote.saturating_sub(1),
                    _ if pressure => demote + next(20_000),
                    _ => next(promote + 1),
                };
                c.observe_wait(Duration::from_micros(us));
                r.observe(us);
                assert_eq!(
                    (c.is_degraded(), c.demotions(), c.promotions()),
                    (r.degraded, r.demotions, r.promotions),
                    "case {case}, sample {i}, wait {us}µs"
                );
            }
            flips += r.demotions + r.promotions;
        }
        assert!(flips > 100, "the sequences must exercise both transitions");
    }
}
