//! Degraded-mode state machine: a circuit breaker over GC mechanisms.
//!
//! When a transactional cycle aborts (an unrecoverable SwapVA fault, or a
//! watchdog deadline), retrying with the exact same configuration would
//! most likely hit the exact same failure. The [`DegradeController`]
//! instead walks a ladder of progressively more conservative
//! configurations:
//!
//! ```text
//!             abort                    abort
//!   Normal ──────────► MemmoveOnly ──────────► SingleThreaded
//!     ▲                    │  ▲                     │
//!     └────────────────────┘  └─────────────────────┘
//!        N clean cycles           N clean cycles
//! ```
//!
//! * **MemmoveOnly** disables SwapVA entirely: every move is a byte copy,
//!   so the faulty syscall path is simply never entered.
//! * **SingleThreaded** additionally collapses the worker pool to one
//!   thread with no work stealing — the most deterministic, least
//!   concurrent shape the collector has.
//!
//! Recovery is probation-based: after [`DegradePolicy::probation`]
//! consecutive clean cycles at a degraded level, the controller steps
//! *one* level back toward [`DegradedMode::Normal`] (a half-open circuit
//! breaker — a new abort during probation re-escalates immediately).

use crate::config::GcConfig;

/// How conservatively the next GC cycle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradedMode {
    /// Full configuration as the user requested it.
    Normal,
    /// SwapVA disabled; all moves are byte copies.
    MemmoveOnly,
    /// MemmoveOnly plus a single GC worker, no work stealing.
    SingleThreaded,
}

impl DegradedMode {
    /// Numeric severity (0 = Normal), used for stats and trace args.
    pub fn level(&self) -> u8 {
        match self {
            DegradedMode::Normal => 0,
            DegradedMode::MemmoveOnly => 1,
            DegradedMode::SingleThreaded => 2,
        }
    }

    /// Human-readable name (CLI output, trace args).
    pub fn name(&self) -> &'static str {
        match self {
            DegradedMode::Normal => "normal",
            DegradedMode::MemmoveOnly => "memmove-only",
            DegradedMode::SingleThreaded => "single-threaded",
        }
    }

    /// The mode at numeric severity `level` (values past the ladder clamp
    /// to [`DegradedMode::SingleThreaded`]).
    pub fn from_level(level: u8) -> DegradedMode {
        match level {
            0 => DegradedMode::Normal,
            1 => DegradedMode::MemmoveOnly,
            _ => DegradedMode::SingleThreaded,
        }
    }

    /// One step more conservative (saturating at the bottom of the ladder).
    fn escalate(self) -> DegradedMode {
        DegradedMode::from_level((self.level() + 1).min(2))
    }

    /// One step back toward Normal.
    fn recover(self) -> DegradedMode {
        DegradedMode::from_level(self.level().saturating_sub(1))
    }
}

/// Policy knobs of the degradation circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// When false, aborts propagate to the caller without any in-cycle
    /// retry or mode escalation (the pre-transactional behavior).
    pub enabled: bool,
    /// Consecutive clean cycles required before stepping one level back
    /// toward Normal.
    pub probation: u32,
}

impl DegradePolicy {
    /// Degradation off: aborted cycles fail outright.
    pub fn off() -> DegradePolicy {
        DegradePolicy {
            enabled: false,
            probation: 2,
        }
    }

    /// Degradation on with a 2-clean-cycle probation.
    pub fn standard() -> DegradePolicy {
        DegradePolicy {
            enabled: true,
            probation: 2,
        }
    }

    /// Parse a CLI policy string: `off`, `standard`, or `standard:N`
    /// (probation of `N` clean cycles). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<DegradePolicy> {
        match s {
            "off" => Some(DegradePolicy::off()),
            "standard" => Some(DegradePolicy::standard()),
            _ => {
                let n = s.strip_prefix("standard:")?.parse::<u32>().ok()?;
                Some(DegradePolicy {
                    enabled: true,
                    probation: n.max(1),
                })
            }
        }
    }
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy::off()
    }
}

/// A mode transition reported by the controller (for tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// Mode before the transition.
    pub from: DegradedMode,
    /// Mode after the transition.
    pub to: DegradedMode,
}

/// The live circuit-breaker state carried across GC cycles.
#[derive(Debug, Clone)]
pub struct DegradeController {
    policy: DegradePolicy,
    mode: DegradedMode,
    clean_cycles: u32,
    /// Total escalations (aborts that raised the level).
    pub escalations: u64,
    /// Total recoveries (probations served, level lowered).
    pub recoveries: u64,
}

impl DegradeController {
    /// A controller starting at [`DegradedMode::Normal`].
    pub fn new(policy: DegradePolicy) -> DegradeController {
        DegradeController {
            policy,
            mode: DegradedMode::Normal,
            clean_cycles: 0,
            escalations: 0,
            recoveries: 0,
        }
    }

    /// The mode the next cycle should run in.
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// The active policy.
    pub fn policy(&self) -> DegradePolicy {
        self.policy
    }

    /// An aborted cycle: escalate one level (when enabled) and restart
    /// probation. Returns the transition if the mode actually changed —
    /// `None` means the ladder is exhausted and the abort should propagate.
    pub fn on_abort(&mut self) -> Option<ModeTransition> {
        self.clean_cycles = 0;
        if !self.policy.enabled {
            return None;
        }
        let from = self.mode;
        let to = from.escalate();
        if to == from {
            return None;
        }
        self.mode = to;
        self.escalations += 1;
        Some(ModeTransition { from, to })
    }

    /// Pressure-driven escalation (the pressure ladder's memmove-only
    /// rung): unconditionally step one level more conservative, even when
    /// the abort-driven policy is disabled — memory pressure is an
    /// explicit request, not a speculative retry. Returns `None` only
    /// when the ladder is already at its last rung.
    pub fn force_escalate(&mut self) -> Option<ModeTransition> {
        self.clean_cycles = 0;
        let from = self.mode;
        let to = from.escalate();
        if to == from {
            return None;
        }
        self.mode = to;
        self.escalations += 1;
        Some(ModeTransition { from, to })
    }

    /// A committed cycle: count toward probation; after
    /// [`DegradePolicy::probation`] consecutive clean cycles, step one
    /// level back toward Normal. Returns the recovery transition, if any.
    pub fn on_clean(&mut self) -> Option<ModeTransition> {
        if self.mode == DegradedMode::Normal {
            self.clean_cycles = 0;
            return None;
        }
        self.clean_cycles += 1;
        if self.clean_cycles < self.policy.probation.max(1) {
            return None;
        }
        let from = self.mode;
        let to = from.recover();
        self.mode = to;
        self.clean_cycles = 0;
        self.recoveries += 1;
        Some(ModeTransition { from, to })
    }

    /// The configuration the current mode dictates, derived from the
    /// user's requested `cfg` — for the full collector and the scavenger
    /// alike.
    pub fn apply(&self, cfg: &GcConfig) -> GcConfig {
        match self.mode {
            DegradedMode::Normal => *cfg,
            DegradedMode::MemmoveOnly => cfg.with_swapva(false).with_aggregation(None),
            DegradedMode::SingleThreaded => {
                let mut c = cfg.with_swapva(false).with_aggregation(None);
                c.gc_threads = 1;
                c.compact_threads = Some(1);
                c.work_stealing = false;
                c
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_and_saturates() {
        let mut c = DegradeController::new(DegradePolicy::standard());
        assert_eq!(c.mode(), DegradedMode::Normal);
        let t = c.on_abort().unwrap();
        assert_eq!((t.from, t.to), (DegradedMode::Normal, DegradedMode::MemmoveOnly));
        let t = c.on_abort().unwrap();
        assert_eq!(t.to, DegradedMode::SingleThreaded);
        assert!(c.on_abort().is_none(), "ladder exhausted");
        assert_eq!(c.mode(), DegradedMode::SingleThreaded);
        assert_eq!(c.escalations, 2);
    }

    #[test]
    fn disabled_policy_never_escalates() {
        let mut c = DegradeController::new(DegradePolicy::off());
        assert!(c.on_abort().is_none());
        assert_eq!(c.mode(), DegradedMode::Normal);
    }

    #[test]
    fn probation_recovers_one_level_at_a_time() {
        let mut c = DegradeController::new(DegradePolicy::standard());
        c.on_abort();
        c.on_abort(); // SingleThreaded
        assert!(c.on_clean().is_none(), "1 of 2 clean cycles");
        let t = c.on_clean().unwrap();
        assert_eq!(t.to, DegradedMode::MemmoveOnly);
        assert!(c.on_clean().is_none());
        let t = c.on_clean().unwrap();
        assert_eq!(t.to, DegradedMode::Normal);
        assert_eq!(c.recoveries, 2);
        assert!(c.on_clean().is_none(), "Normal cycles are not transitions");
    }

    #[test]
    fn abort_during_probation_re_escalates() {
        let mut c = DegradeController::new(DegradePolicy::standard());
        c.on_abort(); // MemmoveOnly
        c.on_clean(); // 1 of 2
        let t = c.on_abort().unwrap(); // probation reset AND escalation
        assert_eq!(t.to, DegradedMode::SingleThreaded);
        c.on_clean();
        assert_eq!(c.mode(), DegradedMode::SingleThreaded, "counter restarted");
    }

    #[test]
    fn apply_shapes_the_config() {
        let base = GcConfig::svagc(8);
        let mut c = DegradeController::new(DegradePolicy::standard());
        assert!(c.apply(&base).use_swapva);
        c.on_abort();
        let m = c.apply(&base);
        assert!(!m.use_swapva && m.aggregation.is_none());
        assert_eq!(m.gc_threads, 8, "MemmoveOnly keeps parallelism");
        c.on_abort();
        let s = c.apply(&base);
        assert!(!s.use_swapva && s.aggregation.is_none());
        assert_eq!(s.gc_threads, 1);
        assert_eq!(s.compact_threads, Some(1));
        assert!(!s.work_stealing);
    }

    #[test]
    fn apply_minor_shapes_the_config() {
        // The scavenger's configuration goes through the same `apply`.
        let base = GcConfig::svagc(4);
        let mut c = DegradeController::new(DegradePolicy::standard());
        c.on_abort();
        let m = c.apply(&base);
        assert!(!m.use_swapva && m.aggregation.is_none());
        assert_eq!(m.gc_threads, 4);
        c.on_abort();
        assert_eq!(c.apply(&base).gc_threads, 1);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(DegradePolicy::parse("off"), Some(DegradePolicy::off()));
        assert_eq!(DegradePolicy::parse("standard"), Some(DegradePolicy::standard()));
        assert_eq!(
            DegradePolicy::parse("standard:5"),
            Some(DegradePolicy {
                enabled: true,
                probation: 5
            })
        );
        assert_eq!(DegradePolicy::parse("standard:0").unwrap().probation, 1);
        assert!(DegradePolicy::parse("bogus").is_none());
    }
}
