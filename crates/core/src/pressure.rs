//! Pressure-escalation state machine: graceful backpressure under a
//! shared frame budget.
//!
//! A tenant running under a fleet [`svagc_vmem::FramePool`] sees two kinds
//! of memory-pressure input on its allocation path:
//!
//! * a **signal** — the typed [`Pressure`] level the pool reports as the
//!   tenant's committed footprint climbs toward its mutator budget, and
//! * a **denial** — a [`svagc_vmem::VmError::QuotaExceeded`] when a
//!   commit actually crosses the budget.
//!
//! The [`PressureEscalator`] turns both into an ordered ladder of
//! remedies, each strictly cheaper than what follows:
//!
//! ```text
//!   rising signal:   Elevated ──► full GC     Critical ──► full GC
//!   denial ladder:   full GC ──► memmove-only degrade ──► OOM
//! ```
//!
//! The terminal rung is a *tenant-local* [`crate::GcError::OutOfMemory`]
//! — never a panic, never another tenant's frames. Signals are
//! edge-triggered (one remedy per rising edge, re-armed when pressure
//! falls back to nominal); the denial ladder resets whenever an
//! allocation succeeds.

use svagc_vmem::Pressure;

/// A remedy the escalator asks the driver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureAction {
    /// Run a full collection (and trim the heap's committed pages after).
    FullGc,
    /// Force the collector one rung down its degraded-mode ladder
    /// (memmove-only) and collect again: SwapVA side allocations are
    /// avoided and compaction packs the heap as tightly as possible.
    Degrade,
    /// The ladder is exhausted: fail the allocation with a tenant-local
    /// [`crate::GcError::OutOfMemory`].
    GiveUp,
}

impl PressureAction {
    /// Stable label (traces, the OOM error's `last_action`).
    pub fn name(&self) -> &'static str {
        match self {
            PressureAction::FullGc => "full-gc",
            PressureAction::Degrade => "degrade",
            PressureAction::GiveUp => "give-up",
        }
    }
}

/// Counters the escalator accumulates over a run (stats lines, BENCH).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Full GCs triggered by a rising (elevated or critical) signal.
    pub signal_gcs: u64,
    /// Remedies run from the denial ladder (all rungs).
    pub denial_remedies: u64,
    /// Pressure-driven degrade escalations.
    pub degrades: u64,
    /// Terminal out-of-memory verdicts.
    pub ooms: u64,
}

/// The per-tenant escalation state machine.
#[derive(Debug, Clone)]
pub struct PressureEscalator {
    enabled: bool,
    /// Highest signal level already acted on since the last nominal
    /// reading (edge triggering).
    signal_level: u8,
    /// Current rung of the denial ladder (reset on allocation success).
    rung: u8,
    /// Accumulated counters.
    pub stats: PressureStats,
}

impl PressureEscalator {
    /// An escalator; disabled escalators never emit an action.
    pub fn new(enabled: bool) -> PressureEscalator {
        PressureEscalator {
            enabled,
            signal_level: 0,
            rung: 0,
            stats: PressureStats::default(),
        }
    }

    /// Is pressure handling on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Feed a background pressure reading (taken after an allocation).
    /// Returns a proactive full GC on a rising edge to `Elevated` or to
    /// `Critical`. Each level fires once until pressure falls back to
    /// nominal.
    pub fn on_signal(&mut self, p: Pressure) -> Option<PressureAction> {
        if !self.enabled {
            return None;
        }
        match p {
            Pressure::Nominal => {
                self.signal_level = 0;
                None
            }
            Pressure::Elevated => {
                if self.signal_level >= 1 {
                    return None;
                }
                self.signal_level = 1;
                self.stats.signal_gcs += 1;
                Some(PressureAction::FullGc)
            }
            Pressure::Critical => {
                if self.signal_level >= 2 {
                    return None;
                }
                self.signal_level = 2;
                self.stats.signal_gcs += 1;
                Some(PressureAction::FullGc)
            }
            // A fully consumed budget surfaces as a denial on the next
            // commit; the denial ladder owns that path.
            Pressure::Exhausted => None,
        }
    }

    /// A denied (or heap-full) allocation: return the next rung of the
    /// remedy ladder. Call [`PressureEscalator::on_success`] once the
    /// retried allocation lands to re-arm the ladder.
    pub fn on_denial(&mut self) -> PressureAction {
        let action = match self.rung {
            0 => PressureAction::FullGc,
            1 => PressureAction::Degrade,
            _ => PressureAction::GiveUp,
        };
        self.rung = self.rung.saturating_add(1);
        match action {
            PressureAction::GiveUp => self.stats.ooms += 1,
            PressureAction::Degrade => {
                self.stats.denial_remedies += 1;
                self.stats.degrades += 1;
            }
            _ => self.stats.denial_remedies += 1,
        }
        action
    }

    /// The retried allocation succeeded: reset the denial ladder (the
    /// signal edge state is left alone — it re-arms on a nominal reading).
    pub fn on_success(&mut self) {
        self.rung = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denial_ladder_is_ordered_and_terminal() {
        let mut e = PressureEscalator::new(true);
        assert_eq!(e.on_denial(), PressureAction::FullGc);
        assert_eq!(e.on_denial(), PressureAction::Degrade);
        assert_eq!(e.on_denial(), PressureAction::GiveUp);
        // Exhausted stays exhausted until a success re-arms it.
        assert_eq!(e.on_denial(), PressureAction::GiveUp);
        assert_eq!(e.stats.ooms, 2);
        e.on_success();
        assert_eq!(e.on_denial(), PressureAction::FullGc);
    }

    #[test]
    fn signals_are_edge_triggered() {
        let mut e = PressureEscalator::new(true);
        assert_eq!(e.on_signal(Pressure::Elevated), Some(PressureAction::FullGc));
        assert_eq!(e.on_signal(Pressure::Elevated), None, "same edge fires once");
        assert_eq!(e.on_signal(Pressure::Critical), Some(PressureAction::FullGc));
        assert_eq!(e.on_signal(Pressure::Critical), None);
        // Falling back to nominal re-arms both edges.
        assert_eq!(e.on_signal(Pressure::Nominal), None);
        assert_eq!(e.on_signal(Pressure::Critical), Some(PressureAction::FullGc));
        assert_eq!(e.stats.signal_gcs, 3);
    }

    #[test]
    fn critical_subsumes_elevated() {
        let mut e = PressureEscalator::new(true);
        // Jumping straight to critical must not later re-fire elevated.
        assert_eq!(e.on_signal(Pressure::Critical), Some(PressureAction::FullGc));
        assert_eq!(e.on_signal(Pressure::Elevated), None);
        assert_eq!(e.on_signal(Pressure::Exhausted), None, "denials own exhaustion");
    }

    #[test]
    fn disabled_escalator_is_inert_on_signals() {
        let mut e = PressureEscalator::new(false);
        assert!(!e.enabled());
        assert_eq!(e.on_signal(Pressure::Critical), None);
        assert_eq!(e.stats, PressureStats::default());
    }
}
