//! Property tests for the degraded-mode circuit breaker and the undo
//! journal, driven by seeded [`SimRng`] event streams.
//!
//! The degrade tests pit [`DegradeController`] against an independent
//! reference model (a hand-rolled table interpreter) over the full
//! transition matrix and over thousands of random abort/clean traces.
//! The undo-log tests establish the properties abort and recovery lean
//! on: rollback of a random op soup (swaps, rotations, copies, words)
//! restores the exact byte image, a second undo pass after an abort is
//! harmless, and undoing logged intents survives stuttered and partial
//! re-runs.

use svagc_core::{DegradeController, DegradePolicy, DegradedMode};
use svagc_kernel::{
    CoreId, CrashPoint, Kernel, SwapRequest, SwapVaOptions, WalOp, WalPayload, WalScan,
};
use svagc_metrics::{MachineConfig, SimRng};
use svagc_vmem::{AddressSpace, Asid, VirtAddr, PAGE_SIZE};

// ---------------------------------------------------------------------
// Part 1: DegradedMode transition matrix vs a reference model
// ---------------------------------------------------------------------

/// What happened to a cycle, as the controller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Abort,
    Clean,
}

/// Independent reference model of the circuit breaker: mode is a plain
/// level 0..=2, probation a counter. Deliberately written as a lookup
/// over the spec's transition table, not as a port of the production
/// code, so a shared bug has to be made twice to go unnoticed.
#[derive(Debug, Clone)]
struct RefModel {
    enabled: bool,
    probation: u32,
    level: u8,
    cleans: u32,
    escalations: u64,
    recoveries: u64,
}

impl RefModel {
    fn new(policy: DegradePolicy) -> RefModel {
        RefModel {
            enabled: policy.enabled,
            probation: policy.probation.max(1),
            level: 0,
            cleans: 0,
            escalations: 0,
            recoveries: 0,
        }
    }

    /// Returns `(level_before, level_after)` exactly when the mode moved.
    fn step(&mut self, ev: Event) -> Option<(u8, u8)> {
        match ev {
            Event::Abort => {
                self.cleans = 0;
                if !self.enabled || self.level == 2 {
                    return None;
                }
                let from = self.level;
                self.level += 1;
                self.escalations += 1;
                Some((from, self.level))
            }
            Event::Clean => {
                if self.level == 0 {
                    self.cleans = 0;
                    return None;
                }
                self.cleans += 1;
                if self.cleans < self.probation {
                    return None;
                }
                let from = self.level;
                self.level -= 1;
                self.cleans = 0;
                self.recoveries += 1;
                Some((from, self.level))
            }
        }
    }
}

fn drive(c: &mut DegradeController, ev: Event) -> Option<(u8, u8)> {
    let t = match ev {
        Event::Abort => c.on_abort(),
        Event::Clean => c.on_clean(),
    };
    t.map(|t| (t.from.level(), t.to.level()))
}

/// Walk a controller into a given mode via aborts (mode levels are only
/// reachable through the ladder, never settable directly).
fn controller_at(policy: DegradePolicy, level: u8) -> DegradeController {
    let mut c = DegradeController::new(policy);
    for _ in 0..level {
        c.on_abort();
    }
    assert_eq!(c.mode().level(), level, "ladder walk failed");
    c
}

#[test]
fn transition_matrix_is_exact() {
    // (start level, event, probation) -> expected level afterwards. The
    // clean rows use probation 1 so a single event exercises recovery.
    let matrix: &[(u8, Event, u32, u8)] = &[
        (0, Event::Abort, 1, 1),
        (1, Event::Abort, 1, 2),
        (2, Event::Abort, 1, 2), // saturates, abort propagates
        (0, Event::Clean, 1, 0),
        (1, Event::Clean, 1, 0),
        (2, Event::Clean, 1, 1), // one level at a time, never straight home
    ];
    for &(from, ev, probation, want) in matrix {
        let policy = DegradePolicy { enabled: true, probation };
        let mut c = controller_at(policy, from);
        drive(&mut c, ev);
        assert_eq!(
            c.mode().level(),
            want,
            "level {from} on {ev:?} (probation {probation})"
        );
    }
}

#[test]
fn controller_matches_reference_model_on_random_traces() {
    let policies = [
        DegradePolicy::off(),
        DegradePolicy::standard(),
        DegradePolicy { enabled: true, probation: 1 },
        DegradePolicy { enabled: true, probation: 5 },
    ];
    for (pi, policy) in policies.iter().enumerate() {
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(0xD15C0 + seed * 31 + pi as u64);
            let mut c = DegradeController::new(*policy);
            let mut m = RefModel::new(*policy);
            // Aborts are the rare event, as in production.
            let p_abort = 0.1 + 0.3 * rng.gen_f64();
            for step in 0..400 {
                let ev = if rng.gen_bool(p_abort) { Event::Abort } else { Event::Clean };
                let got = drive(&mut c, ev);
                let want = m.step(ev);
                assert_eq!(
                    got, want,
                    "policy {policy:?} seed {seed} step {step}: transition diverged"
                );
                assert_eq!(c.mode().level(), m.level, "mode diverged at step {step}");
            }
            assert_eq!(c.escalations, m.escalations, "policy {policy:?} seed {seed}");
            assert_eq!(c.recoveries, m.recoveries, "policy {policy:?} seed {seed}");
        }
    }
}

#[test]
fn random_traces_preserve_ladder_invariants() {
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from_u64(0xBADD + seed);
        let policy = DegradePolicy {
            enabled: true,
            probation: rng.gen_range(1..6u32),
        };
        let mut c = DegradeController::new(policy);
        let mut cleans_since_change = 0u32;
        for _ in 0..600 {
            let before = c.mode().level();
            let ev = if rng.gen_bool(0.25) { Event::Abort } else { Event::Clean };
            let t = drive(&mut c, ev);
            let after = c.mode().level();
            // Single-step ladder: a transition moves exactly one level,
            // in the direction the event dictates.
            match ev {
                Event::Abort => {
                    assert!(after >= before, "abort lowered severity");
                    assert!(after - before <= 1, "abort jumped levels");
                    cleans_since_change = 0;
                }
                Event::Clean => {
                    assert!(after <= before, "clean raised severity");
                    assert!(before - after <= 1, "clean jumped levels");
                    if before > 0 {
                        cleans_since_change += 1;
                    }
                    if t.is_some() {
                        // A recovery only fires after a full probation of
                        // consecutive cleans at a degraded level.
                        assert!(
                            cleans_since_change >= policy.probation,
                            "recovered after only {cleans_since_change} cleans \
                             (probation {})",
                            policy.probation
                        );
                        cleans_since_change = 0;
                    }
                }
            }
            // A reported transition is never the identity.
            if let Some((f, to)) = t {
                assert_ne!(f, to);
            }
        }
    }
}

#[test]
fn disabled_policy_is_inert_on_random_traces() {
    let mut rng = SimRng::seed_from_u64(0x0FF);
    let mut c = DegradeController::new(DegradePolicy::off());
    for _ in 0..300 {
        let ev = if rng.gen_bool(0.5) { Event::Abort } else { Event::Clean };
        assert!(drive(&mut c, ev).is_none());
        assert_eq!(c.mode(), DegradedMode::Normal);
    }
    assert_eq!((c.escalations, c.recoveries), (0, 0));
}

// ---------------------------------------------------------------------
// Part 2: undo-journal idempotence properties
// ---------------------------------------------------------------------

fn setup(frames: u32) -> (Kernel, AddressSpace) {
    (Kernel::new(MachineConfig::i5_7600(), frames), AddressSpace::new(Asid(1)))
}

fn snapshot(k: &Kernel, s: &AddressSpace, base: VirtAddr, bytes: u64) -> Vec<u8> {
    let mut buf = vec![0u8; bytes as usize];
    k.vmem.read_bytes(s, base, &mut buf).unwrap();
    buf
}

/// Apply a random soup of journaled mutations (disjoint swaps, overlap
/// rotations, memmoves, word scribbles) to an arena and return how many ops were recorded.
fn random_ops(
    k: &mut Kernel,
    s: &mut AddressSpace,
    rng: &mut SimRng,
    arena: VirtAddr,
    pages: u64,
) -> usize {
    let mut applied = 0;
    for _ in 0..rng.gen_range(4..12u32) {
        match rng.gen_range(0..4u32) {
            0 => {
                // Disjoint swap: two non-overlapping page runs.
                let len = rng.gen_range(1..4u64);
                let a = rng.gen_range(0..pages - 2 * len);
                let b = rng.gen_range(a + len..pages - len + 1);
                let req = SwapRequest {
                    a: arena.add_pages(a),
                    b: arena.add_pages(b),
                    pages: len,
                };
                k.swap_va(s, CoreId(0), req, SwapVaOptions::naive()).unwrap();
            }
            1 => {
                // Overlap rotation (Algorithm 2): slide a run down by
                // less than its length.
                let len = rng.gen_range(2..5u64);
                let delta = rng.gen_range(1..len);
                let lo = rng.gen_range(0..pages - len - delta + 1);
                let req = SwapRequest {
                    a: arena.add_pages(lo),
                    b: arena.add_pages(lo + delta),
                    pages: len,
                };
                k.swap_va(s, CoreId(0), req, SwapVaOptions::naive()).unwrap();
            }
            2 => {
                let len = rng.gen_range(64..2 * PAGE_SIZE);
                let src = rng.gen_range(0..pages * PAGE_SIZE - len);
                let dst = rng.gen_range(0..pages * PAGE_SIZE - len);
                k.memmove(s, CoreId(0), arena + src, arena + dst, len).unwrap();
            }
            _ => {
                let at = arena + rng.gen_range(0..pages * PAGE_SIZE / 8) * 8;
                k.write_word(s, CoreId(0), at, rng.next_u64()).unwrap();
            }
        }
        applied += 1;
    }
    applied
}

#[test]
fn random_op_soups_roll_back_exactly_and_a_second_undo_pass_is_harmless() {
    for seed in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0x10DE + seed * 97);
        let (mut k, mut s) = setup(256);
        let pages = 24u64;
        let arena = k.vmem.alloc_region(&mut s, pages).unwrap();
        for i in 0..pages * PAGE_SIZE / 8 {
            k.vmem.write_u64(&s, arena + i * 8, rng.next_u64()).unwrap();
        }
        let before = snapshot(&k, &s, arena, pages * PAGE_SIZE);

        k.wal_cycle_begin(vec![]);
        let applied = random_ops(&mut k, &mut s, &mut rng, arena, pages);
        let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
        assert_eq!(ops, applied, "seed {seed}: one record per mutation");
        let restored = snapshot(&k, &s, arena, pages * PAGE_SIZE);
        assert_eq!(restored, before, "seed {seed}: rollback must be exact");

        // Property: the abort consumed the epoch, so a second undo pass
        // finds nothing to replay and leaves the arena byte-identical.
        // (A wholesale re-run of the *same* records would not be: byte
        // pre-images are virtual, so they would land under the already
        // restored mapping — which is why recovery's hash check, not
        // idempotence, guards a re-run after a completed abort.)
        let (_, ops, _) = k.wal_rollback(&mut s, CoreId(0)).unwrap();
        assert_eq!(ops, 0, "seed {seed}");
        assert_eq!(snapshot(&k, &s, arena, pages * PAGE_SIZE), before, "seed {seed}");
    }
}

/// The logged intents of a scan, in log order.
fn intents_of(scan: &WalScan) -> Vec<WalOp> {
    scan.records
        .iter()
        .filter_map(|r| match r.payload {
            WalPayload::Intent(op) => Some(op),
            _ => None,
        })
        .collect()
}

#[test]
fn wal_undo_survives_stuttered_application_on_arbitrary_soups() {
    // A crash inside recovery can die on an op and re-run that same op
    // on the next attempt. WAL undo records carry absolute pre-images,
    // so the stuttered pass (every undo applied twice back-to-back,
    // under an unchanged mapping) must land on the exact pre-cycle
    // bytes — including for PTE swaps, whose raw-PTE installs are
    // no-ops the second time.
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(0x1DE0 + seed * 131);
        let (mut k, mut s) = setup(256);
        let pages = 16u64;
        let arena = k.vmem.alloc_region(&mut s, pages).unwrap();
        for i in 0..pages * PAGE_SIZE / 8 {
            k.vmem.write_u64(&s, arena + i * 8, rng.next_u64()).unwrap();
        }
        let before = snapshot(&k, &s, arena, pages * PAGE_SIZE);

        k.set_wal_enabled(true);
        k.wal_cycle_begin(vec![]);
        random_ops(&mut k, &mut s, &mut rng, arena, pages);
        // Crash before commit: the epoch stays open; harvest its intents.
        let scan = k.wal_scan();
        let intents = intents_of(&scan);
        assert!(!intents.is_empty(), "seed {seed}: op soup logged no intents");

        let point = CrashPoint::InsideRecovery;
        for op in intents.iter().rev() {
            for _ in 0..2 {
                k.undo(&mut s, std::slice::from_ref(op), &scan.preimages, point).unwrap();
            }
        }
        assert_eq!(snapshot(&k, &s, arena, pages * PAGE_SIZE), before, "seed {seed}");
    }
}

#[test]
fn wal_undo_reruns_wholesale_on_translation_stable_soups() {
    // The double-crash path re-runs the entire undo pass from scratch.
    // For byte and word intents the pre-image addresses translate the
    // same way on every pass, so any number of partial prefixes
    // followed by one full pass converges on the pre-cycle bytes.
    // (Swap-heavy soups interleaved with byte writes to the *same*
    // pages are covered end-to-end by tests/recovery.rs, where the
    // recovery hash check fails closed rather than guessing.)
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(0xF00D + seed * 77);
        let (mut k, mut s) = setup(256);
        let pages = 16u64;
        let arena = k.vmem.alloc_region(&mut s, pages).unwrap();
        for i in 0..pages * PAGE_SIZE / 8 {
            k.vmem.write_u64(&s, arena + i * 8, rng.next_u64()).unwrap();
        }
        let before = snapshot(&k, &s, arena, pages * PAGE_SIZE);

        k.set_wal_enabled(true);
        k.wal_cycle_begin(vec![]);
        for _ in 0..rng.gen_range(6..14u32) {
            if rng.gen_bool(0.5) {
                let len = rng.gen_range(64..2 * PAGE_SIZE);
                let src = rng.gen_range(0..pages * PAGE_SIZE - len);
                let dst = rng.gen_range(0..pages * PAGE_SIZE - len);
                k.memmove(&s, CoreId(0), arena + src, arena + dst, len).unwrap();
            } else {
                let at = arena + rng.gen_range(0..pages * PAGE_SIZE / 8) * 8;
                k.write_word(&s, CoreId(0), at, rng.next_u64()).unwrap();
            }
        }
        let scan = k.wal_scan();
        let intents = intents_of(&scan);
        assert!(!intents.is_empty(), "seed {seed}: op soup logged no intents");

        // Two crashed partial passes of random depth (the newest `depth`
        // intents), then a full pass.
        let point = CrashPoint::InsideRecovery;
        for _ in 0..2 {
            let depth = rng.gen_range(0..intents.len() as u64 + 1) as usize;
            let newest = &intents[intents.len() - depth..];
            k.undo(&mut s, newest, &scan.preimages, point).unwrap();
        }
        k.undo(&mut s, &intents, &scan.preimages, point).unwrap();
        assert_eq!(snapshot(&k, &s, arena, pages * PAGE_SIZE), before, "seed {seed}");
    }
}
