//! Deterministic virtual-time simulation of parallel GC workers.
//!
//! GC phases are executed host-sequentially (the functional side effects on
//! simulated memory happen in heap order, which is what makes sliding
//! compaction safe), while *time* is attributed to N simulated workers:
//!
//! * [`WorkerPool::dispatch`] — greedy least-loaded assignment, the
//!   classic makespan model of a work-stealing pool (SVAGC, ParallelGC).
//! * [`WorkerPool::dispatch_static`] — round-robin-by-chunk assignment
//!   modeling a statically partitioned phase with *no* stealing
//!   (Shenandoah's copy phase, per §V-A), which suffers under skew.
//!
//! The phase cost is the [`WorkerPool::makespan`]: the pause ends when the
//! slowest worker finishes. Determinism is total — same inputs, same
//! simulated times, bit for bit.

use svagc_kernel::CoreId;
use svagc_metrics::Cycles;

/// Where a work packet lands when placed on a [`WorkerPool`]: the chosen
/// worker, the virtual time execution begins, and whether the packet was
/// stolen off its owner's deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Worker the packet executes on.
    pub worker: usize,
    /// Virtual time the packet starts: `max(worker clock, ready time)`,
    /// plus the steal charge when executed off-owner.
    pub start: Cycles,
    /// True when the executing worker is not the packet's owner.
    pub stolen: bool,
}

/// Saturating clock charge shared by every dispatch path. Worker clocks
/// must never wrap — a wrapped clock reports a tiny makespan, which an
/// adversarial deadline/cost config could otherwise exploit. The first
/// saturation is tolerated (the clock clamps at `u64::MAX`, keeping the
/// makespan huge); charging *more* onto an already-saturated clock trips
/// the debug assert because it means the simulation has left the regime
/// where virtual time is meaningful.
#[inline]
fn charge(load: &mut u64, cost: Cycles) {
    debug_assert!(
        *load < u64::MAX || cost.get() == 0,
        "worker clock already saturated at u64::MAX; cost {} would be lost",
        cost.get()
    );
    *load = load.saturating_add(cost.get());
}

/// A pool of simulated GC workers with per-worker virtual clocks.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    loads: Vec<u64>,
    /// Next chunk index for static dispatch.
    rr: usize,
    /// First core this pool's workers are pinned to (worker `w` runs on
    /// core `(base + w) % cores`). Distinct collectors sharing a machine
    /// (multi-JVM) use disjoint bases so their pinned cores never collide.
    base: usize,
}

impl WorkerPool {
    /// A pool of `n` workers (n ≥ 1).
    ///
    /// ```
    /// use svagc_core::WorkerPool;
    /// use svagc_metrics::Cycles;
    ///
    /// let mut pool = WorkerPool::new(4);
    /// for cost in [100, 100, 100, 100, 50, 50] {
    ///     pool.dispatch(Cycles(cost)); // least-loaded worker takes it
    /// }
    /// assert_eq!(pool.makespan(), Cycles(150)); // the slowest worker
    /// ```
    pub fn new(n: usize) -> WorkerPool {
        WorkerPool::with_core_base(n, 0)
    }

    /// A pool of `n` workers whose core pinning starts at `core_base`
    /// (worker `w` → core `(core_base + w) % cores`). Multi-tenant runs
    /// give each collector its own base so tenants' pinned cores are
    /// disjoint whenever the machine has enough cores.
    pub fn with_core_base(n: usize, core_base: usize) -> WorkerPool {
        assert!(n >= 1, "at least one GC worker");
        WorkerPool {
            loads: vec![0; n],
            rr: 0,
            base: core_base,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when the pool has no workers. The constructor rejects `n == 0`,
    /// so every constructed pool returns `false` — the method exists for
    /// the `len`/`is_empty` convention and must stay consistent with
    /// [`WorkerPool::len`] rather than hardcoding that invariant.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Worker `w`'s current virtual clock (its position within the phase).
    pub fn load(&self, w: usize) -> Cycles {
        Cycles(self.loads[w])
    }

    /// The least-loaded worker — where a work-stealing pool's next item
    /// lands. Ties break to the lowest index (determinism). A plain scan:
    /// a `min_by_key` form cost the barrier engine ~5% of host time.
    pub fn least_loaded(&self) -> usize {
        let mut best = 0;
        for (i, &l) in self.loads.iter().enumerate() {
            if l < self.loads[best] {
                best = i;
            }
        }
        best
    }

    /// Charge `cost` to the least-loaded worker; returns who got it.
    pub fn dispatch(&mut self, cost: Cycles) -> usize {
        let w = self.least_loaded();
        charge(&mut self.loads[w], cost);
        w
    }

    /// Charge `cost` to worker `w` explicitly.
    pub fn dispatch_to(&mut self, w: usize, cost: Cycles) {
        charge(&mut self.loads[w], cost);
    }

    /// Static (non-stealing) dispatch: items are assigned to workers in
    /// fixed round-robin order regardless of load.
    ///
    /// The round-robin cursor persists across [`WorkerPool::barrier`] (a
    /// barrier synchronizes *clocks*, not work assignment), so distinct
    /// phases each run on a fresh pool (see [`crate::packets`]) and a
    /// phase's schedule depends only on its own inputs.
    pub fn dispatch_static(&mut self, cost: Cycles) -> usize {
        let w = self.rr % self.loads.len();
        self.rr += 1;
        charge(&mut self.loads[w], cost);
        w
    }

    /// The core a worker runs on: worker `w` is pinned to core
    /// `(core_base + w) mod cores`, so collectors constructed with
    /// disjoint bases (multi-JVM tenants) pin to disjoint cores whenever
    /// `cores >= tenants * threads`.
    pub fn core_of(&self, worker: usize, total_cores: usize) -> CoreId {
        CoreId((self.base + worker) % total_cores)
    }

    /// Pick where a work packet executes and when it starts, without
    /// charging anything yet (the packet's cost is only known after its
    /// functional effects run; callers follow up with
    /// [`WorkerPool::commit_packet`]).
    ///
    /// The packet becomes runnable at virtual time `ready` (the completion
    /// of its dependencies) and lives on `owner`'s deque. Every worker is
    /// a candidate: worker `w` could start it at `max(load(w), ready)`,
    /// plus `steal_cost` when `w != owner` (popping a remote deque). The
    /// earliest start wins; ties break owner-first, then lowest index —
    /// fully deterministic.
    pub fn place_packet(&self, owner: usize, ready: Cycles, steal_cost: Cycles) -> Placement {
        let (worker, start, stolen) = self
            .loads
            .iter()
            .enumerate()
            .map(|(w, &l)| {
                let stolen = w != owner;
                let base = l.max(ready.get());
                let start = if stolen {
                    base.saturating_add(steal_cost.get())
                } else {
                    base
                };
                (w, start, stolen)
            })
            .min_by_key(|&(w, start, stolen)| (start, stolen, w))
            .expect("WorkerPool invariant: constructed with at least one worker");
        Placement {
            worker,
            start: Cycles(start),
            stolen,
        }
    }

    /// Complete a placed packet: advance the executing worker's clock to
    /// `start + cost`. The clock may jump forward past its previous value
    /// even for `cost == 0` — that is the worker idling until the packet's
    /// dependencies resolved.
    pub fn commit_packet(&mut self, p: Placement, cost: Cycles) {
        let end = p.start.get().saturating_add(cost.get());
        debug_assert!(
            end >= self.loads[p.worker],
            "packet commit must move the worker clock forward"
        );
        self.loads[p.worker] = end;
    }

    /// Phase wall time: the slowest worker's clock.
    pub fn makespan(&self) -> Cycles {
        Cycles(self.loads.iter().copied().max().unwrap_or(0))
    }

    /// Sum of all work (for utilization statistics).
    pub fn total_work(&self) -> Cycles {
        Cycles(self.loads.iter().sum())
    }

    /// Charge `cost` to *every* worker (a barrier-side operation like a
    /// per-worker local flush).
    pub fn charge_all(&mut self, cost: Cycles) {
        for l in &mut self.loads {
            charge(l, cost);
        }
    }

    /// Synchronize all workers to the makespan (phase barrier), returning
    /// the barrier time. Does *not* touch the static-dispatch cursor.
    pub fn barrier(&mut self) -> Cycles {
        let m = self.makespan().get();
        for l in &mut self.loads {
            *l = m;
        }
        Cycles(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_dispatch_balances() {
        let mut p = WorkerPool::new(4);
        // 8 equal items over 4 workers: perfect balance.
        for _ in 0..8 {
            p.dispatch(Cycles(10));
        }
        assert_eq!(p.makespan(), Cycles(20));
        assert_eq!(p.total_work(), Cycles(80));
    }

    #[test]
    fn greedy_handles_skew_like_stealing() {
        let mut p = WorkerPool::new(2);
        // One huge item then many small: the other worker absorbs the rest.
        p.dispatch(Cycles(100));
        for _ in 0..10 {
            p.dispatch(Cycles(10));
        }
        assert_eq!(p.makespan(), Cycles(100));
    }

    #[test]
    fn static_dispatch_suffers_skew() {
        let mut greedy = WorkerPool::new(2);
        let mut fixed = WorkerPool::new(2);
        // Alternating big/small items: round-robin puts all bigs on one
        // worker half the time... here all bigs land on worker 0.
        for i in 0..10 {
            let c = if i % 2 == 0 { Cycles(100) } else { Cycles(1) };
            greedy.dispatch(c);
            fixed.dispatch_static(c);
        }
        assert!(fixed.makespan().get() > greedy.makespan().get());
        assert_eq!(fixed.makespan(), Cycles(500));
    }

    #[test]
    fn single_worker_serializes() {
        let mut p = WorkerPool::new(1);
        for _ in 0..5 {
            p.dispatch(Cycles(7));
        }
        assert_eq!(p.makespan(), Cycles(35));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut p = WorkerPool::new(3);
        p.dispatch_to(0, Cycles(5));
        p.dispatch_to(1, Cycles(50));
        let b = p.barrier();
        assert_eq!(b, Cycles(50));
        // After the barrier everyone continues from 50.
        p.dispatch(Cycles(1));
        assert_eq!(p.makespan(), Cycles(51));
    }

    #[test]
    fn charge_all_models_per_worker_overhead() {
        let mut p = WorkerPool::new(4);
        p.charge_all(Cycles(10));
        assert_eq!(p.makespan(), Cycles(10));
        assert_eq!(p.total_work(), Cycles(40));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut a = WorkerPool::new(3);
        let mut b = WorkerPool::new(3);
        for i in 0..100 {
            let c = Cycles(1 + (i * 7919) % 13);
            assert_eq!(a.dispatch(c), b.dispatch(c));
        }
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn core_mapping_wraps() {
        let p = WorkerPool::new(8);
        assert_eq!(p.core_of(0, 4), CoreId(0));
        assert_eq!(p.core_of(5, 4), CoreId(1));
        // With a base, pinning shifts and still wraps.
        let q = WorkerPool::with_core_base(8, 3);
        assert_eq!(q.core_of(0, 4), CoreId(3));
        assert_eq!(q.core_of(1, 4), CoreId(0));
    }

    #[test]
    fn concurrent_collectors_pin_disjoint_cores() {
        // Regression: `core_of` used to ignore `&self`, pinning worker i of
        // *every* collector to core `i % cores` — multi-JVM tenants'
        // worker 0 all collided on core 0. With per-collector bases and
        // cores >= 2 * threads the two tenants' pinned sets are disjoint.
        let threads = 4;
        let cores = 2 * threads;
        let a = WorkerPool::with_core_base(threads, 0);
        let b = WorkerPool::with_core_base(threads, threads);
        let pins_a: Vec<_> = (0..threads).map(|w| a.core_of(w, cores)).collect();
        let pins_b: Vec<_> = (0..threads).map(|w| b.core_of(w, cores)).collect();
        for ca in &pins_a {
            assert!(
                !pins_b.contains(ca),
                "tenants share pinned core {ca:?}: {pins_a:?} vs {pins_b:?}"
            );
        }
    }

    #[test]
    fn clock_charges_saturate_instead_of_wrapping() {
        // Regression: unchecked `+=` let an adversarial cost wrap a worker
        // clock back to ~0 and report a tiny makespan. All four charge
        // paths must clamp at u64::MAX instead.
        let near_max = Cycles(u64::MAX - 50);
        let mut p = WorkerPool::new(2);
        p.dispatch_to(0, near_max);
        p.dispatch_to(1, near_max);
        // One more saturating charge per path; none may wrap.
        p.dispatch_to(0, Cycles(100));
        assert_eq!(p.load(0), Cycles(u64::MAX));
        let mut p = WorkerPool::new(2);
        p.charge_all(near_max);
        p.charge_all(Cycles(100));
        assert_eq!(p.makespan(), Cycles(u64::MAX), "charge_all clamps");
        let mut p = WorkerPool::new(2);
        p.dispatch(near_max);
        p.dispatch(near_max);
        assert_eq!(p.dispatch(Cycles(100)), 0, "ties still break low");
        assert_eq!(p.load(0), Cycles(u64::MAX));
        let mut p = WorkerPool::new(2);
        p.dispatch_static(near_max);
        p.dispatch_static(near_max);
        p.dispatch_static(Cycles(100));
        assert_eq!(p.makespan(), Cycles(u64::MAX), "static dispatch clamps");
    }

    #[test]
    fn place_packet_prefers_owner_on_ties() {
        let p = WorkerPool::new(3);
        // All clocks zero: owner 1 starts at 0; stealing would cost 5.
        let pl = p.place_packet(1, Cycles::ZERO, Cycles(5));
        assert_eq!(pl.worker, 1);
        assert_eq!(pl.start, Cycles::ZERO);
        assert!(!pl.stolen);
    }

    #[test]
    fn place_packet_steals_when_profitable() {
        let mut p = WorkerPool::new(2);
        p.dispatch_to(0, Cycles(100)); // owner 0 is busy until 100
        let pl = p.place_packet(0, Cycles::ZERO, Cycles(5));
        assert_eq!(pl.worker, 1, "idle worker 1 steals");
        assert_eq!(pl.start, Cycles(5), "steal charge delays the start");
        assert!(pl.stolen);
        // A steal cost above the owner's backlog keeps the packet home.
        let pl = p.place_packet(0, Cycles::ZERO, Cycles(200));
        assert_eq!(pl.worker, 0);
        assert!(!pl.stolen);
    }

    #[test]
    fn commit_packet_advances_clock_past_idle_gaps() {
        let mut p = WorkerPool::new(2);
        // A packet only ready at t=40 on an idle worker: the worker waits.
        let pl = p.place_packet(0, Cycles(40), Cycles(5));
        assert_eq!(pl.worker, 0);
        assert_eq!(pl.start, Cycles(40));
        p.commit_packet(pl, Cycles(10));
        assert_eq!(p.load(0), Cycles(50), "idle gap counts toward the clock");
        assert_eq!(p.load(1), Cycles::ZERO);
    }

    #[test]
    fn is_empty_agrees_with_len() {
        // Regression: `is_empty` used to hardcode `false` with a doc
        // comment claiming it meant "exactly one worker".
        for n in 1..5 {
            let p = WorkerPool::new(n);
            assert_eq!(p.len(), n);
            assert!(!p.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one GC worker")]
    fn zero_worker_pool_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn load_exposes_per_worker_clock() {
        let mut p = WorkerPool::new(3);
        p.dispatch_to(1, Cycles(42));
        assert_eq!(p.load(0), Cycles::ZERO);
        assert_eq!(p.load(1), Cycles(42));
    }

    #[test]
    fn barrier_preserves_static_cursor() {
        // Documented behavior: a barrier is mid-phase synchronization, so
        // round-robin placement continues where it left off.
        let mut p = WorkerPool::new(2);
        assert_eq!(p.dispatch_static(Cycles(1)), 0);
        p.barrier();
        assert_eq!(p.dispatch_static(Cycles(1)), 1, "cursor survives barrier");
    }
}
