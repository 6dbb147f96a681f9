//! Work placement for the collector cycles: one engine, two policies.
//!
//! Each collector ([`crate::Lisp2Collector`], [`crate::MinorGc`]) has a
//! single cycle engine whose per-object bodies (trace an object, scan a
//! card, forward or promote, adjust, move) are written once. *Where* and
//! *when* each unit of that work runs is the `Schedule`'s business; it
//! answers three questions: which core runs the next item, when that
//! item's time starts, and when a phase's milestone is reached. The
//! `--scheduler` flag picks one of two policies — it is a parameter of
//! the simulated system, not a second implementation:
//!
//! * **barrier** — every phase fills a [`WorkerPool`] one item at a time
//!   (least-loaded, or round-robin without work stealing) and joins at a
//!   global barrier before the next phase opens. The paper figures run
//!   this policy.
//! * **packets** — after mmtk-core's `work_bucket` architecture, GC work
//!   is cut into **typed packets** (mark roots, mark-transitive-closure
//!   chunks, forward ranges, adjust ranges, compact/SwapVA batches)
//!   organized into dependency-ordered buckets. Workers drain packets
//!   greedily with deterministic least-loaded stealing and flow across
//!   bucket boundaries wherever the dependency graph allows.
//!
//! # Packet model
//!
//! Functional effects still execute host-sequentially in heap order (what
//! makes sliding compaction safe); only *time* is scheduled. Each packet
//! has:
//!
//! * an **owner** — the worker whose deque it was pushed onto, assigned
//!   round-robin by creation order (the deterministic stand-in for "the
//!   worker that generated the work");
//! * a **ready time** — the virtual time its dependencies complete;
//! * a **cost** — measured by running its functional effects.
//!
//! Placement is two-phase ([`WorkerPool::place_packet`] then
//! [`WorkerPool::commit_packet`]) because the executing core must be known
//! *before* the packet's kernel accesses run (core identity feeds the TLB
//! and cache simulators), while the cost is only known *after*. Executing
//! a packet off its owner's deque is a **steal** and pays [`STEAL_COST`]
//! — the CAS + cache-line transfer of popping a remote deque — so the
//! schedule prefers locality and only migrates work when the owner's
//! backlog exceeds the steal charge.
//!
//! # Determinism
//!
//! Both schedules are pure functions of the item sequence (kinds, ready
//! times, costs): owners are assigned by a counter, placement ties break
//! owner-first then lowest-index, and all host-side execution is
//! sequential. Repeated runs — and runs under any `SVAGC_HOST_THREADS` —
//! produce bit-identical virtual-time schedules.

use crate::scheduler::{Placement, WorkerPool};
use svagc_heap::ObjRef;
use svagc_kernel::CoreId;
use svagc_metrics::{Cycles, TraceKind, Tracer};

/// Cycles charged for executing a packet off its owner's deque: the
/// steal's CAS plus the cache-line transfer of the deque top. Small enough
/// that stealing wins whenever a worker is meaningfully backlogged, large
/// enough that the schedule keeps honest locality.
pub const STEAL_COST: Cycles = Cycles(24);

/// Objects per mark-transitive-closure packet. Small chunks keep the mark
/// bucket's load balance close to the barrier scheduler's per-object
/// greedy dispatch while still modeling packet-granular handoff.
pub const MARK_CHUNK: usize = 8;

/// Range-packet count per worker for the forward/adjust/compact buckets:
/// each bucket is split into about `CHUNKS_PER_WORKER * workers`
/// contiguous ranges.
pub const CHUNKS_PER_WORKER: usize = 8;

/// The packet types the LISP2 buckets are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Scan the root set and seed the mark stack.
    MarkRoots,
    /// Trace a chunk of the transitive closure.
    MarkChunk,
    /// `CALCNEWADD` over a contiguous object range.
    ForwardRange,
    /// Rewrite reference fields over a contiguous move range.
    AdjustRange,
    /// Rewrite the root slots.
    AdjustRoots,
    /// Move a contiguous run of objects (SwapVA batches + memmoves) and
    /// clear its destinations' forwarding words.
    CompactBatch,
    /// A minor-collection work chunk (the scavenger's buckets are
    /// per-phase and coarser).
    MinorChunk,
    /// Drain a SATB deletion-barrier buffer during the final-mark pause
    /// of a concurrent cycle (`--concurrent`).
    SatbDrain,
    /// Demote a batch of cold pages to the far-memory tier (writeback +
    /// verify + residency record per page), piggybacked on the end of a
    /// GC cycle.
    DemoteBatch,
}

impl PacketKind {
    /// Short name for trace args and logs.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::MarkRoots => "mark-roots",
            PacketKind::MarkChunk => "mark-chunk",
            PacketKind::ForwardRange => "forward-range",
            PacketKind::AdjustRange => "adjust-range",
            PacketKind::AdjustRoots => "adjust-roots",
            PacketKind::CompactBatch => "compact-batch",
            PacketKind::MinorChunk => "minor-chunk",
            PacketKind::SatbDrain => "satb-drain",
            PacketKind::DemoteBatch => "demote-batch",
        }
    }

    /// Stable numeric id (trace args are `u64`).
    pub fn id(self) -> u64 {
        match self {
            PacketKind::MarkRoots => 0,
            PacketKind::MarkChunk => 1,
            PacketKind::ForwardRange => 2,
            PacketKind::AdjustRange => 3,
            PacketKind::AdjustRoots => 4,
            PacketKind::CompactBatch => 5,
            PacketKind::MinorChunk => 6,
            PacketKind::SatbDrain => 7,
            PacketKind::DemoteBatch => 8,
        }
    }
}

/// A packet mid-execution: placement chosen, cost not yet known.
#[derive(Debug, Clone, Copy)]
pub struct PacketTicket {
    /// The packet's type.
    pub kind: PacketKind,
    /// Where and when it runs.
    pub placement: Placement,
}

/// `gc.sched.*` counters for one cycle's schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Packets executed.
    pub packets: u64,
    /// Packets executed off their owner's deque.
    pub steals: u64,
    /// Total steal charges paid (cycles).
    pub steal_cycles: u64,
}

/// The packet policy: a [`WorkerPool`] plus deterministic owner
/// assignment and steal accounting, driving dependency-ordered work
/// packets.
#[derive(Debug)]
pub(crate) struct PacketScheduler {
    pool: WorkerPool,
    cores: usize,
    next_owner: usize,
    /// Trace position of the cycle's time zero.
    origin: Cycles,
    /// Milestone of the previous phase: this phase's elapsed time counts
    /// from here.
    phase_start: Cycles,
    /// IPI interference raised by the open packet, charged to every
    /// worker when it finishes.
    pending_stall: Cycles,
    /// Schedule counters, drained into [`crate::GcCycleStats`].
    pub(crate) stats: SchedStats,
}

impl PacketScheduler {
    /// A scheduler driving `threads` workers on a `cores`-core machine,
    /// pinned starting at `core_base` (see [`WorkerPool::with_core_base`]),
    /// for a cycle starting at trace position `origin`.
    pub fn new(threads: usize, cores: usize, core_base: usize, origin: Cycles) -> PacketScheduler {
        PacketScheduler {
            pool: WorkerPool::with_core_base(threads, core_base),
            cores,
            next_owner: 0,
            origin,
            phase_start: Cycles::ZERO,
            pending_stall: Cycles::ZERO,
            stats: SchedStats::default(),
        }
    }
}

/// The placement policy of one collection attempt (see the module docs).
///
/// Items are placed with [`Schedule::begin`] and committed with
/// [`Schedule::finish`]; under the barrier policy an item is one object
/// (or one move), under the packet policy it is a packet of them. Times
/// in tickets and milestones are absolute within the cycle. The cycle
/// engines are generic over the policy, so each policy compiles into its
/// own copy of the engine with no per-item dispatch.
pub(crate) trait Schedule {
    /// Do buckets overlap in virtual time? True for packets: a packet is
    /// self-contained (its own SwapVA batch, its own forwarding clears,
    /// its own trace anchor) and may run while another worker is still
    /// in an earlier bucket. Barrier phases never overlap.
    const OVERLAPPING: bool;

    /// Mark-stack entries traced per item: one object under barrier,
    /// [`MARK_CHUNK`] under packets.
    const MARK_GRAIN: usize;

    /// Partition `n` range items: under barrier one item per index that
    /// `keep`s (skipped indices are never placed), under packets
    /// [`chunk_ranges`] over all `n` (bodies skip the others inside).
    fn ranges<F: Fn(usize) -> bool>(
        &self,
        n: usize,
        keep: F,
    ) -> impl Iterator<Item = (usize, usize)> + use<Self, F>;

    /// Open the next phase at milestone `start`. Barrier: a global
    /// barrier — a fresh pool of `workers` (compaction may differ from
    /// the other phases) whose clocks count from `start`. Packets keep one
    /// pool and their thread count; only the elapsed-time origin moves.
    fn open_phase(&mut self, start: Cycles, workers: usize);

    /// Place the next item, runnable at `ready`.
    fn begin(&mut self, kind: PacketKind, ready: Cycles) -> PacketTicket;

    /// Place the root-slot item: the VM thread (worker 0) under barrier,
    /// an ordinary packet otherwise.
    fn begin_roots(&mut self, kind: PacketKind, ready: Cycles) -> PacketTicket {
        self.begin(kind, ready)
    }

    /// Place an item on the least-loaded worker, whatever the stealing
    /// setting (barrier-phase tails: the last batch flush, forwarding
    /// clears).
    fn begin_balanced(&mut self, kind: PacketKind) -> PacketTicket {
        self.begin(kind, self.milestone())
    }

    /// A zero-cost ordering packet (the root scan that stamps the roots'
    /// discovery time): counted and traced under packets, absent under
    /// barrier, where root scanning is simply uncosted.
    fn zero_cost_packet(&mut self, _kind: PacketKind) -> Option<PacketTicket> {
        None
    }

    /// Commit an item's measured cost; returns its completion time (the
    /// ready time of whatever it discovered or unblocked).
    fn finish(&mut self, t: PacketTicket, cost: Cycles) -> Cycles;

    /// Trace a finished packet on its core's lane (barrier items have no
    /// packet span).
    fn emit(&self, _trace: &mut Tracer, _ticket: &PacketTicket, _cost: Cycles, _items: u64) {}

    /// IPI interference a flush pushed onto the other cores: every GC
    /// worker stalls for its per-core share. Barrier charges it at once,
    /// per flush; packets charge the packet's total when it finishes.
    fn stall(&mut self, interference: Cycles);

    /// Charge a global synchronization point (a pin or a broadcast
    /// shootdown): the VM thread pays it under barrier, every worker
    /// stalls for it under packets.
    fn charge_sync(&mut self, cost: Cycles);

    /// Charge `cost` to every worker of the open phase.
    fn charge_all(&mut self, cost: Cycles);

    /// The open phase's milestone so far: when its slowest worker is
    /// done (never before the phase opened).
    fn milestone(&self) -> Cycles;

    /// Elapsed time since `since` at a mid-item check, `t` into `ticket`:
    /// barrier counts from the phase's makespan so far (which includes
    /// this worker's finished items), packets from this packet's start.
    fn elapsed(&self, ticket: &PacketTicket, t: Cycles, since: Cycles) -> Cycles;

    /// The cycle's `gc.sched.*` counters (all zero under barrier).
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }

    /// The machine core worker `w` is pinned to.
    fn worker_core(&self, w: usize) -> CoreId;

    /// Workers in the open phase.
    fn workers(&self) -> usize;

    /// Trace position where an item's lane starts: kernel events of the
    /// item's work are anchored here.
    fn lane(&self, ticket: &PacketTicket) -> Cycles;

    /// The machine core an item executes on.
    fn core(&self, t: &PacketTicket) -> CoreId {
        self.worker_core(t.placement.worker)
    }
}

/// The barrier policy: phase-at-a-time pools joined by global barriers.
/// The open phase's pool clocks are relative to the phase's start.
#[derive(Debug)]
pub(crate) struct BarrierPhases {
    pool: WorkerPool,
    cores: usize,
    core_base: usize,
    /// Greedy least-loaded placement; `false` is static round-robin.
    stealing: bool,
    /// Absolute start of the open phase.
    phase_start: Cycles,
    origin: Cycles,
}

impl BarrierPhases {
    /// `threads` workers on a `cores`-core machine, pinned from
    /// `core_base`, for a cycle starting at trace position `origin`.
    /// `stealing == false` makes every phase statically partitioned.
    pub(crate) fn new(
        threads: usize,
        cores: usize,
        core_base: usize,
        stealing: bool,
        origin: Cycles,
    ) -> BarrierPhases {
        BarrierPhases {
            pool: WorkerPool::with_core_base(threads, core_base),
            cores,
            core_base,
            stealing,
            phase_start: Cycles::ZERO,
            origin,
        }
    }

    fn ticket(&self, kind: PacketKind, worker: usize) -> PacketTicket {
        PacketTicket {
            kind,
            placement: Placement {
                worker,
                start: self.phase_start + self.pool.load(worker),
                stolen: false,
            },
        }
    }
}

impl Schedule for BarrierPhases {
    const OVERLAPPING: bool = false;
    const MARK_GRAIN: usize = 1;

    fn worker_core(&self, w: usize) -> CoreId {
        self.pool.core_of(w, self.cores)
    }

    fn workers(&self) -> usize {
        self.pool.len()
    }

    fn lane(&self, ticket: &PacketTicket) -> Cycles {
        self.origin + ticket.placement.start
    }

    fn ranges<F: Fn(usize) -> bool>(
        &self,
        n: usize,
        keep: F,
    ) -> impl Iterator<Item = (usize, usize)> + use<F> {
        (0..n).filter(move |&i| keep(i)).map(|i| (i, i + 1))
    }

    fn open_phase(&mut self, start: Cycles, workers: usize) {
        self.pool = WorkerPool::with_core_base(workers, self.core_base);
        self.phase_start = start;
    }

    fn begin(&mut self, kind: PacketKind, _ready: Cycles) -> PacketTicket {
        let w = if self.stealing {
            self.pool.least_loaded()
        } else {
            self.pool.dispatch_static(Cycles::ZERO)
        };
        self.ticket(kind, w)
    }

    fn begin_roots(&mut self, kind: PacketKind, _ready: Cycles) -> PacketTicket {
        self.ticket(kind, 0)
    }

    fn begin_balanced(&mut self, kind: PacketKind) -> PacketTicket {
        let w = self.pool.least_loaded();
        self.ticket(kind, w)
    }

    fn finish(&mut self, t: PacketTicket, cost: Cycles) -> Cycles {
        self.pool.dispatch_to(t.placement.worker, cost);
        t.placement.start + cost
    }

    fn stall(&mut self, interference: Cycles) {
        if interference.get() > 0 {
            let peers = (self.cores as u64 - 1).max(1);
            self.pool.charge_all(interference / peers);
        }
    }

    fn charge_sync(&mut self, cost: Cycles) {
        self.pool.dispatch_to(0, cost);
    }

    fn charge_all(&mut self, cost: Cycles) {
        self.pool.charge_all(cost);
    }

    fn milestone(&self) -> Cycles {
        self.phase_start + self.pool.makespan()
    }

    fn elapsed(&self, _ticket: &PacketTicket, t: Cycles, since: Cycles) -> Cycles {
        (self.milestone() + t).saturating_sub(since)
    }
}

impl Schedule for PacketScheduler {
    const OVERLAPPING: bool = true;
    const MARK_GRAIN: usize = MARK_CHUNK;

    fn worker_core(&self, w: usize) -> CoreId {
        self.pool.core_of(w, self.cores)
    }

    fn workers(&self) -> usize {
        self.pool.len()
    }

    fn lane(&self, ticket: &PacketTicket) -> Cycles {
        self.origin + ticket.placement.start
    }

    fn ranges<F: Fn(usize) -> bool>(
        &self,
        n: usize,
        _keep: F,
    ) -> impl Iterator<Item = (usize, usize)> + use<F> {
        chunk_ranges(n, self.pool.len()).into_iter()
    }

    fn open_phase(&mut self, start: Cycles, _workers: usize) {
        self.phase_start = start;
    }

    /// Create a packet (assigning the next round-robin owner) and place
    /// it where it can start earliest, stealing off the owner's deque
    /// when that pays for [`STEAL_COST`].
    fn begin(&mut self, kind: PacketKind, ready: Cycles) -> PacketTicket {
        let owner = self.next_owner;
        self.next_owner = (self.next_owner + 1) % self.pool.len();
        let placement = self.pool.place_packet(owner, ready, STEAL_COST);
        PacketTicket { kind, placement }
    }

    fn zero_cost_packet(&mut self, kind: PacketKind) -> Option<PacketTicket> {
        let t = self.begin(kind, Cycles::ZERO);
        self.finish(t, Cycles::ZERO);
        Some(t)
    }

    fn finish(&mut self, t: PacketTicket, cost: Cycles) -> Cycles {
        self.pool.commit_packet(t.placement, cost);
        self.stats.packets += 1;
        if t.placement.stolen {
            self.stats.steals += 1;
            self.stats.steal_cycles += STEAL_COST.get();
        }
        if self.pending_stall.get() > 0 {
            let peers = (self.cores as u64 - 1).max(1);
            self.pool.charge_all(self.pending_stall / peers);
            self.pending_stall = Cycles::ZERO;
        }
        t.placement.start + cost
    }

    fn emit(&self, trace: &mut Tracer, ticket: &PacketTicket, cost: Cycles, items: u64) {
        trace.span_abs(
            TraceKind::Packet,
            self.lane(ticket),
            cost,
            self.core(ticket).0 as u32,
            &[
                ("kind", ticket.kind.id()),
                ("worker", ticket.placement.worker as u64),
                ("stolen", u64::from(ticket.placement.stolen)),
                ("items", items),
            ],
        );
    }

    fn stall(&mut self, interference: Cycles) {
        self.pending_stall += interference;
    }

    fn charge_sync(&mut self, cost: Cycles) {
        self.pool.charge_all(cost);
    }

    fn charge_all(&mut self, cost: Cycles) {
        self.pool.charge_all(cost);
    }

    fn milestone(&self) -> Cycles {
        self.pool.makespan().max(self.phase_start)
    }

    fn elapsed(&self, ticket: &PacketTicket, t: Cycles, since: Cycles) -> Cycles {
        (ticket.placement.start + t).saturating_sub(since)
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }
}

/// Cross-bucket dependencies of a batch partition (overlapping buckets
/// only): batch `b` may not start before every earlier-bucket packet that
/// read or wrote its region has finished. Items are in ascending source
/// order, batches contiguous ranges of them.
#[derive(Debug)]
pub(crate) struct BatchDeps {
    /// Item index -> owning batch.
    batch_of: Vec<usize>,
    /// Destination span `[lo, hi)` of each batch, ascending; empty when
    /// destinations never cover a source (promotion out of eden).
    dst_spans: Vec<(u64, u64)>,
    /// Completion of the last packet each batch depends on.
    ready: Vec<Cycles>,
}

impl BatchDeps {
    pub(crate) fn new(
        items: usize,
        batches: &[(usize, usize)],
        dst_spans: Vec<(u64, u64)>,
    ) -> BatchDeps {
        let mut batch_of = vec![0usize; items];
        for (bi, &(s, e)) in batches.iter().enumerate() {
            batch_of[s..e].fill(bi);
        }
        BatchDeps {
            batch_of,
            dst_spans,
            ready: vec![Cycles::ZERO; batches.len()],
        }
    }

    /// The batch owning item `i`.
    pub(crate) fn batch_of(&self, i: usize) -> usize {
        self.batch_of[i]
    }

    /// Record the batches a read of `obj`'s forwarding word constrains:
    /// the word lives at `obj`'s *old* address, so the batch of item
    /// `item` (the move of `obj`, if it moves) swaps it away, and the
    /// batch whose destinations cover it overwrites it.
    pub(crate) fn note_forwarding_read(
        &self,
        item: Option<usize>,
        obj: ObjRef,
        out: &mut Vec<usize>,
    ) {
        if let Some(i) = item {
            out.push(self.batch_of[i]);
        }
        let va = obj.forwarding_va().get();
        let b = self.dst_spans.partition_point(|&(lo, _)| lo <= va);
        if b > 0 && va < self.dst_spans[b - 1].1 {
            out.push(b - 1);
        }
    }

    /// A packet touching `conflicts` finished at `done`; the list is
    /// drained for the next packet.
    pub(crate) fn fold(&mut self, conflicts: &mut Vec<usize>, done: Cycles) {
        for b in conflicts.drain(..) {
            self.ready[b] = self.ready[b].max(done);
        }
    }

    /// When batch `b` may start, given the bucket's own `floor`.
    pub(crate) fn ready(&self, b: usize, floor: Cycles) -> Cycles {
        self.ready[b].max(floor)
    }
}

/// Split `len` items into about `CHUNKS_PER_WORKER * workers` contiguous
/// `[start, end)` ranges of near-equal size (the forward/adjust/compact
/// bucket partition). Deterministic; never returns an empty range.
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = (CHUNKS_PER_WORKER * workers.max(1)).min(len).max(1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        for len in [0usize, 1, 5, 17, 100, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let r = chunk_ranges(len, workers);
                let mut pos = 0;
                for &(s, e) in &r {
                    assert_eq!(s, pos, "contiguous");
                    assert!(e > s, "non-empty range");
                    pos = e;
                }
                assert_eq!(pos, len, "covers all items");
                if len > 0 {
                    assert!(r.len() <= CHUNKS_PER_WORKER * workers);
                }
            }
        }
    }

    #[test]
    fn owners_rotate_deterministically() {
        let mut a = PacketScheduler::new(3, 8, 0, Cycles::ZERO);
        let mut b = PacketScheduler::new(3, 8, 0, Cycles::ZERO);
        for i in 0..20u64 {
            let ta = a.begin(PacketKind::MarkChunk, Cycles::ZERO);
            let tb = b.begin(PacketKind::MarkChunk, Cycles::ZERO);
            assert_eq!(ta.placement, tb.placement, "packet {i}");
            let cost = Cycles(1 + (i * 7919) % 97);
            assert_eq!(a.finish(ta, cost), b.finish(tb, cost));
        }
        assert_eq!(a.milestone(), b.milestone());
        assert_eq!(a.stats.packets, 20);
        assert_eq!(a.stats.steals, b.stats.steals);
    }

    #[test]
    fn skewed_packets_get_stolen() {
        // One worker's deque fills with huge packets; the others steal.
        let mut s = PacketScheduler::new(2, 4, 0, Cycles::ZERO);
        let mut last = Cycles::ZERO;
        for i in 0..10u64 {
            let cost = if i % 2 == 0 { Cycles(1000) } else { Cycles(10) };
            let t = s.begin(PacketKind::CompactBatch, Cycles::ZERO);
            last = last.max(s.finish(t, cost));
        }
        assert!(s.stats.steals > 0, "skew must trigger steals");
        // Stealing bounds the makespan well below serializing the bigs.
        assert!(s.milestone() < Cycles(5000));
        assert_eq!(
            s.stats.steal_cycles,
            s.stats.steals * STEAL_COST.get(),
            "every steal pays exactly one charge"
        );
    }

    #[test]
    fn ready_times_defer_dependents() {
        let mut s = PacketScheduler::new(2, 4, 0, Cycles::ZERO);
        let t = s.begin(PacketKind::MarkRoots, Cycles::ZERO);
        let done = s.finish(t, Cycles(100));
        assert_eq!(done, Cycles(100));
        // A dependent packet cannot start before its dependency resolves,
        // even on the idle worker.
        let t2 = s.begin(PacketKind::MarkChunk, done);
        assert!(t2.placement.start >= done);
    }

    #[test]
    fn core_pinning_respects_base() {
        let s = PacketScheduler::new(2, 8, 4, Cycles::ZERO);
        let t = PacketTicket {
            kind: PacketKind::MarkChunk,
            placement: Placement {
                worker: 1,
                start: Cycles::ZERO,
                stolen: false,
            },
        };
        assert_eq!(s.core(&t), CoreId(5));
    }
}
