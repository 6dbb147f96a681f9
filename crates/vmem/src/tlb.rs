//! Per-core two-level TLB (L1 DTLB + unified STLB).
//!
//! This is the *functional* TLB whose flush traffic SwapVA must manage:
//! every PTE exchange leaves stale entries on every core that has touched
//! the page, which is exactly the shootdown problem of §IV. The kernel
//! layer decides *when* to flush (per-call global vs pinned/local); this
//! module implements the state machine and counts lookups/misses for the
//! Table III DTLB columns.
//!
//! Each level is true LRU, with every set kept in recency order rather
//! than stamped, so a hit on the most recently used way writes nothing.

use crate::addr::{Asid, FrameId};

/// Which level serviced a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbHit {
    /// L1 DTLB hit.
    L1,
    /// Second-level TLB hit (promoted to L1).
    Stlb,
    /// Miss — page walk required.
    Miss,
}

/// TLB geometry.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// L1 DTLB entry count.
    pub l1_entries: usize,
    /// L1 DTLB associativity.
    pub l1_ways: usize,
    /// STLB entry count.
    pub stlb_entries: usize,
    /// STLB associativity.
    pub stlb_ways: usize,
}

impl TlbConfig {
    /// Skylake-like: 64-entry 4-way L1 DTLB, 1536-entry 12-way STLB.
    pub fn skylake() -> TlbConfig {
        TlbConfig {
            l1_entries: 64,
            l1_ways: 4,
            stlb_entries: 1536,
            stlb_ways: 12,
        }
    }
}

/// One set-associative, true-LRU TLB level, stored structure-of-arrays
/// so the per-access hot path ([`TlbArray::lookup`]) compares exactly one
/// `u64` tag per way. An entry's tag packs `(vpn << 16) | asid` (asids
/// are `u16`); [`INVALID`] marks an empty way.
///
/// Like the data caches (`svagc_metrics::SetAssocCache`), each set keeps
/// its ways in recency order, most recently used first. A hit moves its
/// way to the front in one carry-through pass over tags and frames; an
/// insert refills the first invalid way, or the least recently used way
/// if none is invalid, and moves it to the front; a page flush marks its
/// way invalid in place, leaving the other ways' order as it was. This is
/// exactly the per-way LRU-stamp model it replaced: the victim depends
/// only on the recency order of the valid ways, which both keep, and
/// which invalid way an insert refills cannot be observed. Hits, misses,
/// LRU victims and flush effects all agree, which the perf gate pins via
/// `sim_digest` and `tests/tlb_props.rs` checks against the stamp model.
///
/// `resident` counts the valid entries of each address space, updated
/// wherever validity changes (`insert`, `flush_*`; lookups never change
/// it). It answers the tracked shootdown's "does this core hold the
/// ASID?" in O(1) and lets `flush_asid` skip arrays that hold none of it.
///
/// `occupied` has one bit per set, set by every insert that fills an
/// invalid way and cleared only when a flush leaves its set with no valid
/// way, so a clear bit means an empty set. `flush_all` and both
/// `flush_asid` paths visit only the sets whose bit is on: invalidating
/// an empty set changes nothing, so the flushed state is the full scan's,
/// in time proportional to the sets filled since the last flush.
#[derive(Debug)]
struct TlbArray {
    sets: usize,
    ways: usize,
    /// `(vpn << 16) | asid` per way, each set ordered MRU → LRU;
    /// [`INVALID`] for an empty way.
    tags: Vec<u64>,
    /// The cached frame of each way; meaningless while its tag is
    /// [`INVALID`].
    frames: Vec<FrameId>,
    /// `(asid, valid entries)` for every ASID with at least one valid
    /// entry. Runs hold one to a few ASIDs, so a linear table suffices.
    resident: Vec<(u16, u32)>,
    /// One bit per set: on if the set may hold a valid way.
    occupied: Vec<u64>,
}

/// The tag of an invalid way. [`tag_of`] never produces it: it would need
/// the low 48 bits of the VPN all set, and every simulated VA is below
/// 2^48, so every VPN is below 2^36.
const INVALID: u64 = u64::MAX;

#[inline]
fn tag_of(asid: Asid, vpn: u64) -> u64 {
    if vpn >> 36 != 0 {
        vpn_out_of_range(vpn);
    }
    (vpn << 16) | asid.0 as u64
}

#[cold]
#[inline(never)]
fn vpn_out_of_range(vpn: u64) -> ! {
    panic!("simulator invariant: vpn {vpn:#x} lies beyond the 48-bit virtual address space")
}

impl TlbArray {
    fn new(entries: usize, ways: usize) -> TlbArray {
        assert!(
            ways >= 1,
            "TLB invariant: associativity (ways) is at least 1"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "TLB set count must be 2^k");
        TlbArray {
            sets,
            ways,
            tags: vec![INVALID; entries],
            frames: vec![FrameId::default(); entries],
            resident: Vec::new(),
            occupied: vec![0; sets.div_ceil(64)],
        }
    }

    fn count_valid(&mut self, asid: u16) {
        match self.resident.iter_mut().find(|(a, _)| *a == asid) {
            Some((_, n)) => *n += 1,
            None => self.resident.push((asid, 1)),
        }
    }

    fn count_invalid(&mut self, asid: u16) {
        let i = self
            .resident
            .iter()
            .position(|&(a, _)| a == asid)
            .expect("TLB invariant: an invalidated entry's ASID is counted");
        self.resident[i].1 -= 1;
        if self.resident[i].1 == 0 {
            self.resident.swap_remove(i);
        }
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets - 1)
    }

    /// Put `(tag, frame)` at the front of the set starting at `base`,
    /// shifting ways `base .. base + w` down by one over way `base + w`,
    /// whose old content drops out.
    #[inline]
    fn move_to_front(&mut self, base: usize, w: usize, mut tag: u64, mut frame: FrameId) {
        let ways = base..=base + w;
        for (t, f) in self.tags[ways.clone()]
            .iter_mut()
            .zip(&mut self.frames[ways])
        {
            tag = std::mem::replace(t, tag);
            frame = std::mem::replace(f, frame);
        }
    }

    #[inline]
    fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<FrameId> {
        let tag = tag_of(asid, vpn);
        let base = self.set_of(vpn) * self.ways;
        if self.tags[base] == tag {
            return Some(self.frames[base]);
        }
        self.lookup_behind_front(base, tag)
    }

    /// [`TlbArray::lookup`] past the front way: a hit moves to the front.
    /// Out of line, so the front-way hit that callers inline stays small.
    #[inline(never)]
    fn lookup_behind_front(&mut self, base: usize, tag: u64) -> Option<FrameId> {
        let w = 1 + self.tags[base + 1..base + self.ways]
            .iter()
            .position(|&t| t == tag)?;
        let frame = self.frames[base + w];
        self.move_to_front(base, w, tag, frame);
        Some(frame)
    }

    /// Further hitting [`TlbArray::lookup`]s of an entry at the front of
    /// its set change nothing. Panics if `(asid, vpn)` is not there.
    #[inline]
    fn assert_front(&self, asid: Asid, vpn: u64) {
        let base = self.set_of(vpn) * self.ways;
        assert!(
            self.tags[base] == tag_of(asid, vpn),
            "repeat_l1_hits caller guarantees the entry is at the front of its L1 set"
        );
    }

    /// Fill `(asid, vpn)`, which must not be resident in this level (the
    /// kernel inserts only after a miss).
    #[inline]
    fn insert(&mut self, asid: Asid, vpn: u64, frame: FrameId) {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let ways = &self.tags[base..base + self.ways];
        let victim = ways
            .iter()
            .position(|&t| t == INVALID)
            .unwrap_or(self.ways - 1);
        let old = ways[victim];
        // Evicting a valid entry of the same ASID leaves its count as is.
        if old == INVALID {
            self.count_valid(asid.0);
            // Evicting a valid way leaves the set's bit on: a set holding
            // a valid way is always marked.
            self.occupied[set / 64] |= 1 << (set % 64);
        } else if old as u16 != asid.0 {
            self.count_invalid(old as u16);
            self.count_valid(asid.0);
        }
        self.move_to_front(base, victim, tag_of(asid, vpn), frame);
    }

    /// Invalidate, in every occupied set, the ways of `asid` (every way
    /// when `None`), and clear the bit of each set left with no valid way.
    fn flush_occupied(&mut self, asid: Option<u16>) {
        for word in 0..self.occupied.len() {
            let mut bits = self.occupied[word];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = (word * 64 + bit) * self.ways;
                let set = &mut self.tags[base..base + self.ways];
                let live = match asid {
                    None => {
                        set.fill(INVALID);
                        false
                    }
                    Some(asid) => {
                        for t in set.iter_mut() {
                            if *t as u16 == asid {
                                *t = INVALID;
                            }
                        }
                        set.iter().any(|&t| t != INVALID)
                    }
                };
                if !live {
                    self.occupied[word] &= !(1 << bit);
                }
            }
        }
    }

    fn flush_all(&mut self) {
        self.flush_occupied(None);
        self.resident.clear();
    }

    /// Invalidating a way that is already invalid changes nothing, so an
    /// array holding none of `asid` returns at once, and one holding only
    /// `asid` invalidates every occupied set without comparing tags.
    fn flush_asid(&mut self, asid: Asid) {
        let Some(i) = self.resident.iter().position(|&(a, _)| a == asid.0) else {
            return;
        };
        self.resident.swap_remove(i);
        let only = self.resident.is_empty();
        self.flush_occupied((!only).then_some(asid.0));
    }

    fn flush_page(&mut self, asid: Asid, vpn: u64) {
        let tag = tag_of(asid, vpn);
        let base = self.set_of(vpn) * self.ways;
        for w in base..base + self.ways {
            if self.tags[w] == tag {
                self.tags[w] = INVALID;
                self.count_invalid(asid.0);
            }
        }
    }

    fn valid_count(&self) -> usize {
        self.resident.iter().map(|&(_, n)| n as usize).sum()
    }

    fn holds_asid(&self, asid: Asid) -> bool {
        self.resident.iter().any(|&(a, _)| a == asid.0)
    }
}

/// One core's TLB hierarchy with lookup/miss statistics.
#[derive(Debug)]
pub struct Tlb {
    l1: TlbArray,
    stlb: TlbArray,
    lookups: u64,
    l1_misses: u64,
    misses: u64,
}

impl Tlb {
    /// Build from a geometry.
    pub fn new(cfg: TlbConfig) -> Tlb {
        Tlb {
            l1: TlbArray::new(cfg.l1_entries, cfg.l1_ways),
            stlb: TlbArray::new(cfg.stlb_entries, cfg.stlb_ways),
            lookups: 0,
            l1_misses: 0,
            misses: 0,
        }
    }

    /// Look up `(asid, vpn)`. Hits in the STLB are promoted to L1. Misses
    /// must be followed by [`Tlb::insert`] after the page walk.
    #[inline]
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> (TlbHit, Option<FrameId>) {
        self.lookups += 1;
        if let Some(f) = self.l1.lookup(asid, vpn) {
            return (TlbHit::L1, Some(f));
        }
        self.l1_misses += 1;
        if let Some(f) = self.stlb.lookup(asid, vpn) {
            self.l1.insert(asid, vpn, f);
            return (TlbHit::Stlb, Some(f));
        }
        self.misses += 1;
        (TlbHit::Miss, None)
    }

    /// Account `n` further L1 hits on `(asid, vpn)` in closed form —
    /// exactly what `n` back-to-back [`Tlb::lookup`]s leave behind right
    /// after a lookup or insert of that page, which put the entry at the
    /// front of its L1 DTLB set: `n` more lookups and no change of state.
    /// Panics if the entry is not at the front.
    #[inline]
    pub fn repeat_l1_hits(&mut self, asid: Asid, vpn: u64, n: u64) {
        self.l1.assert_front(asid, vpn);
        self.lookups += n;
    }

    /// Fill both levels after a page walk. Only for a page that just
    /// missed: a level that already holds `(asid, vpn)` would hold it
    /// twice.
    #[inline]
    pub fn insert(&mut self, asid: Asid, vpn: u64, frame: FrameId) {
        self.stlb.insert(asid, vpn, frame);
        self.l1.insert(asid, vpn, frame);
    }

    /// Drop every entry (global flush, e.g. CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.l1.flush_all();
        self.stlb.flush_all();
    }

    /// Drop entries of one address space (`flush_tlb_local(pid)`).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.l1.flush_asid(asid);
        self.stlb.flush_asid(asid);
    }

    /// Drop one page's entry (`invlpg` / `flush_tlb_page`).
    pub fn flush_page(&mut self, asid: Asid, vpn: u64) {
        self.l1.flush_page(asid, vpn);
        self.stlb.flush_page(asid, vpn);
    }

    /// `(lookups, full_misses)` — the Table III DTLB-miss ratio inputs.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }

    /// L1 DTLB misses (reached the STLB).
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Reset statistics (contents untouched).
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.l1_misses = 0;
        self.misses = 0;
    }

    /// Valid entries across both levels (for tests).
    pub fn resident(&self) -> usize {
        self.l1.valid_count() + self.stlb.valid_count()
    }

    /// Does this TLB hold any entry of `asid`? (The question an
    /// access-tracking shootdown scheme answers per core; O(1).)
    pub fn holds_asid(&self, asid: Asid) -> bool {
        self.l1.holds_asid(asid) || self.stlb.holds_asid(asid)
    }
}

/// Copyable snapshot of the oracle's counters (threaded into run results
/// and the `gc.tlb.*` registry keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Was the oracle recording?
    pub enabled: bool,
    /// TLB hits cross-checked against the live page table.
    pub checks: u64,
    /// Hits whose cached frame disagreed with the page table — a mutator
    /// translated through a stale entry, the §IV safety violation.
    pub stale_hits: u64,
    /// Kernel flush events that violated the protocol preconditions
    /// (a local-only flush without an active pin, or without the
    /// once-per-cycle broadcast; a shootdown that left a victim unflushed).
    pub audit_violations: u64,
}

/// Runtime stale-translation oracle: the dynamic counterpart of the
/// protocol model checker (`svagc-core::protocol`).
///
/// When enabled, the kernel cross-checks every TLB *hit* against the live
/// page table (a hit whose cached frame disagrees is a stale translation —
/// exactly the hazard the shootdown protocol must prevent) and audits
/// every post-swap flush against the Algorithm 4 preconditions: a
/// `LocalOnly` flush is legal only while the compactor is pinned *and* a
/// cycle-start broadcast has been issued for that address space since the
/// pin began. Disabled (the default) it is a single branch on a bool —
/// behaviour, cycle charging, and simulated counters are bit-identical
/// with the oracle on or off; it is a pure observer.
#[derive(Debug, Clone, Default)]
pub struct TlbOracle {
    enabled: bool,
    checks: u64,
    stale_hits: u64,
    audit_violations: u64,
    /// Address spaces broadcast-flushed since the current pin epoch began
    /// (cleared on pin/unpin — a broadcast from a previous epoch proves
    /// nothing about this one).
    broadcast_asids: Vec<u16>,
}

impl TlbOracle {
    /// A disabled oracle (every probe is a no-op).
    pub fn disabled() -> TlbOracle {
        TlbOracle::default()
    }

    /// Enable/disable. Toggling resets counters and audit state.
    pub fn set_enabled(&mut self, on: bool) {
        *self = TlbOracle::default();
        self.enabled = on;
    }

    /// Is the oracle recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            enabled: self.enabled,
            checks: self.checks,
            stale_hits: self.stale_hits,
            audit_violations: self.audit_violations,
        }
    }

    /// Cross-check a TLB hit: `cached` is the frame the TLB returned,
    /// `live` the page table's current frame (`None` = no longer mapped).
    /// Returns `true` when the hit was stale. Callers must gate on
    /// [`TlbOracle::is_enabled`] so the disabled path stays free.
    pub fn check_hit(&mut self, cached: FrameId, live: Option<FrameId>) -> bool {
        self.checks += 1;
        let stale = live != Some(cached);
        if stale {
            self.stale_hits += 1;
        }
        stale
    }

    /// The compactor pinned itself: a new audit epoch begins, with no
    /// broadcasts on record yet.
    pub fn note_pin(&mut self) {
        if self.enabled {
            self.broadcast_asids.clear();
        }
    }

    /// The compactor unpinned: broadcasts from the closed epoch no longer
    /// license local-only flushes.
    pub fn note_unpin(&mut self) {
        if self.enabled {
            self.broadcast_asids.clear();
        }
    }

    /// An all-core broadcast flush of `asid` completed.
    pub fn note_broadcast(&mut self, asid: Asid) {
        if self.enabled && !self.broadcast_asids.contains(&asid.0) {
            self.broadcast_asids.push(asid.0);
        }
    }

    /// Audit a `LocalOnly` post-swap flush: legal only when `pinned` and a
    /// broadcast of `asid` happened in the current pin epoch. Returns
    /// `true` on violation (and counts it).
    pub fn audit_local_only(&mut self, asid: Asid, pinned: bool) -> bool {
        let violation = !pinned || !self.broadcast_asids.contains(&asid.0);
        if violation {
            self.audit_violations += 1;
        }
        violation
    }

    /// A shootdown claimed to flush `asid` everywhere it was held, yet a
    /// victim still holds an entry — count the broken postcondition.
    pub fn record_unflushed_victim(&mut self) {
        self.audit_violations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Asid = Asid(1);
    const B: Asid = Asid(2);

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::skylake())
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = tlb();
        assert_eq!(t.lookup(A, 7).0, TlbHit::Miss);
        t.insert(A, 7, FrameId(3));
        let (hit, f) = t.lookup(A, 7);
        assert_eq!(hit, TlbHit::L1);
        assert_eq!(f, Some(FrameId(3)));
        assert_eq!(t.stats(), (2, 1));
    }

    #[test]
    fn repeat_l1_hits_equals_repeated_lookups() {
        // Two TLBs see the same history, ending in a lookup of vpn 7 (as
        // `Kernel::stream_lines` translates a page's first line); one
        // replays 5 further hits on it by lookup, the other in closed
        // form. Every later LRU decision in the (4-way) set of vpn 7 must
        // agree.
        let mut a = tlb();
        let mut b = tlb();
        for t in [&mut a, &mut b] {
            for vpn in [7, 23, 39, 55] {
                t.insert(A, vpn, FrameId(vpn as u32));
            }
            assert_eq!(t.lookup(A, 7).0, TlbHit::L1);
        }
        for _ in 0..5 {
            assert_eq!(a.lookup(A, 7).0, TlbHit::L1);
        }
        b.repeat_l1_hits(A, 7, 5);
        assert_eq!(a.stats(), b.stats());
        for t in [&mut a, &mut b] {
            t.lookup(A, 23);
            t.insert(A, 71, FrameId(71)); // evicts the L1 LRU way: 39
        }
        for vpn in [7, 23, 39, 55, 71] {
            assert_eq!(a.lookup(A, vpn), b.lookup(A, vpn), "vpn {vpn}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    #[should_panic(expected = "front of its L1 set")]
    fn repeat_l1_hits_needs_the_front_way() {
        let mut t = tlb();
        t.insert(A, 7, FrameId(7));
        t.insert(A, 23, FrameId(23)); // same L1 set, now in front of 7
        t.repeat_l1_hits(A, 7, 3);
    }

    #[test]
    fn asids_are_isolated() {
        let mut t = tlb();
        t.insert(A, 7, FrameId(3));
        assert_eq!(t.lookup(B, 7).0, TlbHit::Miss);
    }

    #[test]
    fn stlb_backstops_l1_eviction() {
        let mut t = tlb();
        // Fill far beyond L1 (64 entries) but within STLB (1536): entries
        // evicted from L1 should still hit in the STLB.
        for vpn in 0..512 {
            t.insert(A, vpn, FrameId(vpn as u32));
        }
        let (hit, f) = t.lookup(A, 0);
        assert_eq!(hit, TlbHit::Stlb);
        assert_eq!(f, Some(FrameId(0)));
        // And it was promoted to L1.
        assert_eq!(t.lookup(A, 0).0, TlbHit::L1);
    }

    #[test]
    fn flush_page_is_precise() {
        let mut t = tlb();
        t.insert(A, 7, FrameId(3));
        t.insert(A, 8, FrameId(4));
        t.flush_page(A, 7);
        assert_eq!(t.lookup(A, 7).0, TlbHit::Miss);
        assert_ne!(t.lookup(A, 8).0, TlbHit::Miss);
    }

    #[test]
    fn flush_asid_spares_other_spaces() {
        let mut t = tlb();
        t.insert(A, 7, FrameId(3));
        t.insert(B, 7, FrameId(9));
        t.flush_asid(A);
        assert_eq!(t.lookup(A, 7).0, TlbHit::Miss);
        assert_eq!(t.lookup(B, 7).1, Some(FrameId(9)));
    }

    #[test]
    fn flush_all_empties() {
        let mut t = tlb();
        for vpn in 0..100 {
            t.insert(A, vpn, FrameId(vpn as u32));
        }
        assert!(t.resident() > 0);
        t.flush_all();
        assert_eq!(t.resident(), 0);
    }

    /// The scans the residency table replaced, kept as its reference.
    fn scanned_valid_count(a: &TlbArray) -> usize {
        a.tags.iter().filter(|&&t| t != INVALID).count()
    }

    fn scanned_holds_asid(a: &TlbArray, asid: u16) -> bool {
        a.tags.iter().any(|&t| t != INVALID && t as u16 == asid)
    }

    /// The flush the table replaced: always compare every tag.
    fn scanning_flush_asid(a: &mut TlbArray, asid: Asid) {
        for t in a.tags.iter_mut() {
            if *t as u16 == asid.0 {
                *t = INVALID;
            }
        }
        a.resident.retain(|&(x, _)| x != asid.0);
    }

    /// The residency table must equal a brute-force scan of the entries,
    /// and every set holding a valid way must be marked occupied.
    fn check_residency(a: &TlbArray) -> Result<(), String> {
        let mut scanned: Vec<(u16, u32)> = Vec::new();
        for &t in a.tags.iter() {
            if t != INVALID {
                match scanned.iter_mut().find(|(x, _)| *x == t as u16) {
                    Some((_, n)) => *n += 1,
                    None => scanned.push((t as u16, 1)),
                }
            }
        }
        let mut table = a.resident.clone();
        table.sort_unstable();
        scanned.sort_unstable();
        if table != scanned {
            return Err(format!("table {table:?} != scan {scanned:?}"));
        }
        for set in 0..a.sets {
            let filled = a.tags[set * a.ways..(set + 1) * a.ways]
                .iter()
                .any(|&t| t != INVALID);
            if filled && a.occupied[set / 64] & (1 << (set % 64)) == 0 {
                return Err(format!("set {set} holds a valid way but is not marked occupied"));
            }
        }
        if a.valid_count() != scanned_valid_count(a) {
            return Err("valid_count disagrees with a scan".into());
        }
        for asid in 0..4 {
            if a.holds_asid(Asid(asid)) != scanned_holds_asid(a, asid) {
                return Err(format!("holds_asid({asid}) disagrees with a scan"));
            }
        }
        Ok(())
    }

    fn same_state(a: &TlbArray, b: &TlbArray) -> bool {
        a.tags == b.tags && a.frames == b.frames
    }

    /// Random op sequences over 3 ASIDs on VPNs that collide in one L1 set
    /// (16 sets) and one STLB set (128 sets), so both levels evict. After
    /// every op the residency tables match a scan, and a twin TLB whose
    /// `flush_asid` always scans agrees on every lookup and LRU state.
    #[test]
    fn residency_counts_match_a_scan() {
        use svagc_metrics::SimRng;
        for case in 0..64u64 {
            let seed = 0x71b_0000 + case;
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = tlb();
            let mut twin = tlb();
            for step in 0..600 {
                let asid = Asid(rng.gen_range(1..4u32) as u16);
                let vpn = rng.gen_range(0..2u64) * 5 + rng.gen_range(0..20u64) * 128;
                let op = rng.gen_range(0..16u32);
                let what = match op {
                    0..=4 => {
                        let got = t.lookup(asid, vpn);
                        if got != twin.lookup(asid, vpn) {
                            Err(format!("lookup({asid:?}, {vpn}) disagrees"))
                        } else {
                            Ok(())
                        }
                    }
                    5..=9 => {
                        let f = FrameId(rng.gen_range(0..1000u32));
                        t.insert(asid, vpn, f);
                        twin.insert(asid, vpn, f);
                        Ok(())
                    }
                    10 | 11 => {
                        let front = t.l1.set_of(vpn) * t.l1.ways;
                        if t.l1.tags[front] == tag_of(asid, vpn) {
                            let n = rng.gen_range(1..100u64);
                            t.repeat_l1_hits(asid, vpn, n);
                            twin.repeat_l1_hits(asid, vpn, n);
                        }
                        Ok(())
                    }
                    12 => {
                        t.flush_page(asid, vpn);
                        twin.flush_page(asid, vpn);
                        Ok(())
                    }
                    13 | 14 => {
                        t.flush_asid(asid);
                        scanning_flush_asid(&mut twin.l1, asid);
                        scanning_flush_asid(&mut twin.stlb, asid);
                        Ok(())
                    }
                    _ => {
                        if rng.gen_range(0..8u32) == 0 {
                            t.flush_all();
                            twin.flush_all();
                        }
                        Ok(())
                    }
                };
                let checked = what
                    .and_then(|()| check_residency(&t.l1).map_err(|e| format!("L1: {e}")))
                    .and_then(|()| check_residency(&t.stlb).map_err(|e| format!("STLB: {e}")))
                    .and_then(|()| {
                        if same_state(&t.l1, &twin.l1) && same_state(&t.stlb, &twin.stlb) {
                            Ok(())
                        } else {
                            Err("LRU state diverged from the scanning twin".into())
                        }
                    });
                if let Err(e) = checked {
                    panic!(
                        "case {case} (seed {seed:#x}) step {step} op {op} {asid:?} vpn {vpn}: {e}"
                    );
                }
            }
            assert_eq!(t.stats(), twin.stats(), "seed {seed:#x}");
        }
    }

    #[test]
    fn stale_entry_after_pte_swap_without_flush() {
        // The hazard SwapVA must handle: swap the mapping, skip the flush,
        // and the TLB still returns the old frame.
        let mut t = tlb();
        t.insert(A, 7, FrameId(3));
        // Mapping changed to FrameId(5) in the page table... TLB unaware:
        assert_eq!(t.lookup(A, 7).1, Some(FrameId(3)));
        t.flush_page(A, 7);
        assert_eq!(t.lookup(A, 7).0, TlbHit::Miss);
    }
}
