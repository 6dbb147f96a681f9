//! Set-associative cache simulation for the Table III experiments.
//!
//! `memmove`-based compaction streams every live byte through the cache
//! hierarchy, evicting application working sets; SwapVA only touches page
//! table lines. Table III measures this as cache-miss and DTLB-miss rates.
//! We reproduce it by running the instrumented access streams of both paths
//! through this model.
//!
//! The model is a three-level, fill-on-miss, non-inclusive hierarchy with
//! true-LRU sets (see [`CacheHierarchy`]). It is intentionally
//! single-observer (one `&mut` user); concurrency is handled a level up by
//! instrumenting one logical core at a time.

/// Whether an access reads or writes (writes allocate like reads here;
/// a write-allocate, write-back policy is assumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// Last-level cache hit.
    Llc,
    /// Missed everywhere — DRAM.
    Memory,
}

/// Geometry of the modeled hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct CacheGeometry {
    /// L1D size in bytes.
    pub l1_bytes: usize,
    /// L1D associativity.
    pub l1_ways: usize,
    /// L2 size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// LLC size in bytes (per-process slice on shared LLCs).
    pub llc_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Line size in bytes (64 on all modeled machines).
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Client Skylake/Kaby Lake (i5-7600): 32K/8 L1D, 256K/4 L2, 6M/12 LLC.
    pub fn client_skylake() -> CacheGeometry {
        CacheGeometry {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l2_bytes: 256 << 10,
            l2_ways: 4,
            llc_bytes: 6 << 20,
            llc_ways: 12,
            line_bytes: 64,
        }
    }

    /// Server Skylake-SP (Xeon Gold): 32K/8 L1D, 1M/16 L2, 22M/11 LLC.
    pub fn server_skylake() -> CacheGeometry {
        CacheGeometry {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l2_bytes: 1 << 20,
            l2_ways: 16,
            llc_bytes: 22 << 20,
            llc_ways: 11,
            line_bytes: 64,
        }
    }
}

/// The in-set tag a cache way stores, at some width. `INVALID` marks an
/// empty way; no line's tag equals it.
pub trait WayTag: Copy + PartialEq {
    /// Marks an invalid way.
    const INVALID: Self;

    /// In-set tag `tag` of the line holding `addr`, at this width.
    ///
    /// # Panics
    ///
    /// If `tag` does not fit — a simulator invariant (see
    /// [`CacheHierarchy`]).
    fn narrow(tag: u64, addr: u64) -> Self;
}

impl WayTag for u64 {
    const INVALID: u64 = u64::MAX;

    #[inline(always)]
    fn narrow(tag: u64, _addr: u64) -> u64 {
        tag
    }
}

impl WayTag for u32 {
    const INVALID: u32 = u32::MAX;

    #[inline(always)]
    fn narrow(tag: u64, addr: u64) -> u32 {
        if tag >= u64::from(u32::MAX) {
            narrowing_failed(tag, addr);
        }
        tag as u32
    }
}

#[cold]
#[inline(never)]
fn narrowing_failed(tag: u64, addr: u64) -> ! {
    panic!(
        "simulator invariant: address {addr:#x} has in-set tag {tag:#x}, \
         which does not fit a 32-bit cache way"
    )
}

/// One set-associative, true-LRU cache level with `T`-wide tags.
///
/// Each set's ways are stored in recency order, most recently used
/// first; invalid ways sit at the tail. An access carries its tag in at
/// the front and shifts each way down by one until it displaces its own
/// tag (a hit) or drops the tail (a miss) — an invalid way if the set has
/// one, otherwise the least recently used line. Lookup is associative
/// within the set, so the hit/miss sequence is exactly that of a per-way
/// LRU-stamp model, with half the memory and no victim scan.
///
/// A way stores the line's in-set tag, `line >> set_bits`: every line of
/// a set shares its low `set_bits`, so the quotient names the line within
/// the set.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T: WayTag = u64> {
    sets: usize,
    ways: usize,
    line_shift: u32,
    set_bits: u32,
    /// `sets * ways` in-set tags, each set ordered MRU → LRU.
    tags: Vec<T>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache of `size_bytes` with `ways`-way sets of
    /// `line_bytes`-byte lines and 64-bit tags. `size_bytes` must be a
    /// multiple of `ways * line_bytes` and the set count must be a power
    /// of two.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> SetAssocCache {
        SetAssocCache::with_tags(size_bytes, ways, line_bytes)
    }
}

impl<T: WayTag> SetAssocCache<T> {
    /// [`SetAssocCache::new`] at any tag width.
    fn with_tags(size_bytes: usize, ways: usize, line_bytes: usize) -> SetAssocCache<T> {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be 2^k (got {sets})");
        SetAssocCache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            tags: vec![T::INVALID; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Look up the line containing `addr`; on miss, fill with LRU
    /// replacement. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = ((line as usize) & (self.sets - 1)) * self.ways;
        let tag = T::narrow(line >> self.set_bits, addr);
        let mut carry = tag;
        let mut hit = false;
        for way in &mut self.tags[base..base + self.ways] {
            let held = std::mem::replace(way, carry);
            if held == tag {
                hit = true;
                break;
            }
            carry = held;
        }
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Invalidate everything (e.g. between benchmark repetitions).
    pub fn flush(&mut self) {
        self.tags.fill(T::INVALID);
    }

    /// (hits, misses) since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero the hit/miss counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of sets (for tests).
    pub fn sets(&self) -> usize {
        self.sets
    }
}

/// Three-level hierarchy with per-level stats: fill-on-miss at every
/// level, non-inclusive.
///
/// An access looks up L1, then L2, then the LLC, and stops at the first
/// hit; every level it reached and missed fills the line. Nothing
/// back-invalidates: an LLC eviction leaves the line in L1 and L2, and a
/// hit in L1 or L2 does not refresh the line's recency below it.
///
/// L1 keeps 64-bit in-set tags; L2 and the LLC keep 32-bit ones. Every
/// simulated address is below `2^47`, the kernel's page-table shadow
/// lines included (`2^45` plus `level << 40`). With 64-byte lines and at
/// least 1024 sets, as L2 and the LLC have in both Skylake geometries, an
/// in-set tag is then below `2^31`. The L1's 64 sets leave shadow lines
/// 35-bit tags, so it stays wide. Each L2 and LLC access checks the
/// narrowing and panics on a tag that does not fit.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache<u64>,
    l2: SetAssocCache<u32>,
    llc: SetAssocCache<u32>,
    /// Total accesses presented to the hierarchy.
    accesses: u64,
}

impl CacheHierarchy {
    /// Build from a geometry.
    pub fn new(geo: &CacheGeometry) -> CacheHierarchy {
        CacheHierarchy {
            l1: SetAssocCache::new(geo.l1_bytes, geo.l1_ways, geo.line_bytes),
            l2: SetAssocCache::with_tags(geo.l2_bytes, geo.l2_ways, geo.line_bytes),
            llc: SetAssocCache::with_tags(geo.llc_bytes, geo.llc_ways, geo.line_bytes),
            accesses: 0,
        }
    }

    /// Route one access through the hierarchy; returns the servicing level.
    /// Every level that missed on the way fills the line.
    ///
    /// # Panics
    ///
    /// If the access reaches L2 or the LLC with an in-set tag that does not
    /// fit 32 bits — an address outside the simulated address space.
    pub fn access(&mut self, addr: u64, _kind: AccessKind) -> CacheLevel {
        self.accesses += 1;
        if self.l1.access(addr) {
            return CacheLevel::L1;
        }
        if self.l2.access(addr) {
            return CacheLevel::L2;
        }
        if self.llc.access(addr) {
            return CacheLevel::Llc;
        }
        CacheLevel::Memory
    }

    /// Total accesses presented.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Per-level `(hits, misses)`: `[l1, l2, llc]`.
    pub fn level_stats(&self) -> [(u64, u64); 3] {
        [self.l1.stats(), self.l2.stats(), self.llc.stats()]
    }

    /// Invalidate all levels.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
    }

    /// Zero counters, keep contents.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = SetAssocCache::new(32 << 10, 8, 64);
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000)); // hit
        assert!(c.access(0x1038)); // same line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 sets x 2 ways x 64B lines = 256B cache.
        let mut c = SetAssocCache::new(256, 2, 64);
        assert_eq!(c.sets(), 2);
        // Three distinct lines in set 0 (stride = sets*line = 128B).
        c.access(0); // line A
        c.access(128); // line B
        c.access(256); // line C evicts A
        assert!(!c.access(0), "A must have been evicted");
        assert!(c.access(256), "C must still be resident");
    }

    #[test]
    fn streaming_larger_than_cache_misses() {
        let mut c = SetAssocCache::new(32 << 10, 8, 64);
        // Stream 1 MiB twice: second pass still misses (capacity).
        for pass in 0..2 {
            for addr in (0..(1u64 << 20)).step_by(64) {
                c.access(addr);
            }
            let (h, m) = c.stats();
            assert!(m > h, "pass {pass}: streaming should be miss-dominated");
        }
    }

    #[test]
    fn hierarchy_fills_downward() {
        let mut h = CacheHierarchy::new(&CacheGeometry::client_skylake());
        assert_eq!(h.access(0x4000, AccessKind::Read), CacheLevel::Memory);
        assert_eq!(h.access(0x4000, AccessKind::Read), CacheLevel::L1);
        assert_eq!(h.accesses(), 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let geo = CacheGeometry {
            l1_bytes: 256,
            l1_ways: 2,
            l2_bytes: 4096,
            l2_ways: 4,
            llc_bytes: 1 << 16,
            llc_ways: 4,
            line_bytes: 64,
        };
        let mut h = CacheHierarchy::new(&geo);
        // Fill set 0 of L1 beyond capacity; evicted line still in L2.
        h.access(0, AccessKind::Read);
        h.access(128, AccessKind::Read);
        h.access(256, AccessKind::Read); // evicts line 0 from L1
        assert_eq!(h.access(0, AccessKind::Read), CacheLevel::L2);
    }
}
