//! Set-associative cache simulation for the Table III experiments.
//!
//! `memmove`-based compaction streams every live byte through the cache
//! hierarchy, evicting application working sets; SwapVA only touches page
//! table lines. Table III measures this as cache-miss and DTLB-miss rates.
//! We reproduce it by running the instrumented access streams of both paths
//! through this model.
//!
//! The model is a classic inclusive three-level hierarchy with true-LRU
//! sets. It is intentionally single-observer (one `&mut` user); concurrency
//! is handled a level up by instrumenting one logical core at a time.


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

/// One set-associative, true-LRU cache level.
///
/// Each set's ways are stored in recency order, most recently used
/// first; invalid ways (`u64::MAX`) sit at the tail. A hit moves its tag
/// to the front, a miss shifts the set down one way and drops the tail —
/// an invalid way if the set has one, otherwise the least recently used
/// line. Lookup is associative within the set, so the hit/miss sequence
/// is exactly that of a per-way LRU-stamp model, with half the memory and
/// no victim scan.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets * ways` line tags, each set ordered MRU → LRU;
    /// `u64::MAX` = invalid.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache of `size_bytes` with `ways`-way sets of
    /// `line_bytes`-byte lines. `size_bytes` must be a multiple of
    /// `ways * line_bytes` and the set count must be a power of two.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> SetAssocCache {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be 2^k (got {sets})");
        SetAssocCache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Look up the line containing `addr`; on miss, fill with LRU
    /// replacement. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = ((line as usize) & (self.sets - 1)) * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        let hit = match slots.iter().position(|&t| t == line) {
            Some(w) => {
                slots.copy_within(..w, 1);
                self.hits += 1;
                true
            }
            None => {
                slots.copy_within(..self.ways - 1, 1);
                self.misses += 1;
                false
            }
        };
        slots[0] = line;
        hit
    }

    /// Invalidate everything (e.g. between benchmark repetitions).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
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

/// Three-level inclusive hierarchy with per-level stats.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    /// Total accesses presented to the hierarchy.
    accesses: u64,
}

impl CacheHierarchy {
    /// Build from a geometry.
    pub fn new(geo: &CacheGeometry) -> CacheHierarchy {
        CacheHierarchy {
            l1: SetAssocCache::new(geo.l1_bytes, geo.l1_ways, geo.line_bytes),
            l2: SetAssocCache::new(geo.l2_bytes, geo.l2_ways, geo.line_bytes),
            llc: SetAssocCache::new(geo.llc_bytes, geo.llc_ways, geo.line_bytes),
            accesses: 0,
        }
    }

    /// Route one access through the hierarchy; returns the servicing level.
    /// Lower levels are filled on the way back (inclusive).
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
