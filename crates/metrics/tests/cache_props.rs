//! Property tests of the measurement substrate: cache replacement laws,
//! agreement of the recency-ordered cache and of the three-level hierarchy
//! with stamp-based true-LRU models, and perf-counter algebra.
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_metrics::{
    AccessKind, CacheGeometry, CacheHierarchy, CacheLevel, PerfCounters, SetAssocCache, SimRng,
};

/// Run `property` on `cases` generated cases. Case `i` draws its inputs
/// from `SimRng::seed_from_u64(base_seed + i)`; a failure reports that
/// seed and the property's description of the case.
fn check(
    name: &str,
    base_seed: u64,
    cases: u64,
    property: impl Fn(&mut SimRng) -> Result<(), String>,
) {
    for i in 0..cases {
        let seed = base_seed + i;
        if let Err(case) = property(&mut SimRng::seed_from_u64(seed)) {
            panic!("property `{name}` failed on case {i} (seed {seed:#x}): {case}");
        }
    }
}

/// A random trace of `len` line indices below `lines`.
fn trace(rng: &mut SimRng, lines: u64, len: usize) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..lines)).collect()
}

/// A cache with capacity C lines never misses on a working set of at most
/// C distinct lines after the cold pass — LRU's basic guarantee.
#[test]
fn lru_retains_small_working_sets() {
    check("lru_retains_small_working_sets", 0x1_0000, 256, |rng| {
        let distinct = rng.gen_range(1..16usize);
        let len = rng.gen_range(1..300usize);
        let accesses = trace(rng, 16, len);
        // 16 lines of capacity in one set (16-way, one set).
        let mut c = SetAssocCache::new(16 * 64, 16, 64);
        let lines: Vec<u64> = (0..distinct as u64).map(|i| i * 64).collect();
        for &l in &lines {
            c.access(l);
        }
        c.reset_stats();
        for &a in &accesses {
            c.access(lines[a as usize % distinct]);
        }
        let (_, misses) = c.stats();
        if misses == 0 {
            Ok(())
        } else {
            Err(format!(
                "{misses} misses; distinct={distinct} accesses={accesses:?}"
            ))
        }
    });
}

/// Inclusion monotonicity: a bigger cache of the same shape never has more
/// misses on the same trace.
#[test]
fn bigger_cache_never_misses_more() {
    check("bigger_cache_never_misses_more", 0x2_0000, 256, |rng| {
        let len = rng.gen_range(1..400usize);
        let t = trace(rng, 256, len);
        let mut small = SetAssocCache::new(8 * 64, 8, 64); // 8 lines, 1 set
        let mut big = SetAssocCache::new(32 * 64, 32, 64); // 32 lines, 1 set
        for &l in &t {
            small.access(l * 64);
            big.access(l * 64);
        }
        let (_, m_small) = small.stats();
        let (_, m_big) = big.stats();
        if m_big <= m_small {
            Ok(())
        } else {
            Err(format!("big {m_big} vs small {m_small}; trace={t:?}"))
        }
    });
}

/// Counter algebra: `(a + b) - b == a`, and merging equals adding.
#[test]
fn perf_counter_algebra() {
    check("perf_counter_algebra", 0x3_0000, 256, |rng| {
        let vals: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let build = |off: usize| {
            let mut c = PerfCounters::new();
            c.syscalls = vals[off % 16];
            c.pte_swaps = vals[(off + 1) % 16];
            c.bytes_copied = vals[(off + 2) % 16];
            c.tlb_lookups = vals[(off + 3) % 16];
            c.tlb_misses = vals[(off + 4) % 16].min(c.tlb_lookups);
            c.ipis_sent = vals[(off + 5) % 16];
            c.cache_references = vals[(off + 6) % 16];
            c.cache_misses = vals[(off + 7) % 16].min(c.cache_references);
            c
        };
        let (a, b) = (build(0), build(5));
        let mut m = PerfCounters::new();
        m.merge(&a);
        m.merge(&b);
        if (a + b) - b == a && m == a + b {
            Ok(())
        } else {
            Err(format!("vals={vals:?}"))
        }
    });
}

/// Reference true-LRU cache: a tag and a last-use stamp per way, victim =
/// first invalid way, else the smallest stamp.
struct StampLru {
    sets: usize,
    ways: usize,
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    tick: u64,
}

impl StampLru {
    fn new(sets: usize, ways: usize) -> StampLru {
        StampLru {
            sets,
            ways,
            tags: vec![None; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        let base = (line as usize % self.sets) * self.ways;
        let set = base..base + self.ways;
        if let Some(w) = set.clone().find(|&w| self.tags[w] == Some(line)) {
            self.stamps[w] = self.tick;
            return true;
        }
        let victim = set
            .clone()
            .find(|&w| self.tags[w].is_none())
            .unwrap_or_else(|| set.min_by_key(|&w| self.stamps[w]).unwrap());
        self.tags[victim] = Some(line);
        self.stamps[victim] = self.tick;
        false
    }

    fn flush(&mut self) {
        self.tags.fill(None);
    }
}

/// The recency-ordered `SetAssocCache` agrees hit for hit with the stamp
/// model over random geometries, traces over one to four times the
/// capacity (so sets fill and evict), and interleaved flushes.
#[test]
fn recency_order_matches_stamp_lru() {
    check("recency_order_matches_stamp_lru", 0x4_0000, 300, |rng| {
        let sets = 1usize << rng.gen_range(0..5usize);
        let ways = rng.gen_range(1..=16usize);
        let line_bytes = 1u64 << rng.gen_range(4..8u64);
        let mut cache =
            SetAssocCache::new(sets * ways * line_bytes as usize, ways, line_bytes as usize);
        let mut model = StampLru::new(sets, ways);
        // Lines drawn from a window a few times the cache's capacity.
        let universe = (sets * ways) as u64 * rng.gen_range(1..=4u64) + 1;
        let len = rng.gen_range(1..600usize);
        let (mut hits, mut accesses) = (0u64, 0u64);
        for step in 0..len {
            if rng.gen_bool(0.01) {
                cache.flush();
                model.flush();
                continue;
            }
            let line = rng.gen_range(0..universe);
            let addr = line * line_bytes + rng.gen_range(0..line_bytes);
            let (got, want) = (cache.access(addr), model.access(line));
            if got != want {
                return Err(format!(
                    "step {step}: line {line} hit={got}, model hit={want} \
                     (sets={sets} ways={ways} line_bytes={line_bytes} universe={universe})"
                ));
            }
            hits += u64::from(want);
            accesses += 1;
        }
        let (h, m) = cache.stats();
        if (h, m) != (hits, accesses - hits) {
            return Err(format!("stats ({h}, {m}) vs model hits {hits}"));
        }
        Ok(())
    });
}

/// Three `StampLru` levels composed the way `CacheHierarchy` composes its
/// own: look up L1, L2, then the LLC, stop at the first hit, and fill every
/// level that missed on the way.
struct StampHierarchy {
    line_bytes: u64,
    levels: [StampLru; 3],
    stats: [(u64, u64); 3],
}

impl StampHierarchy {
    fn new(geo: &CacheGeometry) -> StampHierarchy {
        let level =
            |bytes: usize, ways: usize| StampLru::new(bytes / (ways * geo.line_bytes), ways);
        StampHierarchy {
            line_bytes: geo.line_bytes as u64,
            levels: [
                level(geo.l1_bytes, geo.l1_ways),
                level(geo.l2_bytes, geo.l2_ways),
                level(geo.llc_bytes, geo.llc_ways),
            ],
            stats: [(0, 0); 3],
        }
    }

    fn access(&mut self, addr: u64) -> CacheLevel {
        let line = addr / self.line_bytes;
        let servicing = [CacheLevel::L1, CacheLevel::L2, CacheLevel::Llc];
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(line) {
                self.stats[i].0 += 1;
                return servicing[i];
            }
            self.stats[i].1 += 1;
        }
        CacheLevel::Memory
    }

    fn flush(&mut self) {
        self.levels.iter_mut().for_each(StampLru::flush);
    }
}

/// A random geometry with 1–16 ways per level and 64-byte lines. L2 and
/// the LLC get at least 1024 sets, as both Skylake geometries have, so
/// every simulated address fits their 32-bit in-set tags.
fn random_geometry(rng: &mut SimRng) -> CacheGeometry {
    let mut level = |min_set_bits: usize, max_set_bits: usize| {
        let ways = rng.gen_range(1..=16usize);
        let sets = 1usize << rng.gen_range(min_set_bits..=max_set_bits);
        (sets * ways * 64, ways)
    };
    let (l1_bytes, l1_ways) = level(0, 6);
    let (l2_bytes, l2_ways) = level(10, 11);
    let (llc_bytes, llc_ways) = level(10, 12);
    CacheGeometry {
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        llc_bytes,
        llc_ways,
        line_bytes: 64,
    }
}

/// `CacheHierarchy` agrees with three composed stamp models on the
/// servicing level of every access and on `level_stats()`. Geometries are
/// the two Skylake ones and random small ones. Traces mix page-long
/// sequential runs (the `Kernel::stream_lines` pattern), random lines and
/// page-table shadow lines (`2^45` plus `level << 40`), so the L1's 64-bit
/// tags and the 32-bit tags of L2 and the LLC all run. Addresses sit a
/// multiple of the largest level's set span apart, so they collide in the
/// same sets and every level evicts.
#[test]
fn hierarchy_matches_composed_stamp_lru() {
    check(
        "hierarchy_matches_composed_stamp_lru",
        0x5_0000,
        48,
        |rng| {
            let geo = match rng.gen_range(0..4u64) {
                0 => CacheGeometry::client_skylake(),
                1 => CacheGeometry::server_skylake(),
                _ => random_geometry(rng),
            };
            let mut cache = CacheHierarchy::new(&geo);
            let mut model = StampHierarchy::new(&geo);
            let max_sets = [
                (geo.l1_bytes, geo.l1_ways),
                (geo.l2_bytes, geo.l2_ways),
                (geo.llc_bytes, geo.llc_ways),
            ]
            .iter()
            .map(|&(bytes, ways)| bytes / (ways * geo.line_bytes))
            .max()
            .unwrap();
            let span = (max_sets * geo.line_bytes) as u64;
            let max_ways = geo.l1_ways.max(geo.l2_ways).max(geo.llc_ways) as u64;
            let rows = rng.gen_range(1..=2 * max_ways + 2);
            let pages: Vec<u64> = (0..rng.gen_range(1..=3 * max_ways))
                .map(|_| rng.gen_range(0..rows) * span + rng.gen_range(0..4u64) * 4096)
                .collect();
            let runs = rng.gen_range(1..120usize);
            // `None` flushes both.
            let mut addrs = Vec::new();
            for _ in 0..runs {
                let page = pages[rng.gen_range(0..pages.len())];
                match rng.gen_range(0..3u64) {
                    0 => addrs.extend((0..64).map(|l| Some(page + l * 64))),
                    1 => addrs.extend((0..rng.gen_range(1..32u64)).map(|_| {
                        Some(pages[rng.gen_range(0..pages.len())] + rng.gen_range(0..4096u64))
                    })),
                    _ => addrs.extend((0..rng.gen_range(1..32u64)).map(|_| {
                        Some(
                            (1 << 45)
                                + (rng.gen_range(0..4u64) << 40)
                                + rng.gen_range(0..rows) * span
                                + rng.gen_range(0..512u64) * 8,
                        )
                    })),
                }
                if rng.gen_bool(0.02) {
                    addrs.push(None);
                }
            }
            let mut accesses = 0u64;
            for (step, &addr) in addrs.iter().enumerate() {
                let Some(addr) = addr else {
                    cache.flush();
                    model.flush();
                    continue;
                };
                let (got, want) = (cache.access(addr, AccessKind::Read), model.access(addr));
                accesses += 1;
                if got != want {
                    return Err(format!(
                        "step {step}: addr {addr:#x} serviced by {got:?}, model {want:?} ({geo:?})"
                    ));
                }
            }
            if cache.level_stats() != model.stats || cache.accesses() != accesses {
                return Err(format!(
                    "stats {:?} over {} accesses vs model {:?} over {accesses} ({geo:?})",
                    cache.level_stats(),
                    cache.accesses(),
                    model.stats
                ));
            }
            Ok(())
        },
    );
}

/// An L2 address whose in-set tag does not fit 32 bits trips the narrowing
/// check instead of aliasing another line. The client L2 has 1024 sets of
/// 64-byte lines, so its in-set tag is `addr >> 16`.
#[test]
#[should_panic(expected = "does not fit a 32-bit cache way")]
fn l2_narrowing_check_trips() {
    let mut cache = CacheHierarchy::new(&CacheGeometry::client_skylake());
    cache.access(1 << 48, AccessKind::Read);
}
