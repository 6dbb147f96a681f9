//! Differential test of the per-core TLB: the recency-ordered [`Tlb`]
//! against a per-way LRU-stamp model of the same two-level hierarchy.
//!
//! The model is the TLB this crate shipped before its sets were kept in
//! recency order: every way carries a stamp from a per-level tick, `0`
//! marks an invalid way, an insert evicts the way with the smallest stamp
//! (an invalid one first), and residency is answered by scanning. Random
//! op sequences must produce the same hit level and frame on every lookup
//! and the same `stats()`, `l1_misses()`, `resident()` and `holds_asid()`
//! after every op.
//!
//! Offline std-only: each case draws its inputs from the deterministic
//! `SimRng` (splitmix64). A failing case panics with the property name,
//! the case's seed, and the failing step, so it reproduces from the
//! message alone.

use svagc_metrics::SimRng;
use svagc_vmem::{Asid, FrameId, Tlb, TlbConfig, TlbHit};

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

/// One TLB level as per-way LRU stamps.
struct StampArray {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    /// `0` marks an invalid way; the tick pre-increments, so every real
    /// stamp is at least 1.
    stamps: Vec<u64>,
    frames: Vec<FrameId>,
    tick: u64,
}

fn tag_of(asid: Asid, vpn: u64) -> u64 {
    (vpn << 16) | asid.0 as u64
}

impl StampArray {
    fn new(entries: usize, ways: usize) -> StampArray {
        StampArray {
            sets: entries / ways,
            ways,
            tags: vec![0; entries],
            stamps: vec![0; entries],
            frames: vec![FrameId::default(); entries],
            tick: 0,
        }
    }

    fn set(&self, vpn: u64) -> std::ops::Range<usize> {
        let base = (vpn as usize % self.sets) * self.ways;
        base..base + self.ways
    }

    fn find(&self, asid: Asid, vpn: u64) -> Option<usize> {
        let tag = tag_of(asid, vpn);
        self.set(vpn)
            .find(|&w| self.tags[w] == tag && self.stamps[w] != 0)
    }

    fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<FrameId> {
        self.tick += 1;
        let w = self.find(asid, vpn)?;
        self.stamps[w] = self.tick;
        Some(self.frames[w])
    }

    fn insert(&mut self, asid: Asid, vpn: u64, frame: FrameId) {
        self.tick += 1;
        let victim = self
            .set(vpn)
            .min_by_key(|&w| self.stamps[w])
            .expect("at least one way");
        self.tags[victim] = tag_of(asid, vpn);
        self.stamps[victim] = self.tick;
        self.frames[victim] = frame;
    }

    fn flush_page(&mut self, asid: Asid, vpn: u64) {
        let tag = tag_of(asid, vpn);
        for w in self.set(vpn) {
            if self.tags[w] == tag {
                self.stamps[w] = 0;
            }
        }
    }

    fn flush_asid(&mut self, asid: Asid) {
        for (s, &t) in self.stamps.iter_mut().zip(&self.tags) {
            if t as u16 == asid.0 {
                *s = 0;
            }
        }
    }

    fn flush_all(&mut self) {
        self.stamps.fill(0);
    }

    fn valid(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    fn holds(&self, asid: Asid) -> bool {
        self.stamps
            .iter()
            .zip(&self.tags)
            .any(|(&s, &t)| s != 0 && t as u16 == asid.0)
    }
}

/// The two-level stamp model, with [`Tlb`]'s statistics.
struct StampTlb {
    l1: StampArray,
    stlb: StampArray,
    lookups: u64,
    l1_misses: u64,
    misses: u64,
}

impl StampTlb {
    fn new(cfg: TlbConfig) -> StampTlb {
        StampTlb {
            l1: StampArray::new(cfg.l1_entries, cfg.l1_ways),
            stlb: StampArray::new(cfg.stlb_entries, cfg.stlb_ways),
            lookups: 0,
            l1_misses: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, asid: Asid, vpn: u64) -> (TlbHit, Option<FrameId>) {
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

    fn insert(&mut self, asid: Asid, vpn: u64, frame: FrameId) {
        self.stlb.insert(asid, vpn, frame);
        self.l1.insert(asid, vpn, frame);
    }

    /// `n` real lookups, each of which must hit the L1.
    fn repeat_l1_hits(&mut self, asid: Asid, vpn: u64, n: u64) -> Result<(), String> {
        for _ in 0..n {
            if self.lookup(asid, vpn).0 != TlbHit::L1 {
                return Err("model: a repeated hit left the L1".into());
            }
        }
        Ok(())
    }

    fn resident(&self) -> usize {
        self.l1.valid() + self.stlb.valid()
    }

    fn holds(&self, asid: Asid) -> bool {
        self.l1.holds(asid) || self.stlb.holds(asid)
    }
}

/// The observable state of both TLBs agrees: statistics and residency,
/// for every ASID of the case and one it never uses.
fn same_observables(t: &Tlb, m: &StampTlb, asids: &[Asid]) -> Result<(), String> {
    if t.stats() != (m.lookups, m.misses) {
        return Err(format!(
            "stats {:?} != model {:?}",
            t.stats(),
            (m.lookups, m.misses)
        ));
    }
    if t.l1_misses() != m.l1_misses {
        return Err(format!(
            "l1_misses {} != model {}",
            t.l1_misses(),
            m.l1_misses
        ));
    }
    if t.resident() != m.resident() {
        return Err(format!(
            "resident {} != model {}",
            t.resident(),
            m.resident()
        ));
    }
    let unused = (0..=u16::MAX).map(Asid).find(|a| !asids.contains(a));
    for &a in asids.iter().chain(unused.iter()) {
        if t.holds_asid(a) != m.holds(a) {
            return Err(format!("holds_asid({a:?}) {} != model", t.holds_asid(a)));
        }
    }
    Ok(())
}

/// The kernel's translation: a lookup, then a fill on a miss.
fn translate(
    t: &mut Tlb,
    m: &mut StampTlb,
    rng: &mut SimRng,
    asid: Asid,
    vpn: u64,
) -> Result<(), String> {
    let (got, want) = (t.lookup(asid, vpn), m.lookup(asid, vpn));
    if got != want {
        return Err(format!("lookup gave {got:?}, model {want:?}"));
    }
    if got.0 == TlbHit::Miss {
        let f = FrameId(rng.gen_range(0..1u32 << 20));
        t.insert(asid, vpn, f);
        m.insert(asid, vpn, f);
    }
    Ok(())
}

/// Drive a [`Tlb`] of geometry `cfg` and the stamp model through one
/// random op sequence. VPNs come from a few residues times the STLB set
/// count (so they collide in one set of each level and both levels
/// evict), plus an occasional VPN anywhere below 2^36.
fn differential_case(rng: &mut SimRng, cfg: TlbConfig) -> Result<(), String> {
    let stlb_sets = (cfg.stlb_entries / cfg.stlb_ways) as u64;
    let n_asids = rng.gen_range(1..5usize);
    let asids: Vec<Asid> = (0..n_asids)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => Asid(0),
            1 => Asid(u16::MAX),
            _ => Asid(rng.gen_range(1..64u32) as u16),
        })
        .collect();
    let pages = rng.gen_range(2..4 * (cfg.stlb_ways as u64 + 1));
    let mut t = Tlb::new(cfg);
    let mut m = StampTlb::new(cfg);
    let steps = rng.gen_range(200..1200usize);
    for step in 0..steps {
        let asid = asids[rng.gen_range(0..n_asids)];
        let vpn = if rng.gen_range(0..32u32) == 0 {
            rng.gen_range(0..1u64 << 36)
        } else {
            rng.gen_range(0..3u64) * 5 + rng.gen_range(0..pages) * stlb_sets
        };
        let op = rng.gen_range(0..20u32);
        let what = match op {
            // A lookup alone.
            0..=5 => {
                let (got, want) = (t.lookup(asid, vpn), m.lookup(asid, vpn));
                if got == want {
                    Ok(())
                } else {
                    Err(format!("lookup gave {got:?}, model {want:?}"))
                }
            }
            6..=10 => translate(&mut t, &mut m, rng, asid, vpn),
            // A fill without a lookup, of a page neither level holds.
            11 | 12 => {
                if m.l1.find(asid, vpn).is_none() && m.stlb.find(asid, vpn).is_none() {
                    let f = FrameId(rng.gen_range(0..1u32 << 20));
                    t.insert(asid, vpn, f);
                    m.insert(asid, vpn, f);
                }
                Ok(())
            }
            // A page's first line, then its further lines in closed form,
            // as `Kernel::stream_lines` does.
            13 | 14 => translate(&mut t, &mut m, rng, asid, vpn).and_then(|()| {
                let n = rng.gen_range(1..64u64);
                t.repeat_l1_hits(asid, vpn, n);
                m.repeat_l1_hits(asid, vpn, n)
            }),
            15 => {
                t.flush_page(asid, vpn);
                m.l1.flush_page(asid, vpn);
                m.stlb.flush_page(asid, vpn);
                Ok(())
            }
            16 | 17 => {
                t.flush_asid(asid);
                m.l1.flush_asid(asid);
                m.stlb.flush_asid(asid);
                Ok(())
            }
            18 => {
                if rng.gen_range(0..4u32) == 0 {
                    t.flush_all();
                    m.l1.flush_all();
                    m.stlb.flush_all();
                }
                Ok(())
            }
            _ => {
                t.reset_stats();
                m.lookups = 0;
                m.l1_misses = 0;
                m.misses = 0;
                Ok(())
            }
        };
        if let Err(e) = what.and_then(|()| same_observables(&t, &m, &asids)) {
            return Err(format!(
                "step {step} op {op} {asid:?} vpn {vpn:#x} (asids {asids:?}, {pages} pages per set): {e}"
            ));
        }
    }
    // Every resident page answers as the model does, at its level.
    for &asid in &asids {
        for vpn in (0..3u64).flat_map(|r| (0..pages).map(move |k| r * 5 + k * stlb_sets)) {
            let (got, want) = (t.lookup(asid, vpn), m.lookup(asid, vpn));
            if got != want {
                return Err(format!(
                    "final lookup({asid:?}, {vpn:#x}) gave {got:?}, model {want:?}"
                ));
            }
        }
    }
    same_observables(&t, &m, &asids)
}

#[test]
fn skylake_tlb_matches_stamp_lru() {
    check("skylake_tlb_matches_stamp_lru", 0x7_1b00, 48, |rng| {
        differential_case(rng, TlbConfig::skylake())
    });
}

/// 4 sets of 2 ways over 8 sets of 4 ways: a handful of pages evicts
/// from both levels.
#[test]
fn small_tlb_matches_stamp_lru() {
    let small = TlbConfig {
        l1_entries: 8,
        l1_ways: 2,
        stlb_entries: 32,
        stlb_ways: 4,
    };
    check("small_tlb_matches_stamp_lru", 0x7_1c00, 128, |rng| {
        differential_case(rng, small)
    });
}

/// Look up every `(asid, vpn)` the case inserted in both TLBs. Lookups
/// move the same ways in both, so the sweep itself keeps them in step.
fn sweep(t: &mut Tlb, m: &mut StampTlb, touched: &[(Asid, u64)]) -> Result<(), String> {
    for &(asid, vpn) in touched {
        let (got, want) = (t.lookup(asid, vpn), m.lookup(asid, vpn));
        if got != want {
            return Err(format!(
                "sweep lookup({asid:?}, {vpn:#x}) gave {got:?}, model {want:?}"
            ));
        }
    }
    Ok(())
}

/// Drive a [`Tlb`] and the stamp model with runs of consecutive VPNs, as a
/// compaction's multi-page objects touch them: each run fills a stretch of
/// sets at both levels, so a flush that skipped a filled set would leave
/// live entries behind. After every flush, every VPN the case inserted is
/// looked up in both. Half the cases use one ASID (every `flush_asid`
/// takes the sole-ASID path), half use two (the tag-comparing path);
/// `flush_all` sometimes follows a `flush_page`, which may leave a set
/// empty but marked.
fn run_case(rng: &mut SimRng, cfg: TlbConfig) -> Result<(), String> {
    let asids = if rng.gen_range(0..2u32) == 0 {
        vec![Asid(rng.gen_range(1..64u32) as u16)]
    } else {
        vec![Asid(rng.gen_range(1..64u32) as u16), Asid(rng.gen_range(64..128u32) as u16)]
    };
    let mut t = Tlb::new(cfg);
    let mut m = StampTlb::new(cfg);
    let mut touched: Vec<(Asid, u64)> = Vec::new();
    let steps = rng.gen_range(10..40usize);
    for step in 0..steps {
        let asid = asids[rng.gen_range(0..asids.len())];
        let op = rng.gen_range(0..10u32);
        let what = match op {
            0..=5 => {
                let start = rng.gen_range(0..1u64 << 24);
                let len = rng.gen_range(1..160u64);
                (start..start + len).try_for_each(|vpn| {
                    touched.push((asid, vpn));
                    translate(&mut t, &mut m, rng, asid, vpn)
                })
            }
            6 | 7 => {
                t.flush_asid(asid);
                m.l1.flush_asid(asid);
                m.stlb.flush_asid(asid);
                sweep(&mut t, &mut m, &touched)
            }
            _ => {
                if let Some(&(a, vpn)) = touched.get(rng.gen_range(0..touched.len().max(1))) {
                    t.flush_page(a, vpn);
                    m.l1.flush_page(a, vpn);
                    m.stlb.flush_page(a, vpn);
                    sweep(&mut t, &mut m, &touched)?;
                }
                t.flush_all();
                m.l1.flush_all();
                m.stlb.flush_all();
                sweep(&mut t, &mut m, &touched)
            }
        };
        if let Err(e) = what.and_then(|()| same_observables(&t, &m, &asids)) {
            return Err(format!("step {step} op {op} {asid:?} (asids {asids:?}): {e}"));
        }
    }
    Ok(())
}

#[test]
fn skylake_flushes_clear_every_filled_set() {
    check("skylake_flushes_clear_every_filled_set", 0x7_1d00, 48, |rng| {
        run_case(rng, TlbConfig::skylake())
    });
}
