//! The shared churn engine most benchmarks are built from.
//!
//! A benchmark, from the GC's point of view, is (a) a live set with an
//! object-size distribution, (b) a churn process that retires and
//! re-allocates objects (creating the garbage that fills the 0.2×/1×
//! headroom and triggers full collections), and (c) a compute intensity
//! that sets the app:GC time ratio. The eleven workloads configure this
//! engine (several add bespoke structure on top — trees, graphs, caches).

use crate::env::JvmEnv;
use crate::workload::Workload;
use svagc_core::GcError;
use svagc_heap::{ObjRef, ObjShape, RootId};
use svagc_metrics::{Cycles, SimRng};

/// Object-size distributions (payload bytes).
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Every object the same size.
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform(u64, u64),
    /// Two-point mixture: `small` with probability `1 - p_large`, `large`
    /// with `p_large` — models suites whose mean hides a heavy tail.
    Mix {
        /// Small-object size.
        small: u64,
        /// Large-object size.
        large: u64,
        /// Probability of drawing `large`.
        p_large: f64,
    },
    /// Log-uniform in `[lo, hi]` (the LRU cache's "1 B to 2 MB" values).
    LogUniform(u64, u64),
}

impl SizeDist {
    /// Draw a size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            SizeDist::Mix { small, large, p_large } => {
                if rng.gen_bool(p_large) {
                    large
                } else {
                    small
                }
            }
            SizeDist::LogUniform(lo, hi) => {
                let (llo, lhi) = ((lo.max(1) as f64).ln(), (hi as f64).ln());
                rng.gen_range(llo..=lhi).exp() as u64
            }
        }
    }

    /// Mean size (for heap sizing).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(s) => s as f64,
            SizeDist::Uniform(lo, hi) => (lo + hi) as f64 / 2.0,
            SizeDist::Mix { small, large, p_large } => {
                small as f64 * (1.0 - p_large) + large as f64 * p_large
            }
            SizeDist::LogUniform(lo, hi) => {
                let (llo, lhi) = ((lo.max(1) as f64).ln(), (hi as f64).ln());
                ((lhi.exp() - llo.exp()) / (lhi - llo)).max(1.0)
            }
        }
    }

    /// Largest possible draw.
    pub fn max(&self) -> u64 {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Uniform(_, hi) | SizeDist::LogUniform(_, hi) => hi,
            SizeDist::Mix { large, .. } => large,
        }
    }
}

/// Parameters of a churn benchmark.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Display name.
    pub name: String,
    /// Mutator threads (Table II).
    pub threads: u32,
    /// Live objects to keep.
    pub live_objects: usize,
    /// Object-size distribution.
    pub size: SizeDist,
    /// Reference fields per object (wired to long-lived hubs; exercises
    /// the adjust phase without making liveness non-stationary).
    pub refs_per_object: u32,
    /// Fraction of the live set's bytes allocated per step
    /// (garbage + replacements). Controls GC frequency.
    pub alloc_fraction_per_step: f64,
    /// Modeled compute cycles per live byte touched per step ×1000 —
    /// high for compute-bound suites (CryptoAES), low for memory-bound
    /// (SOR, Sparse).
    pub compute_millicycles_per_byte: u64,
    /// Steps in a standard run.
    pub steps: usize,
    /// RNG seed (runs are fully deterministic).
    pub seed: u64,
}

/// A live, stamped object the engine tracks.
#[derive(Debug, Clone, Copy)]
struct LiveObj {
    rid: RootId,
    shape: ObjShape,
    seed: u64,
}

/// The engine: a stationary live set under churn.
pub struct ChurnWorkload {
    spec: ChurnSpec,
    /// Shapes of the initial live set, pre-drawn so the minimum-heap
    /// estimate is exact (setup allocates exactly these).
    initial_shapes: Vec<ObjShape>,
    live: Vec<LiveObj>,
    /// Root slots of the long-lived hub objects (never raw `ObjRef`s:
    /// any allocation can trigger a compaction that moves them).
    hubs: Vec<RootId>,
    rng: SimRng,
    next_seed: u64,
    min_heap: u64,
}

const HUB_COUNT: usize = 8;

impl ChurnWorkload {
    /// Build the engine from a spec.
    pub fn new(spec: ChurnSpec) -> ChurnWorkload {
        // Pre-draw the initial shapes to compute the exact minimum heap:
        // live bytes + alignment slack + room for one churn batch.
        let mut rng = SimRng::seed_from_u64(spec.seed);
        let mut live_bytes = 0u64;
        let mut large_count = 0u64;
        let mut initial_shapes = Vec::with_capacity(spec.live_objects);
        for _ in 0..spec.live_objects {
            let s = spec.size.sample(&mut rng);
            let shape = Self::shape_for(&spec, s);
            live_bytes += shape.size_bytes();
            if shape.size_bytes() >= 10 * 4096 {
                large_count += 2; // pre- and post-alignment gaps
            }
            initial_shapes.push(shape);
        }
        let align_slack = (large_count + 1) * 4096;
        let batch = (live_bytes as f64 * spec.alloc_fraction_per_step) as u64;
        let min_heap = live_bytes + align_slack + batch.max(spec.size.max() * 2) + (64 << 10);
        ChurnWorkload {
            rng: SimRng::seed_from_u64(spec.seed), // fresh stream for the run
            spec,
            initial_shapes,
            live: Vec::new(),
            hubs: Vec::new(),
            next_seed: 1,
            min_heap,
        }
    }

    fn shape_for(spec: &ChurnSpec, payload_bytes: u64) -> ObjShape {
        ObjShape::with_refs(
            spec.refs_per_object,
            payload_bytes.div_ceil(8).max(1) as u32,
        )
    }

    /// Allocate a live object of an exact shape (replacements reuse the
    /// replaced object's shape so the live-set composition is stationary
    /// by construction — the minimum-heap estimate stays exact).
    fn alloc_live_shaped(
        &mut self,
        env: &mut JvmEnv,
        shape: ObjShape,
    ) -> Result<LiveObj, GcError> {
        let seed = self.next_seed;
        self.next_seed += 1_000_000;
        let (rid, obj) = env.alloc_stamped(shape, seed)?;
        for r in 0..self.spec.refs_per_object as u64 {
            let hub_rid = self.hubs[self.rng.gen_range(0..self.hubs.len())];
            let hub = env.roots.get(hub_rid);
            env.write_ref(obj, r, hub)?;
        }
        Ok(LiveObj { rid, shape, seed })
    }
}

impl Workload for ChurnWorkload {
    fn name(&self) -> String {
        self.spec.name.clone()
    }

    fn threads(&self) -> u32 {
        self.spec.threads
    }

    fn min_heap_bytes(&self) -> u64 {
        self.min_heap
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        for i in 0..HUB_COUNT {
            let (rid, _) = env.alloc_stamped(ObjShape::data(4), 0x1100 + i as u64)?;
            self.hubs.push(rid);
        }
        for i in 0..self.spec.live_objects {
            let shape = self.initial_shapes[i];
            let lo = self.alloc_live_shaped(env, shape)?;
            self.live.push(lo);
        }
        Ok(())
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        let target_bytes = (self.min_heap as f64 * self.spec.alloc_fraction_per_step) as u64;
        let mean = self.spec.size.mean().max(64.0);
        let count = ((target_bytes as f64 / mean) as usize).max(1);
        // A quarter of the allocation replaces live objects; the rest is
        // transient garbage.
        let replacements = (count / 4).max(1);
        for _ in 0..replacements {
            let idx = self.rng.gen_range(0..self.live.len());
            let old = self.live[idx];
            env.roots.set(old.rid, ObjRef::NULL);
            let new = self.alloc_live_shaped(env, old.shape)?;
            self.live[idx] = new;
        }
        for _ in 0..count.saturating_sub(replacements) {
            let size = self.spec.size.sample(&mut self.rng);
            let shape = Self::shape_for(&self.spec, size);
            env.alloc(shape)?; // unrooted: instant garbage
        }
        // Compute over a sample of the live set, biased toward a hot
        // subset (real kernels reuse their working vectors; this locality
        // is what memmove-based GC evicts and SwapVA preserves —
        // Table III's mechanism).
        let sample = (self.live.len() / 8).max(1);
        let hot = (self.live.len() / 16).max(1);
        let mut touched = 0u64;
        for i in 0..sample {
            let idx = if i % 4 != 0 {
                self.rng.gen_range(0..hot)
            } else {
                self.rng.gen_range(0..self.live.len())
            };
            let lo = self.live[idx];
            let obj = env.roots.get(lo.rid);
            let bytes = lo.shape.size_bytes();
            env.compute_over(obj, bytes)?;
            touched += bytes;
        }
        env.charge_app(Cycles(
            touched * self.spec.compute_millicycles_per_byte / 1000,
        ));
        Ok(())
    }

    fn default_steps(&self) -> usize {
        self.spec.steps
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        for lo in &self.live {
            env.check_stamped(lo.rid, lo.shape, lo.seed)
                .map_err(|e| format!("{}: {e}", self.spec.name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_dist_sampling_in_range() {
        let mut rng = SimRng::seed_from_u64(7);
        let d = SizeDist::Uniform(100, 200);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((100..=200).contains(&s));
        }
        let lu = SizeDist::LogUniform(1, 1 << 21);
        let mut small = 0;
        for _ in 0..1000 {
            let s = lu.sample(&mut rng);
            assert!(s <= 1 << 21);
            if s < 1024 {
                small += 1;
            }
        }
        assert!(small > 300, "log-uniform favors small sizes ({small})");
    }

    #[test]
    fn mix_mean_matches() {
        let d = SizeDist::Mix {
            small: 8_000,
            large: 101_000,
            p_large: 0.45,
        };
        assert!((d.mean() - 49_850.0).abs() < 1.0);
        assert_eq!(d.max(), 101_000);
    }

    #[test]
    fn min_heap_covers_live_set() {
        let w = ChurnWorkload::new(ChurnSpec {
            name: "t".into(),
            threads: 4,
            live_objects: 100,
            size: SizeDist::Fixed(64 << 10),
            refs_per_object: 0,
            alloc_fraction_per_step: 0.01,
            compute_millicycles_per_byte: 100,
            steps: 10,
            seed: 1,
        });
        // 100 x 64 KiB ≈ 6.4 MB live; min heap must exceed it.
        assert!(w.min_heap_bytes() > 100 * (64 << 10));
        assert!(w.min_heap_bytes() < 2 * 100 * (64 << 10));
    }
}
