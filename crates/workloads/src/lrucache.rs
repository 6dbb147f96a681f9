//! `LRUCache`: the paper's synthetic memory-bound application (Figs. 2/14).
//!
//! A single-threaded cache of `capacity` entries whose values are
//! log-uniformly sized in `[1 B, max]` (the paper draws from `[1, 2 MB]`
//! with 2 K entries; we scale to 256 entries × `[1 B, 512 KB]`). Every
//! step inserts fresh values and evicts the least-recently-used — constant
//! allocation churn across the whole size spectrum, which is what makes
//! multi-JVM GC interference visible.

use crate::env::JvmEnv;
use crate::workload::Workload;
use std::collections::VecDeque;
use svagc_core::GcError;
use svagc_heap::{ObjRef, ObjShape, RootId};
use svagc_metrics::{Cycles, SimRng};

/// One cached value.
#[derive(Debug, Clone, Copy)]
struct Entry {
    rid: RootId,
    shape: ObjShape,
    seed: u64,
}

/// The LRU cache workload.
pub struct LruCache {
    capacity: usize,
    max_value_bytes: u64,
    inserts_per_step: usize,
    queue: VecDeque<Entry>,
    rng: SimRng,
    next_seed: u64,
}

impl LruCache {
    /// The standard configuration (scaled from the paper's 2 K × 2 MB).
    pub fn standard() -> LruCache {
        LruCache::new(256, 512 << 10, 8, 67)
    }

    /// Custom geometry (multi-JVM sweeps use smaller instances).
    pub fn new(
        capacity: usize,
        max_value_bytes: u64,
        inserts_per_step: usize,
        seed: u64,
    ) -> LruCache {
        LruCache {
            capacity,
            max_value_bytes,
            inserts_per_step,
            queue: VecDeque::new(),
            rng: SimRng::seed_from_u64(seed),
            next_seed: 1,
        }
    }

    fn draw_shape(&mut self) -> ObjShape {
        let (llo, lhi) = (1f64.ln(), (self.max_value_bytes as f64).ln());
        let bytes = self.rng.gen_range(llo..=lhi).exp() as u64;
        ObjShape::data_bytes(bytes.max(1))
    }

    fn insert(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        if self.queue.len() >= self.capacity {
            let victim = self
                .queue
                .pop_front()
                .expect("LRU invariant: a queue at capacity > 0 is non-empty");
            env.roots.set(victim.rid, ObjRef::NULL);
        }
        let shape = self.draw_shape();
        let seed = self.next_seed;
        self.next_seed += 1_000_000;
        let (rid, _) = env.alloc_stamped(shape, seed)?;
        self.queue.push_back(Entry { rid, shape, seed });
        Ok(())
    }
}

impl Workload for LruCache {
    fn name(&self) -> String {
        "LRUCache".into()
    }

    fn threads(&self) -> u32 {
        1
    }

    fn min_heap_bytes(&self) -> u64 {
        // Log-uniform mean ≈ (hi - lo) / ln(hi/lo); add headroom for a
        // burst of inserts.
        let mean = self.max_value_bytes as f64 / (self.max_value_bytes as f64).ln();
        (self.capacity as f64 * mean * 1.35) as u64
            + self.max_value_bytes * 2
            + (256 << 10)
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        for _ in 0..self.capacity {
            self.insert(env)?;
        }
        Ok(())
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        for _ in 0..self.inserts_per_step {
            self.insert(env)?;
        }
        // Cache hits: stream whole values (the memory-bound behaviour
        // Figs. 2/14 depend on).
        for _ in 0..self.inserts_per_step * 4 {
            let i = self.rng.gen_range(0..self.queue.len());
            let e = self.queue[i];
            let obj = env.roots.get(e.rid);
            env.compute_over(obj, e.shape.size_bytes())?;
            // Move to MRU position.
            let e = self
                .queue
                .remove(i)
                .expect("LRU invariant: index was drawn from 0..queue.len()");
            self.queue.push_back(e);
        }
        env.charge_app(Cycles(self.inserts_per_step as u64 * 2_000));
        Ok(())
    }

    fn default_steps(&self) -> usize {
        100
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        for e in self.queue.clone() {
            env.check_stamped(e.rid, e.shape, e.seed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_respected() {
        let mut c = LruCache::new(8, 4096, 2, 1);
        // No env here: only test host-side bookkeeping via min_heap.
        assert!(c.min_heap_bytes() > 8 * 400);
        assert_eq!(c.draw_shape().size_bytes() % 8, 0);
    }
}
