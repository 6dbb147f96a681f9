//! `Parallelsort` (OpenJDK `Arrays.parallelSort` style): merge passes over
//! chunked arrays.
//!
//! The paper sorts 2 M entries; we scale to 1 M (1/2). Each epoch starts
//! from 32 chunks of 32 K entries (256 KB objects) and merges pairwise —
//! every pass allocates half as many, twice-as-large arrays and retires
//! the inputs. Exactly the growing-large-object churn that stresses a
//! sliding compactor.

use crate::env::JvmEnv;
use crate::workload::Workload;
use svagc_core::GcError;
use svagc_heap::{ObjRef, ObjShape, RootId};
use svagc_metrics::Cycles;

/// Entries in the full sort (paper: 2 M, scaled 1/2).
const TOTAL_ENTRIES: u64 = 1 << 20;
/// Initial chunk count per epoch.
const CHUNKS: u64 = 32;

/// The Parallelsort workload.
pub struct ParallelSort {
    /// Current pass's arrays: (root, shape, stamp-seed).
    arrays: Vec<(RootId, ObjShape, u64)>,
    /// Fully merged results of recent epochs, kept live so collections
    /// never see an empty heap at epoch boundaries.
    results: Vec<(RootId, ObjShape, u64)>,
    epoch: u64,
    seed_counter: u64,
}

impl ParallelSort {
    /// Standard configuration.
    pub fn new() -> ParallelSort {
        ParallelSort {
            arrays: Vec::new(),
            results: Vec::new(),
            epoch: 0,
            seed_counter: 0,
        }
    }

    fn chunk_shape(entries: u64) -> ObjShape {
        ObjShape::data(entries as u32)
    }

    fn fresh_epoch(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        // The merged result stays live for a couple of epochs (a consumer
        // is reading it); older results retire.
        self.results.append(&mut self.arrays);
        while self.results.len() > 2 {
            let (rid, _, _) = self.results.remove(0);
            env.roots.set(rid, ObjRef::NULL);
        }
        self.epoch += 1;
        let per_chunk = TOTAL_ENTRIES / CHUNKS;
        for _ in 0..CHUNKS {
            self.seed_counter += 1_000_000;
            let (rid, _) = env.alloc_stamped(Self::chunk_shape(per_chunk), self.seed_counter)?;
            self.arrays.push((rid, Self::chunk_shape(per_chunk), self.seed_counter));
        }
        Ok(())
    }
}

impl Default for ParallelSort {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for ParallelSort {
    fn name(&self) -> String {
        "ParallelSort".into()
    }

    fn threads(&self) -> u32 {
        896
    }

    fn min_heap_bytes(&self) -> u64 {
        // Peak: inputs + outputs of one merge pass, plus two retained
        // epoch results.
        5 * TOTAL_ENTRIES * 8 + (512 << 10)
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        self.fresh_epoch(env)
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        if self.arrays.len() <= 1 {
            return self.fresh_epoch(env);
        }
        // One merge pass: pairwise combine into double-size arrays.
        let entries_each = self.arrays[0].1.data_words as u64;
        let pairs = self.arrays.len() / 2;
        let mut next = Vec::with_capacity(pairs);
        for p in 0..pairs {
            // Stream both inputs (merge reads).
            for side in 0..2 {
                let (rid, shape, _) = self.arrays[2 * p + side];
                let obj = env.roots.get(rid);
                env.compute_over(obj, shape.size_bytes())?;
            }
            self.seed_counter += 1_000_000;
            let merged_shape = Self::chunk_shape(entries_each * 2);
            let (rid, _) = env.alloc_stamped(merged_shape, self.seed_counter)?;
            next.push((rid, merged_shape, self.seed_counter));
            // Inputs become garbage.
            for side in 0..2 {
                let (old, _, _) = self.arrays[2 * p + side];
                env.roots.set(old, ObjRef::NULL);
            }
            env.charge_app(Cycles(entries_each * 2 * 8)); // compare+copy
        }
        // Odd leftover carries over.
        if self.arrays.len() % 2 == 1 {
            next.push(
                *self
                    .arrays
                    .last()
                    .expect("merge invariant: an odd-length array list has a last element"),
            );
        }
        self.arrays = next;
        Ok(())
    }

    fn default_steps(&self) -> usize {
        60
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        for (rid, shape, seed) in self.arrays.iter().chain(&self.results).copied().collect::<Vec<_>>() {
            env.check_stamped(rid, shape, seed)?;
        }
        Ok(())
    }
}
