//! `PR` (Spark-bench PageRank): random graph + per-iteration rank vectors.
//!
//! The paper uses 78 K nodes / 780 K edges, reproduced at full scale: immutable adjacency blocks
//! (medium objects) plus one large rank array re-allocated every
//! iteration — steady large-object churn against a stable medium-object
//! live set.

use crate::env::JvmEnv;
use crate::workload::Workload;
use svagc_core::GcError;
use svagc_heap::{ObjShape, RootId};
use svagc_metrics::{Cycles, SimRng};

/// Graph nodes (paper scale).
const NODES: u64 = 78_000;
/// Edges (paper scale).
const EDGES: u64 = 780_000;
/// Nodes per adjacency block object.
const BLOCK: u64 = 512;

/// The PageRank workload.
pub struct PageRank {
    rng: SimRng,
    blocks: Vec<(RootId, ObjShape, u64)>,
    ranks: Option<(RootId, ObjShape)>,
    iteration: u64,
}

impl PageRank {
    /// Standard configuration.
    pub fn new() -> PageRank {
        PageRank {
            rng: SimRng::seed_from_u64(61),
            blocks: Vec::new(),
            ranks: None,
            iteration: 0,
        }
    }

    fn rank_shape() -> ObjShape {
        ObjShape::data(NODES as u32)
    }

    fn block_shape() -> ObjShape {
        // Each block stores its nodes' edge targets: EDGES/NODES avg
        // out-degree × BLOCK nodes, one word per edge.
        ObjShape::data(((EDGES / NODES) * BLOCK) as u32)
    }

    fn block_count() -> u64 {
        NODES.div_ceil(BLOCK)
    }
}

impl Default for PageRank {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for PageRank {
    fn name(&self) -> String {
        "PR".into()
    }

    fn threads(&self) -> u32 {
        288
    }

    fn min_heap_bytes(&self) -> u64 {
        Self::block_count() * Self::block_shape().size_bytes()
            + 3 * Self::rank_shape().size_bytes()
            + (256 << 10)
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        for b in 0..Self::block_count() {
            let (rid, obj) = env.alloc_stamped(Self::block_shape(), b * 10_000)?;
            // Fill with random edge targets (real words in simulated
            // memory, verified via the stamp + spot checks).
            let words = Self::block_shape().data_words as u64;
            for w in (1..words - 1).step_by(97) {
                let target = self.rng.gen_range(0..NODES);
                env.app_cycles += env.heap.write_data(env.kernel, env.core, obj, 0, w, target)?;
            }
            // Re-stamp first/last so verify still holds.
            env.app_cycles += env.heap.write_data(env.kernel, env.core, obj, 0, 0, b * 10_000)?;
            env.app_cycles += env.heap.write_data(
                env.kernel,
                env.core,
                obj,
                0,
                words - 1,
                b * 10_000 + words - 1,
            )?;
            self.blocks.push((rid, Self::block_shape(), b * 10_000));
        }
        let (rid, _) = env.alloc_stamped(Self::rank_shape(), 5_000_000)?;
        self.ranks = Some((rid, Self::rank_shape()));
        Ok(())
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        self.iteration += 1;
        // New rank vector; the old one becomes garbage.
        let seed = 5_000_000 + self.iteration * 1_000_000;
        let (rid, _) = env.alloc_stamped(Self::rank_shape(), seed)?;
        if let Some((old, _)) = self.ranks.replace((rid, Self::rank_shape())) {
            env.roots.set(old, svagc_heap::ObjRef::NULL);
        }
        // Spark re-caches partitions: a couple of adjacency blocks are
        // rebuilt per iteration, keeping the live set interleaved with
        // garbage (so full compactions really slide objects).
        for _ in 0..2 {
            let i = self.rng.gen_range(0..self.blocks.len());
            let (old, shape, _) = self.blocks[i];
            env.roots.set(old, svagc_heap::ObjRef::NULL);
            let new_seed = 90_000_000 + self.iteration * 1_000 + i as u64 * 7;
            let (new_rid, _) = env.alloc_stamped(shape, new_seed)?;
            self.blocks[i] = (new_rid, shape, new_seed);
        }
        // Rank update streams every adjacency block + both rank vectors.
        for (rid, shape, _) in &self.blocks {
            let obj = env.roots.get(*rid);
            env.compute_over(obj, shape.size_bytes())?;
        }
        env.charge_app(Cycles(EDGES * 6)); // scatter/gather arithmetic
        // Scratch garbage (message buffers).
        for _ in 0..4 {
            env.alloc(ObjShape::data_bytes(16 << 10))?;
        }
        Ok(())
    }

    fn default_steps(&self) -> usize {
        80
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        for (rid, shape, seed) in &self.blocks.clone() {
            env.check_stamped(*rid, *shape, *seed)?;
        }
        let (rid, shape) = self
            .ranks
            .expect("PageRank invariant: verify only runs after setup allocated the rank vector");
        env.check_stamped(rid, shape, 5_000_000 + self.iteration * 1_000_000)
    }
}
