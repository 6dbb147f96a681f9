//! The four benchmark workloads, built from the benchmark seed.
//!
//! Each is a closed loop: one rep runs its steps back to back on one
//! thread through `svagc_workloads::driver::run`. The seed reaches the
//! program only as generated inputs: the churn engine's RNG seed, the LRU
//! cache's seed, and the SwapVA and far-device fault seeds.

use svagc_core::SchedulerKind;
use svagc_workloads::lrucache::LruCache;
use svagc_workloads::{ChurnSpec, ChurnWorkload, CollectorKind, RunConfig, SizeDist, Workload};

const KIB: u64 = 1 << 10;

/// Seed used when none is given; claims are checked on [`HELD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 1;
/// Kept back for confirming a claimed gain on inputs the change was not
/// tuned on.
pub const HELD_OUT_SEED: u64 = 20_221_105;

/// A rep must collect at least this many GC cycles, so the p90 pause has
/// at least ten samples beyond it.
pub const MIN_GC_CYCLES: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SwapLarge,
    SmallObjects,
    CacheModel,
    DurableTiered,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SwapLarge,
        Kind::SmallObjects,
        Kind::CacheModel,
        Kind::DurableTiered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SwapLarge => "swap_large",
            Kind::SmallObjects => "small_objects",
            Kind::CacheModel => "cache_model",
            Kind::DurableTiered => "durable_tiered",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's inputs for `seed`.
    pub fn workload(self, seed: u64) -> Box<dyn Workload> {
        let churn = |live_objects, size, refs_per_object, alloc_fraction_per_step, compute| {
            Box::new(ChurnWorkload::new(ChurnSpec {
                name: self.name().to_string(),
                threads: 32,
                live_objects,
                size,
                refs_per_object,
                alloc_fraction_per_step,
                compute_millicycles_per_byte: compute,
                steps: self.steps(),
                seed,
            })) as Box<dyn Workload>
        };
        match self {
            // Equal 32-page buffers without refs: compaction is all
            // SwapVA work.
            Kind::SwapLarge => churn(64, SizeDist::Fixed(128 * KIB), 0, 0.04, 400),
            // Thousands of KiB-scale objects with refs, all below the
            // 10-page threshold: mark/forward/adjust plus memmove.
            Kind::SmallObjects => churn(3000, SizeDist::Uniform(256, 2 * KIB), 3, 0.02, 1_000),
            // The paper's LRU cache: log-uniform values up to 256 KiB
            // straddle the 10-page threshold.
            Kind::CacheModel => Box::new(LruCache::new(64, 256 * KIB, 4, seed)),
            // Equal 12-page objects, so the log holds PTE-swap intents
            // rather than memmove pre-images; refs give the SATB barrier
            // stores to see.
            Kind::DurableTiered => churn(32, SizeDist::Fixed(48 * KIB), 2, 0.05, 1_000),
        }
    }

    /// Steps per rep.
    pub fn steps(self) -> usize {
        match self {
            Kind::SwapLarge => 1600,
            Kind::SmallObjects => 1400,
            Kind::CacheModel => 3400,
            Kind::DurableTiered => 2000,
        }
    }

    /// The driver configuration for `seed`.
    pub fn config(self, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(CollectorKind::Svagc);
        cfg.steps = Some(self.steps());
        match self {
            Kind::SwapLarge | Kind::SmallObjects => {}
            Kind::CacheModel => {
                cfg.instrumented = true;
                // The LRU's live bytes swing with its log-uniform values;
                // at 1.2x some seeds run out of heap.
                cfg.heap_factor = 1.5;
            }
            Kind::DurableTiered => {
                cfg = cfg
                    .with_concurrent(true)
                    .with_scheduler(SchedulerKind::Packets)
                    .with_tiering(0.5)
                    // At 1% the random count of faulted cycles moved the
                    // total pause by 8% from seed to seed.
                    .with_faults(0.0025, seed ^ 0x5A5A_0001)
                    .with_device_faults(0.01, seed ^ 0xD1CE_0002);
            }
        }
        cfg
    }

    /// A DRAM-only, stop-the-world, fault-free run of the same inputs.
    /// The tiered run must end with the same heap hash: the far tier,
    /// the faults and concurrent marking are all invisible to the mutator.
    pub fn reference_config(self) -> Option<RunConfig> {
        (self == Kind::DurableTiered).then(|| {
            let mut cfg = RunConfig::new(CollectorKind::Svagc);
            cfg.steps = Some(self.steps());
            cfg
        })
    }
}
