//! The paper's benchmark workloads and run drivers.
//!
//! * [`spec`] — Table II as data.
//! * [`churn`] — the shared live-set/churn engine.
//! * [`suite`] — SPECjvm2008-style benchmarks configured on the engine
//!   (FFT, Sparse, SOR, LU, Compress, Sigverify, CryptoAES) with the
//!   paper's divided-input variants.
//! * [`bisort`], [`pagerank`], [`parallelsort`], [`lrucache`] — the
//!   structural benchmarks (JOlden tree, Spark graph, merge sort, LRU).
//! * [`mod@env`], [`driver`], [`multijvm`] — the simulated JVM,
//!   single-run driver, and N-instance contention driver.

#![warn(missing_docs)]

pub mod bisort;
pub mod churn;
pub mod driver;
pub mod env;
pub mod lrucache;
pub mod multijvm;
pub mod noisy;
pub mod pagerank;
pub mod parallelsort;
pub mod spec;
pub mod suite;
pub mod workload;

pub use churn::{ChurnSpec, ChurnWorkload, SizeDist};
pub use driver::{run, CollectorKind, FailureKind, RunConfig, RunResult, Tenant};
pub use env::JvmEnv;
pub use multijvm::{
    isolation_oracle, run_fleet, run_multi, FleetConfig, FleetResult, MultiJvmResult,
    TenantOutcome,
};
pub use noisy::{run_noisy_neighbor, NoisyOutcome, NoisySpec};
pub use spec::{render_table_ii, spec_by_name, BenchSpec, TABLE_II};
pub use workload::Workload;
