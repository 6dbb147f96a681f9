//! Observers wrapped around the code under test from the outside.
//!
//! [`Observed`] wraps a [`Workload`] and, at `setup`, swaps the public
//! [`JvmEnv::collector`] for a [`TimedCollector`] around the same boxed
//! collector. Both only read clocks and counters and delegate every call
//! unchanged, so a traced rep reproduces the untraced heap hash and sim
//! registry exactly (the benchmark checks this).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use svagc_core::{Collector, GcCycleStats, GcError, GcLog};
use svagc_heap::{Heap, HeapError, ObjRef, RootSet};
use svagc_kernel::{CoreId, Kernel, WalStats};
use svagc_metrics::Cycles;
use svagc_workloads::{JvmEnv, Workload};

use crate::clock;

/// Host time spent in each layer during one rep, in nanoseconds, with
/// call counts. Spans use the monotonic clock (cheap enough to wrap every
/// write barrier); the rep totals use thread CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub setup_ns: u64,
    pub step_ns: u64,
    pub step_calls: u64,
    /// Collector time nested inside `Workload::step` (collections and
    /// barriers the step triggered).
    pub step_nested_ns: u64,
    pub verify_ns: u64,
    pub collect_ns: u64,
    pub collect_calls: u64,
    pub barrier_ns: u64,
    pub barrier_calls: u64,
}

impl LayerTimes {
    /// `Workload::step` minus the collector calls nested inside it.
    pub fn step_self_ns(&self) -> u64 {
        self.step_ns.saturating_sub(self.step_nested_ns)
    }

    fn collector_ns(&self) -> u64 {
        self.collect_ns + self.barrier_ns
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The collector wrapper: times `collect`, `collect_minor` and
/// `write_barrier`, delegates everything.
struct TimedCollector {
    inner: Box<dyn Collector>,
    times: Rc<RefCell<LayerTimes>>,
}

impl Collector for TimedCollector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        let t0 = Instant::now();
        let r = self.inner.collect(kernel, heap, roots);
        let mut t = self.times.borrow_mut();
        t.collect_ns += elapsed_ns(t0);
        t.collect_calls += 1;
        r
    }

    fn log(&self) -> &GcLog {
        self.inner.log()
    }

    fn collect_minor(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Option<Result<GcCycleStats, GcError>> {
        let t0 = Instant::now();
        let r = self.inner.collect_minor(kernel, heap, roots);
        if r.is_some() {
            let mut t = self.times.borrow_mut();
            t.collect_ns += elapsed_ns(t0);
            t.collect_calls += 1;
        }
        r
    }

    fn pressure_degrade(&mut self) -> bool {
        self.inner.pressure_degrade()
    }

    fn write_barrier(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        core: CoreId,
        obj: ObjRef,
        field: u64,
    ) -> Result<Cycles, HeapError> {
        let t0 = Instant::now();
        let r = self.inner.write_barrier(kernel, heap, core, obj, field);
        let mut t = self.times.borrow_mut();
        t.barrier_ns += elapsed_ns(t0);
        t.barrier_calls += 1;
        r
    }
}

/// Stand-in that occupies `JvmEnv::collector` for the instant the real
/// collector is moved into its wrapper. Never called.
struct Vacant(GcLog);

impl Collector for Vacant {
    fn name(&self) -> &'static str {
        "vacant"
    }

    fn collect(
        &mut self,
        _: &mut Kernel,
        _: &mut Heap,
        _: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        unreachable!("the vacant collector is replaced before any collection")
    }

    fn log(&self) -> &GcLog {
        &self.0
    }
}

/// The workload wrapper. Untraced, it records only the thread CPU time
/// at the first step (the end of set-up) and the WAL counters at
/// verification; traced, it also times every layer call.
pub struct Observed {
    inner: Box<dyn Workload>,
    traced: bool,
    /// Thread CPU time (ns) when the first step began.
    pub first_step_cpu_ns: Option<u64>,
    /// WAL counters at end-of-run verification (the end-of-run drain that
    /// follows appends a few more tier records).
    pub wal: WalStats,
    /// Shared with the collector wrapper installed at `setup`.
    times: Rc<RefCell<LayerTimes>>,
}

impl Observed {
    pub fn new(inner: Box<dyn Workload>, traced: bool) -> Observed {
        Observed {
            inner,
            traced,
            first_step_cpu_ns: None,
            wal: WalStats::default(),
            times: Rc::new(RefCell::new(LayerTimes::default())),
        }
    }

    pub fn layer_times(&self) -> LayerTimes {
        *self.times.borrow()
    }
}

impl Workload for Observed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn min_heap_bytes(&self) -> u64 {
        self.inner.min_heap_bytes()
    }

    fn setup(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        if !self.traced {
            return self.inner.setup(env);
        }
        let real = std::mem::replace(&mut env.collector, Box::new(Vacant(GcLog::new())));
        env.collector = Box::new(TimedCollector {
            inner: real,
            times: self.times.clone(),
        });
        let t0 = Instant::now();
        let r = self.inner.setup(env);
        self.times.borrow_mut().setup_ns += elapsed_ns(t0);
        r
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        if self.first_step_cpu_ns.is_none() {
            self.first_step_cpu_ns = Some(clock::thread_cpu_ns());
        }
        if !self.traced {
            return self.inner.step(env);
        }
        let nested0 = self.times.borrow().collector_ns();
        let t0 = Instant::now();
        let r = self.inner.step(env);
        let dt = elapsed_ns(t0);
        let mut t = self.times.borrow_mut();
        t.step_ns += dt;
        t.step_calls += 1;
        t.step_nested_ns += t.collector_ns() - nested0;
        r
    }

    fn default_steps(&self) -> usize {
        self.inner.default_steps()
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        self.wal = env.kernel.wal_stats();
        if !self.traced {
            return self.inner.verify(env);
        }
        let t0 = Instant::now();
        let r = self.inner.verify(env);
        self.times.borrow_mut().verify_ns += elapsed_ns(t0);
        r
    }
}
