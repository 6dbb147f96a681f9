//! A steady-state GC cycle allocates nothing in proportion to the heap.
//!
//! The collectors keep their per-cycle scratch (mark bitmap, move plan,
//! snapshot of the object list) and the kernel keeps its undo-log arena,
//! so once the first cycle has sized them, later cycles reuse host memory
//! instead of asking the host kernel for fresh zeroed pages. This binary
//! installs a counting global allocator and checks, cycle by cycle, that
//! no collection after the first makes an allocation of
//! [`HEAP_SIZED_BYTES`] or more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use svagc_core::{Collector, GcCycleStats, GcError, GcLog};
use svagc_heap::{Heap, HeapError, ObjRef, RootSet};
use svagc_kernel::{CoreId, Kernel};
use svagc_metrics::Cycles;
use svagc_workloads::driver::{run, CollectorKind, RunConfig};
use svagc_workloads::{ChurnSpec, ChurnWorkload, JvmEnv, SizeDist, Workload};

/// The size from which an allocation counts as heap-sized: glibc's default
/// mmap threshold, above which every allocation is fresh pages from the
/// host kernel.
const HEAP_SIZED_BYTES: usize = 128 << 10;

thread_local! {
    /// Is this thread inside a collection being watched?
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The largest allocation this thread made while armed.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to the system allocator and notes the largest request a
/// watched thread makes. Only the thread's own flag is read, so tests in
/// other threads do not disturb each other.
struct Counting;

impl Counting {
    fn note(size: usize) {
        if ARMED.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    }
}

// SAFETY: every method forwards to `System` unchanged; `note` only reads
// and writes thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a run's watched collections did.
#[derive(Debug, Default)]
struct Verdict {
    cycles: usize,
    /// `(cycle, bytes)` of each watched cycle that allocated heap-sized.
    offenders: Vec<(usize, usize)>,
}

/// Wraps the run's collector: every collection after the first is
/// watched, and any heap-sized allocation inside it is recorded.
struct Watched {
    inner: Box<dyn Collector>,
    verdict: Rc<RefCell<Verdict>>,
}

impl Watched {
    fn watch<T>(&mut self, f: impl FnOnce(&mut Box<dyn Collector>) -> T) -> T {
        let cycle = {
            let mut v = self.verdict.borrow_mut();
            v.cycles += 1;
            v.cycles
        };
        if cycle == 1 {
            return f(&mut self.inner);
        }
        LARGEST.with(|l| l.set(0));
        ARMED.with(|a| a.set(true));
        let out = f(&mut self.inner);
        ARMED.with(|a| a.set(false));
        let largest = LARGEST.with(Cell::get);
        if largest >= HEAP_SIZED_BYTES {
            self.verdict.borrow_mut().offenders.push((cycle, largest));
        }
        out
    }
}

impl Collector for Watched {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn collect(
        &mut self,
        kernel: &mut Kernel,
        heap: &mut Heap,
        roots: &mut RootSet,
    ) -> Result<GcCycleStats, GcError> {
        self.watch(|c| c.collect(kernel, heap, roots))
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
        self.watch(|c| c.collect_minor(kernel, heap, roots))
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
        self.inner.write_barrier(kernel, heap, core, obj, field)
    }
}

/// Holds the collector's place while it moves into [`Watched`].
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
        unreachable!("replaced before any collection")
    }

    fn log(&self) -> &GcLog {
        &self.0
    }
}

/// A churn workload whose collector is wrapped in [`Watched`] at set-up.
struct Harness {
    inner: ChurnWorkload,
    verdict: Rc<RefCell<Verdict>>,
}

impl Workload for Harness {
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
        let real = std::mem::replace(&mut env.collector, Box::new(Vacant(GcLog::new())));
        env.collector = Box::new(Watched {
            inner: real,
            verdict: self.verdict.clone(),
        });
        self.inner.setup(env)
    }

    fn step(&mut self, env: &mut JvmEnv) -> Result<(), GcError> {
        self.inner.step(env)
    }

    fn default_steps(&self) -> usize {
        self.inner.default_steps()
    }

    fn verify(&mut self, env: &mut JvmEnv) -> Result<(), String> {
        self.inner.verify(env)
    }
}

/// Run a churn workload shaped like `spec` under [`Watched`].
fn watched_run(spec: ChurnSpec) -> Verdict {
    let mut cfg = RunConfig::new(CollectorKind::Svagc);
    cfg.steps = Some(spec.steps);
    let verdict = Rc::new(RefCell::new(Verdict::default()));
    let mut w = Harness {
        inner: ChurnWorkload::new(spec),
        verdict: verdict.clone(),
    };
    let r = run(&mut w, &cfg).expect("run");
    assert!(r.verify_ok);
    drop(w);
    Rc::into_inner(verdict)
        .expect("the run dropped its collector")
        .into_inner()
}

fn churn(
    name: &str,
    live: usize,
    size: SizeDist,
    refs: u32,
    alloc: f64,
    steps: usize,
) -> ChurnSpec {
    ChurnSpec {
        name: name.to_string(),
        threads: 32,
        live_objects: live,
        size,
        refs_per_object: refs,
        alloc_fraction_per_step: alloc,
        compute_millicycles_per_byte: 1_000,
        steps,
        seed: 1,
    }
}

fn assert_steady(name: &str, spec: ChurnSpec, min_cycles: usize) {
    let Verdict { cycles, offenders } = watched_run(spec);
    assert!(cycles >= min_cycles, "{name}: only {cycles} GC cycles");
    assert!(
        offenders.is_empty(),
        "{name}: GC cycles after the first made heap-sized allocations \
         (cycle, largest bytes): {offenders:?}"
    );
}

/// 64 equal 128 KiB objects without refs: compaction is all SwapVA, and
/// the heap (about 10 MiB) makes the mark bitmap itself heap-sized.
#[test]
fn swap_large_cycles_reuse_their_scratch() {
    let spec = churn("swap_large", 64, SizeDist::Fixed(128 << 10), 0, 0.04, 240);
    assert_steady("swap_large", spec, 15);
}

/// 3000 small objects with refs: mark/forward/adjust over many objects
/// and memmove compaction, whose pre-images fill the undo-log arena.
#[test]
fn small_objects_cycles_reuse_their_scratch() {
    let spec = churn(
        "small_objects",
        3000,
        SizeDist::Uniform(256, 2 << 10),
        3,
        0.02,
        240,
    );
    assert_steady("small_objects", spec, 5);
}
