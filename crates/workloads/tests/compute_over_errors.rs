//! `JvmEnv::compute_over` in Table III (instrumented) mode streams every
//! line of an object through the TLB, so a far page whose bytes the
//! device lost must fail the step with the typed device-failure error
//! (exit 16), not be skipped.

use svagc_heap::{Heap, HeapConfig, ObjShape};
use svagc_kernel::{DeviceFaultConfig, DeviceFaultPlan, FarDevice, FarTier, Kernel, RetryPolicy};
use svagc_metrics::MachineConfig;
use svagc_vmem::Asid;
use svagc_workloads::{CollectorKind, JvmEnv, RunConfig};

#[test]
fn instrumented_stream_over_a_lost_far_page_fails_typed() {
    let mut kernel = Kernel::with_bytes(MachineConfig::i5_7600(), 4 << 20);
    // The device serves the demotion (its writeback and verify read),
    // then goes offline: the demoted page's only copy is gone.
    let mut device = FarDevice::new(16);
    device.set_fault_plan(Some(DeviceFaultPlan::new(
        DeviceFaultConfig::uniform(0.0, 1).with_offline_after(2),
    )));
    kernel.set_far_tier(Some(FarTier::new(device, RetryPolicy::default())));
    let heap = Heap::new(&mut kernel, Asid(1), HeapConfig::new(1 << 20)).unwrap();
    let run = RunConfig {
        gc_threads: 1,
        ..RunConfig::new(CollectorKind::Svagc)
    };
    let mut env = JvmEnv::new(&mut kernel, heap, CollectorKind::Svagc.build(&run));
    let shape = ObjShape::data(1024);
    let obj = env.alloc(shape).unwrap();
    let bytes = shape.size_bytes();

    env.kernel.set_instrumented(true);
    env.compute_over(obj, bytes).unwrap();
    env.kernel
        .tier_demote_page(env.heap.space(), obj.0)
        .unwrap();

    // Uninstrumented streams are bandwidth-costed only and never
    // translate, so they cannot notice the loss.
    env.kernel.set_instrumented(false);
    env.compute_over(obj, bytes).unwrap();

    env.kernel.set_instrumented(true);
    let err = env
        .compute_over(obj, bytes)
        .expect_err("streaming over a lost far page must fail");
    assert!(err.is_device_failure(), "want a device failure, got {err}");
}
