//! Packet-scheduler determinism: the virtual-time schedule is a pure
//! function of the workload and the GC config. Host parallelism
//! (`SVAGC_HOST_THREADS`) only changes how fast the simulation runs on the
//! host — the per-run heap image, pause cycles, and `gc.sched.*` counters
//! must be bit-identical across host-thread counts and across repeated
//! runs. All runs happen inside this one test function so the env-var
//! mutations cannot race another test in this binary.

use svagc_core::SchedulerKind;
use svagc_workloads::driver::{run, CollectorKind, RunConfig, RunResult};
use svagc_workloads::multijvm::run_multi;
use svagc_workloads::suite;

fn packets_cfg() -> RunConfig {
    let mut c = RunConfig::new(CollectorKind::Svagc).with_scheduler(SchedulerKind::Packets);
    c.gc.gc_threads = 8;
    c
}

/// Everything in a run that the scheduler could perturb, collapsed to an
/// exactly comparable tuple.
fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64) {
    (
        r.heap_hash,
        r.gc.total_pause().get(),
        r.gc.total_sched_packets(),
        r.gc.total_sched_steals(),
        r.app_cycles.get(),
    )
}

#[test]
fn packet_schedule_bit_identical_across_host_threads_and_reruns() {
    let single = || {
        let mut w = suite::by_name("Sparse.large/4").unwrap();
        run(w.as_mut(), &packets_cfg()).unwrap()
    };
    let multi = || {
        run_multi(
            2,
            |_i| suite::by_name("Sparse.large/4").unwrap(),
            &packets_cfg(),
        )
        .unwrap()
    };

    std::env::set_var("SVAGC_HOST_THREADS", "1");
    let s_seq = single();
    let s_seq_again = single();
    let m_seq = multi();
    std::env::set_var("SVAGC_HOST_THREADS", "4");
    let s_par = single();
    let m_par = multi();
    std::env::remove_var("SVAGC_HOST_THREADS");

    // The packet scheduler actually ran and overlapped work.
    assert!(
        s_seq.gc.total_sched_packets() > 0,
        "no packets executed — scheduler flag not honored?"
    );

    // Repeated runs at a fixed host-thread count are bit-identical.
    assert_eq!(fingerprint(&s_seq), fingerprint(&s_seq_again));

    // Host-thread count is invisible to the virtual-time schedule.
    assert_eq!(fingerprint(&s_seq), fingerprint(&s_par));

    // Multi-JVM fan-out goes through `par_map`, the one place host threads
    // genuinely execute simulations concurrently: every instance must still
    // match its serial twin exactly, in order.
    assert_eq!(m_seq.per_jvm.len(), m_par.per_jvm.len());
    for (i, (a, b)) in m_seq.per_jvm.iter().zip(&m_par.per_jvm).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "instance {i} diverged between host_threads=1 and 4"
        );
    }
}
