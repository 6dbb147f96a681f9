//! Property tests of the virtual-time scheduler: the greedy (work-
//! stealing) dispatcher obeys the classic list-scheduling bounds, and
//! static partitioning never beats it on the skews that model
//! Shenandoah's copy phase.
//!
//! Offline std-only: each property runs over many cases drawn from the
//! deterministic `SimRng` (splitmix64). A failing case panics with the
//! property name, the case's seed, and the generated inputs, so it
//! reproduces from the message alone.

use svagc_core::WorkerPool;
use svagc_metrics::{Cycles, SimRng};

/// Run `property` on `cases` generated cases. Case `i` draws its inputs
/// from `SimRng::seed_from_u64(base_seed + i)`; a failure reports that
/// seed and the property's description of the case.
fn check(
    name: &str,
    base_seed: u64,
    cases: u64,
    property: impl Fn(&mut SimRng) -> Result<(), String>,
) {
    for i in 0..cases {
        let seed = base_seed + i;
        if let Err(case) = property(&mut SimRng::seed_from_u64(seed)) {
            panic!("property `{name}` failed on case {i} (seed {seed:#x}): {case}");
        }
    }
}

/// `len` item costs in `[lo, hi)`, with `len` drawn from `lens`.
fn items(rng: &mut SimRng, lens: std::ops::Range<usize>, lo: u64, hi: u64) -> Vec<u64> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Greedy list scheduling is within the Graham bound:
/// `makespan <= total/n + max_item`, and at least
/// `max(total/n, max_item)` (no scheduler can beat that).
#[test]
fn greedy_obeys_graham_bounds() {
    check("greedy_obeys_graham_bounds", 0x1_0000, 256, |rng| {
        let n = rng.gen_range(1..16usize);
        let items = items(rng, 1..200, 1, 10_000);
        let mut pool = WorkerPool::new(n);
        for &c in &items {
            pool.dispatch(Cycles(c));
        }
        let total: u64 = items.iter().sum();
        let max_item = *items.iter().max().unwrap();
        let makespan = pool.makespan().get();
        let lower = (total / n as u64).max(max_item);
        let upper = total / n as u64 + max_item;
        if makespan < lower || makespan > upper || pool.total_work() != Cycles(total) {
            return Err(format!(
                "n={n} makespan={makespan} not in [{lower}, {upper}] or work lost; items={items:?}"
            ));
        }
        Ok(())
    });
}

/// On uniform items both dispatchers balance perfectly and agree
/// exactly. (Greedy does *not* dominate static round-robin pairwise —
/// list scheduling is only a 2-approximation and specific sequences
/// exist where round-robin happens to win — so the skew case below is
/// checked on an explicit pattern instead.)
#[test]
fn uniform_items_balance_identically() {
    check("uniform_items_balance_identically", 0x2_0000, 256, |rng| {
        let n = rng.gen_range(1..8usize);
        let rounds = rng.gen_range(1..40usize);
        let cost = rng.gen_range(1..1000u64);
        let mut greedy = WorkerPool::new(n);
        let mut fixed = WorkerPool::new(n);
        for _ in 0..rounds * n {
            greedy.dispatch(Cycles(cost));
            fixed.dispatch_static(Cycles(cost));
        }
        let want = Cycles(rounds as u64 * cost);
        if greedy.makespan() != fixed.makespan() || greedy.makespan() != want {
            return Err(format!(
                "n={n} rounds={rounds} cost={cost}: greedy {} static {} want {want}",
                greedy.makespan(),
                fixed.makespan()
            ));
        }
        Ok(())
    });
}

/// Under a big-item-first skew (one giant, many small), greedy stays at
/// the giant item's cost while static round-robin stacks small items
/// behind it.
#[test]
fn static_suffers_under_head_skew() {
    check("static_suffers_under_head_skew", 0x3_0000, 256, |rng| {
        let n = rng.gen_range(2..8usize);
        let small = items(rng, 8..100, 1, 100);
        let giant: u64 = small.iter().sum::<u64>() + 1;
        let mut greedy = WorkerPool::new(n);
        let mut fixed = WorkerPool::new(n);
        greedy.dispatch(Cycles(giant));
        fixed.dispatch_static(Cycles(giant));
        for &c in &small {
            greedy.dispatch(Cycles(c));
            fixed.dispatch_static(Cycles(c));
        }
        if greedy.makespan() != Cycles(giant) || fixed.makespan() < greedy.makespan() {
            return Err(format!(
                "n={n} giant={giant}: greedy {} static {}; small={small:?}",
                greedy.makespan(),
                fixed.makespan()
            ));
        }
        Ok(())
    });
}

/// More workers never hurt: doubling the pool never raises the greedy
/// makespan.
#[test]
fn more_workers_never_hurt() {
    check("more_workers_never_hurt", 0x4_0000, 256, |rng| {
        let items = items(rng, 1..150, 1, 10_000);
        let mut prev = u64::MAX;
        for n in [1usize, 2, 4, 8, 16] {
            let mut pool = WorkerPool::new(n);
            for &c in &items {
                pool.dispatch(Cycles(c));
            }
            let m = pool.makespan().get();
            if m > prev {
                return Err(format!("n={n}: {m} > previous {prev}; items={items:?}"));
            }
            prev = m;
        }
        Ok(())
    });
}

/// Barriers preserve total-order consistency: after a barrier every
/// worker restarts from the same clock, so the makespan decomposes as a
/// sum of phase makespans — the barrier policy's fresh pool per phase
/// and one pool joined at barriers agree.
#[test]
fn barriers_decompose_phases() {
    check("barriers_decompose_phases", 0x5_0000, 256, |rng| {
        let phase_a = items(rng, 1..50, 1, 1000);
        let phase_b = items(rng, 1..50, 1, 1000);
        let n = 4;
        let mut pool = WorkerPool::new(n);
        for &c in &phase_a {
            pool.dispatch(Cycles(c));
        }
        let a = pool.makespan();
        pool.barrier();
        for &c in &phase_b {
            pool.dispatch(Cycles(c));
        }
        let combined = pool.makespan();

        let mut solo = WorkerPool::new(n);
        for &c in &phase_b {
            solo.dispatch(Cycles(c));
        }
        if combined != a + solo.makespan() {
            return Err(format!(
                "{combined} != {a} + {}; a={phase_a:?} b={phase_b:?}",
                solo.makespan()
            ));
        }
        Ok(())
    });
}
