//! Rendering of every figure/table: each experiment function runs its
//! simulation and writes the paper-matching rows into a [`Report`] sink —
//! aligned text tables plus `@json` row echoes on the text plane, rows /
//! headline counters / derived scalars on the simulated plane (which the
//! BENCH JSON emitter digests for the CI perf gate). The `bin/figNN_*`
//! binaries and `bin/all` are thin wrappers over [`crate::runner`].

use crate::micro;
use crate::report::{fnv1a, ms, pct, x, Report, Table};
use crate::suites::{self, GcTimeRow};
use crate::ablations;
use svagc_metrics::MachineConfig;
use svagc_workloads::driver::CollectorKind;

/// Fig. 1: execution time split of the full-GC phases (memmove prototype).
pub fn fig01(rep: &mut Report) {
    let rows = suites::fig01_rows();
    let mut t = Table::new(["benchmark", "mark", "forward", "adjust", "compact", "compact %"]);
    for r in &rows {
        let total = r.mark_ms + r.forward_ms + r.adjust_ms + r.compact_ms;
        t.row([
            r.name.clone(),
            ms(r.mark_ms),
            ms(r.forward_ms),
            ms(r.adjust_ms),
            ms(r.compact_ms),
            pct(100.0 * r.compact_ms / total),
        ]);
        rep.row("fig01", r);
        rep.counter("gc.pause_cycles", r.gc_pause_cycles);
        rep.counter("sim.total_cycles", r.total_cycles);
    }
    rep.table(&t);
    rep.say("(paper: compaction = 79.33% Sparse.large, 84.76% FFT.large)");
}

/// Fig. 2: multi-JVM scalability collapse under ParallelGC.
pub fn fig02(rep: &mut Report) {
    let rows = suites::multijvm_rows(CollectorKind::ParallelGc, &[1, 2, 4, 8, 16, 32]);
    multijvm_render("fig02", rep, &rows);
    let g = rows.last().unwrap().gc_total_ms / rows[0].gc_total_ms;
    let a = rows.last().unwrap().app_ms / rows[0].app_ms;
    rep.derived("gc_growth_1_to_32", g);
    rep.derived("app_growth_1_to_32", a);
    rep.say(format!(
        "1->32 JVMs: GC time x{g:.2}, app time x{a:.2} (paper: both rise significantly)"
    ));
}

fn multijvm_render(tag: &str, rep: &mut Report, rows: &[suites::MultiJvmRow]) {
    let mut t = Table::new(["JVMs", "GC total (ms)", "GC max (ms)", "app (ms)", "total (ms)"]);
    for r in rows {
        t.row([
            r.jvms.to_string(),
            ms(r.gc_total_ms),
            ms(r.gc_max_ms),
            ms(r.app_ms),
            ms(r.total_ms),
        ]);
        rep.row(tag, r);
        rep.counter("gc.pause_cycles", r.gc_pause_cycles);
        rep.counter("sim.total_cycles", r.total_cycles);
    }
    rep.table(&t);
}

/// Fig. 6: aggregated vs separated SwapVA calls.
pub fn fig06(rep: &mut Report) {
    let rows = micro::fig06_aggregation(1024);
    let mut t = Table::new(["pages/req", "requests", "separated (us)", "aggregated (us)", "speedup"]);
    for r in &rows {
        t.row([
            r.pages_per_request.to_string(),
            r.requests.to_string(),
            format!("{:.1}", r.separated_us),
            format!("{:.1}", r.aggregated_us),
            x(r.speedup),
        ]);
        rep.row("fig06", r);
        rep.counter("swap.separated_cycles", r.separated_cycles);
        rep.counter("swap.aggregated_cycles", r.aggregated_cycles);
    }
    rep.table(&t);
    rep.say("(paper: aggregation wins most for small requests; gap closes as input size grows)");
}

/// Fig. 8: PMD-caching benefit.
pub fn fig08(rep: &mut Report) {
    let rows = micro::fig08_pmd_cache();
    let mut t = Table::new(["pages", "no cache (us)", "cached (us)", "improvement"]);
    for r in &rows {
        t.row([
            r.pages.to_string(),
            format!("{:.2}", r.uncached_us),
            format!("{:.2}", r.cached_us),
            pct(r.improvement_pct),
        ]);
        rep.row("fig08", r);
        rep.counter("swap.uncached_cycles", r.uncached_cycles);
        rep.counter("swap.cached_cycles", r.cached_cycles);
    }
    rep.table(&t);
    let multi: Vec<_> = rows.iter().filter(|r| r.pages >= 8).collect();
    let max = multi.iter().map(|r| r.improvement_pct).fold(0.0, f64::max);
    let avg = multi.iter().map(|r| r.improvement_pct).sum::<f64>() / multi.len() as f64;
    rep.derived("multi_page_improvement_max_pct", max);
    rep.derived("multi_page_improvement_avg_pct", avg);
    rep.say(format!(
        "multi-page: max {max:.1}%, avg {avg:.1}% (paper: up to 52.5%, avg 36.7%)"
    ));
}

/// Fig. 9: multi-core shootdown optimizations.
pub fn fig09(rep: &mut Report) {
    let rows = micro::fig09_multicore(16);
    let mut t = Table::new([
        "cores",
        "memmove (us)",
        "naive (us)",
        "pinned (us)",
        "tracked (us)",
        "naive IPIs",
        "pinned IPIs",
        "tracked IPIs",
    ]);
    for r in &rows {
        t.row([
            r.cores.to_string(),
            format!("{:.1}", r.memmove_us),
            format!("{:.1}", r.naive_us),
            format!("{:.1}", r.pinned_us),
            format!("{:.1}", r.tracked_us),
            r.naive_ipis.to_string(),
            r.pinned_ipis.to_string(),
            r.tracked_ipis.to_string(),
        ]);
        rep.row("fig09", r);
        rep.counter("ipi.naive", r.naive_ipis);
        rep.counter("ipi.pinned", r.pinned_ipis);
        rep.counter("ipi.tracked", r.tracked_ipis);
        rep.counter("swap.naive_cycles", r.naive_cycles);
        rep.counter("swap.pinned_cycles", r.pinned_cycles);
        rep.counter("swap.tracked_cycles", r.tracked_cycles);
    }
    rep.table(&t);
    let last = rows.last().unwrap();
    let gain = last.naive_ipis as f64 / last.pinned_ipis.max(1) as f64;
    rep.derived("ipi_reduction_32_cores", gain);
    rep.say(format!(
        "IPI reduction at 32 cores: {gain:.0}x (Eq. 2 predicts l-bar = 100)"
    ));
}

/// Fig. 10: memmove/SwapVA break-even threshold on two machines.
pub fn fig10(rep: &mut Report) {
    for machine in [MachineConfig::xeon_gold_6130(), MachineConfig::xeon_gold_6240()] {
        rep.say(format!("\n-- {} --", machine.name));
        let rows = micro::fig10_threshold(&machine, 24);
        let mut t = Table::new(["pages", "memmove (us)", "SwapVA (us)"]);
        for r in &rows {
            t.row([
                r.pages.to_string(),
                format!("{:.2}", r.memmove_us),
                format!("{:.2}", r.swapva_us),
            ]);
            rep.row("fig10", r);
            rep.counter("move.memmove_cycles", r.memmove_cycles);
            rep.counter("move.swapva_cycles", r.swapva_cycles);
        }
        rep.table(&t);
        match micro::break_even(&rows) {
            Some(p) => {
                rep.counter("threshold.break_even_pages", p);
                rep.say(format!(
                    "break-even: {p} pages (paper: ~10; cost-model formula derives {})",
                    machine.derived_threshold_pages()
                ));
            }
            None => rep.say("no crossover in range"),
        }
    }
}

fn suite_pair(factor: f64) -> (Vec<GcTimeRow>, Vec<GcTimeRow>) {
    (
        suites::suite_rows(CollectorKind::SvagcMemmove, factor, None),
        suites::suite_rows(CollectorKind::Svagc, factor, None),
    )
}

/// The compaction-heavy benchmarks: exactly those whose Fig. 11 GC
/// reduction is at least 10 %, in suite order. [`fig11`] asserts the
/// definition; Figs. 12/13 assert SVAGC beats ParallelGC on each.
const COMPACTION_HEAVY: [&str; 10] = [
    "FFT.large",
    "Sparse.large",
    "Sparse.large/2",
    "SOR.large",
    "SOR.large x10",
    "LU.large",
    "Compress",
    "Sigverify",
    "PR",
    "ParallelSort",
];

/// Fig. 11: GC time −/+ SwapVA per benchmark, compaction vs other phases.
pub fn fig11(rep: &mut Report) {
    let (memmove, swap) = suite_pair(1.2);
    let mut t = Table::new([
        "benchmark",
        "-SwapVA compact",
        "-SwapVA other",
        "+SwapVA compact",
        "+SwapVA other",
        "GC reduction",
    ]);
    let mut reds = Vec::new();
    for (m, s) in memmove.iter().zip(&swap) {
        assert_eq!(m.name, s.name);
        let red = 100.0 * (1.0 - s.gc_total_ms / m.gc_total_ms.max(1e-12));
        reds.push((m.name.as_str(), red));
        t.row([
            m.name.clone(),
            ms(m.compact_ms),
            ms(m.other_ms),
            ms(s.compact_ms),
            ms(s.other_ms),
            pct(red),
        ]);
        rep.row("fig11_memmove", m);
        rep.row("fig11_swapva", s);
        rep.counter("gc.pause_cycles.memmove", m.gc_pause_cycles);
        rep.counter("gc.pause_cycles.swapva", s.gc_pause_cycles);
        rep.counter("swap.objects", s.swapped_objects);
    }
    rep.table(&t);
    rep.say("(paper: pause reduced up to 70.9% Sparse.large/4, 97% Sigverify)");

    let red = |name: &str| reds.iter().find(|r| r.0 == name).unwrap().1;
    // Huge objects make compaction almost all SwapVA (paper: up to 97 %).
    for name in ["Sigverify", "SOR.large x10", "ParallelSort"] {
        let r = red(name);
        assert!(r >= 80.0, "Fig. 11 {name}: GC reduction {r}% must be at least 80%");
    }
    // Bisort's nodes all sit below the swap threshold.
    let r = red("Bisort");
    assert!(r.abs() <= 1.0, "Fig. 11 Bisort: GC reduction {r}% must be within 1 point of 0");
    // Dividing the large objects toward the threshold shrinks the gain.
    for family in [
        ["FFT.large", "FFT.large/8", "FFT.large/16"],
        ["Sparse.large", "Sparse.large/2", "Sparse.large/4"],
    ] {
        let r = family.map(red);
        assert!(
            r[0] > r[1] && r[1] > r[2],
            "Fig. 11 {family:?}: GC reductions {r:?} must fall as the objects are divided"
        );
    }
    let heavy: Vec<&str> = reds.iter().filter(|r| r.1 >= 10.0).map(|r| r.0).collect();
    assert_eq!(
        heavy, COMPACTION_HEAVY,
        "Fig. 11: the compaction-heavy list must be the benchmarks with a reduction of at least 10%"
    );
}

fn three_way(factor: f64) -> [Vec<GcTimeRow>; 3] {
    [
        suites::suite_rows(CollectorKind::Shenandoah, factor, None),
        suites::suite_rows(CollectorKind::ParallelGc, factor, None),
        suites::suite_rows(CollectorKind::Svagc, factor, None),
    ]
}

fn render_latency(
    rep: &mut Report,
    fig: &str,
    metric: fn(&GcTimeRow) -> f64,
    paper_note: &str,
) {
    for factor in [1.2, 2.0] {
        rep.say(format!("\n-- heap = {factor}x minimum --"));
        let [shen, pgc, svagc] = three_way(factor);
        let mut t =
            Table::new(["benchmark", "Shenandoah", "ParallelGC", "SVAGC", "PGC/SVAGC", "Shen/SVAGC"]);
        let (mut rp, mut rs, mut n) = (0.0, 0.0, 0);
        for ((sh, pg), sv) in shen.iter().zip(&pgc).zip(&svagc) {
            let (a, b, c) = (metric(sh), metric(pg), metric(sv));
            // Shenandoah's serial evacuation makes its pauses the longest
            // on every benchmark (§V-A).
            assert!(
                a > b.max(c),
                "{fig} {} @{factor}x: Shenandoah {a} must exceed ParallelGC {b} and SVAGC {c}",
                sv.name
            );
            // SwapVA's gain must show against the memmove baseline
            // wherever compaction dominates the pause.
            assert!(
                !COMPACTION_HEAVY.contains(&sv.name.as_str()) || b > c,
                "{fig} {} @{factor}x: ParallelGC {b} must exceed SVAGC {c} on a \
                 compaction-heavy benchmark",
                sv.name
            );
            t.row([
                sv.name.clone(),
                ms(a),
                ms(b),
                ms(c),
                x(b / c.max(1e-12)),
                x(a / c.max(1e-12)),
            ]);
            rp += b / c.max(1e-12);
            rs += a / c.max(1e-12);
            n += 1;
            rep.row(&format!("{}_{}", fig.to_lowercase().replace(". ", ""), factor), sv);
            rep.counter("gc.pause_cycles.shenandoah", sh.gc_pause_cycles);
            rep.counter("gc.pause_cycles.parallelgc", pg.gc_pause_cycles);
            rep.counter("gc.pause_cycles.svagc", sv.gc_pause_cycles);
        }
        rep.table(&t);
        let (mean_p, mean_s) = (rp / n as f64, rs / n as f64);
        assert!(
            mean_p < mean_s,
            "{fig} @{factor}x: mean ratio vs SVAGC must order \
             ParallelGC {mean_p} < Shenandoah {mean_s}"
        );
        rep.derived(&format!("mean_ratio_parallelgc_{factor}"), mean_p);
        rep.derived(&format!("mean_ratio_shenandoah_{factor}"), mean_s);
        rep.say(format!(
            "mean ratio vs SVAGC: ParallelGC {mean_p:.2}x, Shenandoah {mean_s:.2}x  {paper_note}"
        ));
    }
}

/// Fig. 12: average Full-GC latency, SVAGC vs baselines.
pub fn fig12(rep: &mut Report) {
    render_latency(
        rep,
        "Fig. 12",
        |r| r.gc_avg_ms,
        "(paper @1.2x: 3.82x / 16.05x; @2x: 2.74x / 13.62x)",
    );
}

/// Fig. 13: maximum pause, SVAGC vs baselines.
pub fn fig13(rep: &mut Report) {
    render_latency(
        rep,
        "Fig. 13",
        |r| r.gc_max_ms,
        "(paper @1.2x: 4.49x / 18.25x; @2x: 3.60x / 12.24x)",
    );
}

/// Fig. 14: SVAGC multi-JVM scaling.
pub fn fig14(rep: &mut Report) {
    let rows = suites::multijvm_rows(CollectorKind::Svagc, &[1, 2, 4, 8, 16, 32]);
    multijvm_render("fig14", rep, &rows);
    let g = 100.0 * (rows.last().unwrap().gc_total_ms / rows[0].gc_total_ms - 1.0);
    let a = 100.0 * (rows.last().unwrap().app_ms / rows[0].app_ms - 1.0);
    rep.derived("gc_growth_pct_1_to_32", g);
    rep.derived("app_growth_pct_1_to_32", a);
    rep.say(format!(
        "1->32 JVMs: GC time +{g:.0}%, app time +{a:.0}% (paper: +52% GC vs +327.5% app)"
    ));
}

/// Fig. 15: application throughput gain from SwapVA at 1.2× heap.
pub fn fig15(rep: &mut Report) {
    let (memmove, swap) = suite_pair(1.2);
    let mut t = Table::new(["benchmark", "-SwapVA (steps/s)", "+SwapVA (steps/s)", "improvement"]);
    for (m, s) in memmove.iter().zip(&swap) {
        let imp = 100.0 * (s.throughput / m.throughput - 1.0);
        t.row([
            m.name.clone(),
            format!("{:.1}", m.throughput),
            format!("{:.1}", s.throughput),
            pct(imp),
        ]);
        rep.row("fig15", s);
        rep.counter("sim.total_cycles.memmove", m.total_cycles);
        rep.counter("sim.total_cycles.swapva", s.total_cycles);
    }
    rep.table(&t);
    rep.say("(paper: +15.2% CryptoAES ... +86.9% Sparse.large)");
}

/// Fig. 16: application throughput, SVAGC vs baselines at both factors.
pub fn fig16(rep: &mut Report) {
    // Mean gains (vs ParallelGC, vs Shenandoah) of the previous factor.
    let mut prev: Option<(f64, f64)> = None;
    for factor in [1.2, 2.0] {
        rep.say(format!("\n-- heap = {factor}x minimum --"));
        let [shen, pgc, svagc] = three_way(factor);
        let mut t = Table::new(["benchmark", "Shenandoah", "ParallelGC", "SVAGC", "vs PGC", "vs Shen"]);
        let (mut ip, mut is_, mut n) = (0.0, 0.0, 0);
        for ((sh, pg), sv) in shen.iter().zip(&pgc).zip(&svagc) {
            let vp = 100.0 * (sv.throughput / pg.throughput - 1.0);
            let vs = 100.0 * (sv.throughput / sh.throughput - 1.0);
            assert!(
                vs > 0.0,
                "Fig. 16 {} @{factor}x: gain vs Shenandoah {vs}% must be positive",
                sv.name
            );
            t.row([
                sv.name.clone(),
                format!("{:.1}", sh.throughput),
                format!("{:.1}", pg.throughput),
                format!("{:.1}", sv.throughput),
                pct(vp),
                pct(vs),
            ]);
            ip += vp;
            is_ += vs;
            n += 1;
            rep.row(&format!("fig16_{factor}"), sv);
            rep.counter("sim.total_cycles.shenandoah", sh.total_cycles);
            rep.counter("sim.total_cycles.parallelgc", pg.total_cycles);
            rep.counter("sim.total_cycles.svagc", sv.total_cycles);
        }
        rep.table(&t);
        let (mean_p, mean_s) = (ip / n as f64, is_ / n as f64);
        // More headroom means fewer, cheaper GCs: the gain over either
        // baseline shrinks as the heap grows.
        if let Some((pp, ps)) = prev {
            assert!(
                mean_p < pp && mean_s < ps,
                "Fig. 16: mean gains at {factor}x ({mean_p}%, {mean_s}%) must be below \
                 the smaller heap's ({pp}%, {ps}%)"
            );
        }
        prev = Some((mean_p, mean_s));
        rep.derived(&format!("mean_improvement_vs_parallelgc_{factor}"), mean_p);
        rep.derived(&format!("mean_improvement_vs_shenandoah_{factor}"), mean_s);
        rep.say(format!(
            "mean improvement: vs ParallelGC {mean_p:.1}%, vs Shenandoah {mean_s:.1}% (paper @1.2x: 30.95%/37.27%; @2x: 15.26%/16.79%)"
        ));
    }
}

/// Table I: applicability matrix.
pub fn table1(rep: &mut Report) {
    let text = svagc_core::applicability::render_table();
    // Static tables have no numeric rows; pin the rendered text itself.
    rep.counter("render.text_fnv", fnv1a(text.as_bytes()));
    rep.say(text.trim_end());
}

/// Table II: benchmark configuration.
pub fn table2(rep: &mut Report) {
    let text = svagc_workloads::render_table_ii();
    rep.counter("render.text_fnv", fnv1a(text.as_bytes()));
    rep.say(text.trim_end());
}

/// Table III: cache & DTLB miss rates.
pub fn table3(rep: &mut Report) {
    let rows = suites::table3_rows(Some(25));
    let mut t = Table::new([
        "benchmark",
        "cache% memmove",
        "cache% SwapVA",
        "dtlb% memmove",
        "dtlb% SwapVA",
    ]);
    let pair = |p: (f64, f64)| format!("{:.2}({:.2})", p.0, p.1);
    for r in &rows {
        t.row([
            r.name.clone(),
            pair(r.cache_memmove),
            pair(r.cache_swapva),
            pair(r.dtlb_memmove),
            pair(r.dtlb_swapva),
        ]);
        rep.row("table3", r);
    }
    // Summary rows (min/max/geomean, as in the paper).
    let gm = |f: fn(&suites::CacheDtlbRow) -> f64| suites::geomean(rows.iter().map(f));
    let (gc_m, gc_s) = (gm(|r| r.cache_memmove.0), gm(|r| r.cache_swapva.0));
    let (gd_m, gd_s) = (gm(|r| r.dtlb_memmove.0), gm(|r| r.dtlb_swapva.0));
    t.row([
        "geomean".to_string(),
        format!("{gc_m:.2}"),
        format!("{gc_s:.2}"),
        format!("{gd_m:.2}"),
        format!("{gd_s:.2}"),
    ]);
    // SwapVA moves no object bytes through the caches or the DTLB, only
    // page-table lines, so both geomean miss rates fall.
    assert!(
        gc_s < gc_m && gd_s < gd_m,
        "Table III: SwapVA geomeans (cache {gc_s}%, DTLB {gd_s}%) must be below \
         memmove's ({gc_m}%, {gd_m}%)"
    );
    rep.derived("cache_geomean_memmove_1.2x", gc_m);
    rep.derived("cache_geomean_swapva_1.2x", gc_s);
    rep.derived("dtlb_geomean_memmove_1.2x", gd_m);
    rep.derived("dtlb_geomean_swapva_1.2x", gd_s);
    rep.table(&t);
    rep.say("(paper geomeans @1.2x: cache 69.32 -> 65.71, DTLB 1.28 -> 0.52)");
}

/// Ablation A: MoveObject threshold sweep (16-page objects).
pub fn ablation_threshold(rep: &mut Report) {
    let mut t = Table::new(["threshold (pages)", "GC pause (us)", "objects swapped"]);
    for r in ablations::threshold_ablation() {
        t.row([
            r.threshold_pages.to_string(),
            format!("{:.1}", r.pause_us),
            r.swapped.to_string(),
        ]);
        rep.row("ablation_threshold", &r);
        rep.counter("gc.pause_cycles", r.pause_cycles);
        rep.counter("swap.objects", r.swapped);
    }
    rep.table(&t);
}

/// Ablation B: aggregation batch size (10-page objects).
pub fn ablation_aggregation(rep: &mut Report) {
    let mut t = Table::new(["batch", "GC pause (us)", "syscalls"]);
    for r in ablations::aggregation_ablation() {
        t.row([
            if r.batch == 0 { "separated".to_string() } else { r.batch.to_string() },
            format!("{:.1}", r.pause_us),
            r.syscalls.to_string(),
        ]);
        rep.row("ablation_aggregation", &r);
        rep.counter("gc.pause_cycles", r.pause_cycles);
        rep.counter("kernel.syscalls", r.syscalls);
    }
    rep.table(&t);
}

/// Ablation C: mechanism toggles (64-page objects).
pub fn ablation_mechanism(rep: &mut Report) {
    let mut t = Table::new(["variant", "GC pause (us)", "IPIs"]);
    for r in ablations::mechanism_ablation() {
        t.row([r.variant.clone(), format!("{:.1}", r.pause_us), r.ipis.to_string()]);
        rep.row("ablation_mechanism", &r);
        rep.counter("gc.pause_cycles", r.pause_cycles);
        rep.counter("kernel.ipis", r.ipis);
    }
    rep.table(&t);
}

/// Ablation E: LOS design vs SVAGC (the intro's critique).
pub fn ablation_los(rep: &mut Report) {
    let mut t =
        Table::new(["design", "GCs", "LOS compactions", "total GC (us)", "max pause (us)", "frag"]);
    for r in ablations::los_comparison() {
        t.row([
            r.design.clone(),
            r.gcs.to_string(),
            r.los_compactions.to_string(),
            format!("{:.1}", r.total_gc_us),
            format!("{:.1}", r.max_pause_us),
            format!("{:.2}", r.fragmentation),
        ]);
        rep.row("ablation_los", &r);
        rep.counter("gc.total_cycles", r.total_gc_cycles);
        rep.counter("los.compactions", r.los_compactions);
    }
    rep.table(&t);
}

/// Ablation D: Minor-GC promotion mechanism (Table I row 2).
pub fn ablation_minor(rep: &mut Report) {
    let mut t = Table::new(["object pages", "memmove (us)", "SwapVA (us)"]);
    for r in ablations::minor_gc_ablation() {
        t.row([
            r.obj_pages.to_string(),
            format!("{:.1}", r.memmove_us),
            format!("{:.1}", r.swapva_us),
        ]);
        rep.row("ablation_minor", &r);
        rep.counter("minor.memmove_cycles", r.memmove_cycles);
        rep.counter("minor.swapva_cycles", r.swapva_cycles);
    }
    rep.table(&t);
}

/// Packet-scheduler scaling: full-GC makespan vs worker count, barrier
/// pipeline vs work-packet scheduler, on a skewed heap (swap-heavy bigs
/// low, ref-dense smalls high). Not a paper figure — it documents the
/// scheduler this reproduction adds on top of the paper's pipeline.
pub fn packet_scaling(rep: &mut Report) {
    let rows = suites::packet_scaling_rows(&[1, 2, 4, 8]);
    let mut t = Table::new(["GC threads", "barrier (kcycles)", "packets (kcycles)", "speedup", "packets run", "steals"]);
    for r in &rows {
        t.row([
            r.workers.to_string(),
            (r.barrier_cycles / 1000).to_string(),
            (r.packets_cycles / 1000).to_string(),
            x(r.barrier_cycles as f64 / r.packets_cycles as f64),
            r.packets.to_string(),
            r.steals.to_string(),
        ]);
        rep.row("packet_scaling", r);
        rep.counter("sched.barrier_cycles", r.barrier_cycles);
        rep.counter("sched.packets_cycles", r.packets_cycles);
    }
    rep.table(&t);
    for r in rows.iter().filter(|r| r.workers >= 4) {
        assert!(
            r.packets_cycles < r.barrier_cycles,
            "packet scheduler must strictly beat the barrier pipeline at \
             {} workers: packets {} >= barrier {}",
            r.workers,
            r.packets_cycles,
            r.barrier_cycles
        );
    }
    let last = rows.last().unwrap();
    rep.derived(
        "packets_speedup_at_8",
        last.barrier_cycles as f64 / last.packets_cycles as f64,
    );
    rep.say("packet overlap beats the four-barrier pipeline at every multi-worker point");
}

/// Noisy-neighbor blast radius: healthy-tenant throughput and survival as
/// the victim tenant's injected fault rate rises, under a shared frame
/// pool with the pressure ladder armed. Not a paper figure — it documents
/// the fleet-isolation layer this reproduction adds: every point runs the
/// faulty fleet *and* a fault-free twin, and both the isolation oracle
/// (healthy heaps bit-identical to the twin's) and the frame-leak oracle
/// (pool in-use == survivors' footprints, ownership audit clean) must
/// hold for the row to exist at all.
pub fn noisy_neighbor(rep: &mut Report) {
    let rows = suites::noisy_neighbor_rows(&[0, 1, 5, 10]);
    let mut t = Table::new([
        "victim fault rate",
        "survivors",
        "victim",
        "healthy steps/s",
        "healthy GC (ms)",
        "isolation compared",
        "frames audited",
    ]);
    for r in &rows {
        t.row([
            pct(r.fault_rate_pct),
            format!("{}/{}", r.survivors, r.survivors + r.quarantined),
            r.victim.clone(),
            format!("{:.1}", r.healthy_throughput),
            ms(r.healthy_gc_total_ms),
            r.isolation_compared.to_string(),
            r.frames_audited.to_string(),
        ]);
        rep.row("noisy_neighbor", r);
        rep.counter(
            &format!("fleet.survivors.{}pct", r.fault_rate_pct as u32),
            r.survivors,
        );
        rep.counter(
            &format!("fleet.healthy_total_cycles.{}pct", r.fault_rate_pct as u32),
            r.healthy_total_cycles,
        );
    }
    rep.table(&t);
    let base = &rows[0];
    let worst = rows.last().unwrap();
    assert_eq!(
        base.quarantined, 0,
        "fault-free fleet must survive whole under the quota squeeze"
    );
    assert_eq!(
        worst.victim, "fault-abort",
        "a 10% permanent fault rate must quarantine the victim"
    );
    assert_eq!(
        worst.survivors + 1,
        base.survivors,
        "only the victim may fall at the top rate"
    );
    let retained = worst.healthy_throughput / base.healthy_throughput;
    rep.derived("healthy_throughput_retained_at_10pct", retained);
    rep.say(format!(
        "healthy tenants retain {:.1}% of fault-free throughput with the victim quarantined at 10% faults",
        100.0 * retained
    ));
}

/// Pause CDF: SVAGC stop-the-world vs SVAGC `--concurrent` vs Shenandoah
/// (which marks through the same SATB machinery), on Bisort. Not a paper figure — it
/// documents the concurrent-marking mode this reproduction adds. Two
/// invariants are load-bearing and asserted here: the concurrent run's
/// final heap is bit-identical to the STW run's (SATB floats garbage but
/// never changes survivors), and the concurrent max pause beats
/// Shenandoah's (whose degenerated evacuation is a serial memmove).
pub fn pause_cdf(rep: &mut Report) {
    let rows = suites::pause_cdf_rows();
    let mut t = Table::new([
        "collector",
        "GCs",
        "p50 (kcycles)",
        "p90 (kcycles)",
        "p99 (kcycles)",
        "max (kcycles)",
        "concurrent mark (kcycles)",
        "SATB logged",
    ]);
    for r in &rows {
        t.row([
            r.collector.clone(),
            r.gcs.to_string(),
            (r.p50_cycles / 1000).to_string(),
            (r.p90_cycles / 1000).to_string(),
            (r.p99_cycles / 1000).to_string(),
            (r.max_cycles / 1000).to_string(),
            (r.concurrent_mark_cycles / 1000).to_string(),
            r.satb_logged.to_string(),
        ]);
        rep.row("pause_cdf", r);
        let key = |s: &str| {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
                .collect::<String>()
        };
        rep.counter(&format!("pause.max_cycles.{}", key(&r.collector)), r.max_cycles);
        rep.counter(&format!("pause.p50_cycles.{}", key(&r.collector)), r.p50_cycles);
        assert!(r.verify_ok, "{}: end-of-run verification failed", r.collector);
    }
    rep.table(&t);
    let (stw, conc, shen) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(
        conc.heap_hash, stw.heap_hash,
        "concurrent heap must be bit-identical to STW"
    );
    assert!(
        conc.satb_logged > 0,
        "Bisort's parent-link overwrites must exercise the deletion barrier"
    );
    assert!(conc.concurrent_mark_cycles > 0, "marking must run off-pause");
    assert!(
        conc.max_cycles < shen.max_cycles,
        "concurrent max pause {} must beat Shenandoah {}",
        conc.max_cycles,
        shen.max_cycles
    );
    assert!(
        conc.max_cycles < stw.max_cycles,
        "moving the mark off-pause must shrink the max pause: {} !< {}",
        conc.max_cycles,
        stw.max_cycles
    );
    rep.derived(
        "max_pause_vs_shenandoah",
        shen.max_cycles as f64 / conc.max_cycles as f64,
    );
    rep.derived(
        "max_pause_vs_stw",
        stw.max_cycles as f64 / conc.max_cycles as f64,
    );
    rep.say(format!(
        "max pause: concurrent {:.2}x below STW, {:.2}x below Shenandoah; heaps bit-identical",
        stw.max_cycles as f64 / conc.max_cycles as f64,
        shen.max_cycles as f64 / conc.max_cycles as f64
    ));
}

/// Tiering resilience: SVAGC vs its memmove ablation on LRUCache with a
/// fallible far-memory tier underneath, swept over DRAM fraction ×
/// device fault rate. Not a paper figure — it documents the
/// fault-tolerant cold-object tiering this reproduction adds. Two
/// invariants are load-bearing and asserted here: every run's final heap
/// is bit-identical to its collector's DRAM-only run (the tier and its
/// retry ladder are invisible to the mutator at every point of the
/// matrix), and tiering costs memmove far more than it costs SVAGC —
/// memmove compaction drags cold pages back through the fallible device
/// to copy every live word (more on-access fetches, more re-demotions)
/// and journals full pre-images of every copy into the WAL that
/// crash-consistent tiering requires, while PTE swaps move far pages
/// with O(1) intents and no device traffic. The contrast is pinned on
/// GC-overhead inflation (tiered GC cycles over the collector's own
/// DRAM-only GC cycles) and on the fetch-on-access thrash count.
pub fn tiering_resilience(rep: &mut Report) {
    let rows = suites::tiering_resilience_rows();
    let mut t = Table::new([
        "collector",
        "DRAM",
        "dev faults",
        "steps/s",
        "tier (kcycles)",
        "demotions",
        "on-access fetches",
        "retries",
        "torn caught",
        "mode",
    ]);
    for r in &rows {
        t.row([
            r.collector.clone(),
            pct(100.0 * r.dram_fraction),
            pct(100.0 * r.fault_rate),
            format!("{:.1}", r.throughput),
            (r.tier_cycles / 1000).to_string(),
            r.demotions.to_string(),
            r.fetch_on_access.to_string(),
            r.retries.to_string(),
            r.torn_caught.to_string(),
            r.tier_mode.clone(),
        ]);
        rep.row("tiering_resilience", r);
        assert!(
            r.verify_ok,
            "{} f={} p={}: end-of-run verification failed",
            r.collector, r.dram_fraction, r.fault_rate
        );
        let key = |s: &str| {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
                .collect::<String>()
        };
        rep.counter(
            &format!(
                "tier.cycles.{}.f{}.p{}",
                key(&r.collector),
                (100.0 * r.dram_fraction) as u32,
                (100.0 * r.fault_rate) as u32
            ),
            r.tier_cycles,
        );
    }
    rep.table(&t);
    // Invisibility across the whole matrix: every tiered run's heap is
    // bit-identical to its collector's DRAM-only reference, whatever the
    // device fault rate.
    for reference in rows.iter().filter(|r| r.dram_fraction == 1.0) {
        assert_eq!(reference.tier_mode, "off");
        for r in rows.iter().filter(|r| r.collector == reference.collector) {
            assert_eq!(
                r.heap_hash, reference.heap_hash,
                "{} f={} p={}: tiering must be invisible to the mutator",
                r.collector, r.dram_fraction, r.fault_rate
            );
        }
    }
    let find = |c: &str, f: f64, p: f64| {
        rows.iter()
            .find(|r| r.collector == c && r.dram_fraction == f && r.fault_rate == p)
            .unwrap_or_else(|| panic!("missing row {c} f={f} p={p}"))
    };
    let worst = find("SVAGC", 0.3, 0.10);
    assert!(worst.retries > 0, "10% device faults must surface as retries");
    assert!(
        worst.torn_caught > 0,
        "the uniform fault mix at 10% must tear at least one writeback"
    );
    assert!(worst.demotions > 0 && worst.tier_mode == "tiered");
    // The GC-cost contract: tiering inflates memmove's GC time far more
    // than SVAGC's. Memmove's compaction copies pull far pages through
    // the device and its pre-image journaling is per byte copied; SVAGC
    // swaps PTEs, so a far page moves with one logged intent and zero
    // device requests.
    let mm_worst = find("SVAGC(-SwapVA)", 0.3, 0.10);
    let sv_inflation =
        worst.gc_total_cycles as f64 / find("SVAGC", 1.0, 0.0).gc_total_cycles as f64;
    let mm_inflation = mm_worst.gc_total_cycles as f64
        / find("SVAGC(-SwapVA)", 1.0, 0.0).gc_total_cycles as f64;
    assert!(
        sv_inflation < mm_inflation,
        "tiering must cost memmove GC more than SVAGC GC: \
         {sv_inflation:.1}x !< {mm_inflation:.1}x"
    );
    // The thrash contract: copying compaction re-fetches cold pages the
    // swap-based compactor never touches.
    assert!(
        worst.fetch_on_access < mm_worst.fetch_on_access,
        "PTE-swap compaction must thrash less than memmove: {} !< {}",
        worst.fetch_on_access,
        mm_worst.fetch_on_access
    );
    assert!(
        worst.demotions < mm_worst.demotions,
        "memmove's re-promoted pages must cost extra re-demotions: {} !< {}",
        worst.demotions,
        mm_worst.demotions
    );
    rep.derived("svagc_gc_inflation_worst", sv_inflation);
    rep.derived("memmove_gc_inflation_worst", mm_inflation);
    rep.derived(
        "thrash_ratio_memmove_over_svagc",
        mm_worst.fetch_on_access as f64 / worst.fetch_on_access.max(1) as f64,
    );
    rep.say(format!(
        "at 30% DRAM + 10% device faults: tiering inflates GC time {sv_inflation:.1}x for SVAGC vs {mm_inflation:.1}x for memmove ({} vs {} on-access fetches); all 14 heaps bit-identical",
        worst.fetch_on_access, mm_worst.fetch_on_access
    ));
}
