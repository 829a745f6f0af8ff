//! The paper's quantitative claims, checked at a medium simulation
//! scale (shrink = 6: large enough that the row-length structure that
//! drives the results is intact; small enough for CI). The default-scale
//! numbers live in EXPERIMENTS.md.

use rt_repro::context::Context;
use rt_repro::{ablations, fig4, fig5, fig6, fig7, speedups};
use rtdose::dose::cases::ScaleConfig;
use std::sync::OnceLock;

fn ctx() -> &'static Context {
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(|| Context::generate(ScaleConfig { shrink: 6.0 }))
}

#[test]
fn fig5_kernel_ordering_and_bandwidth_bands() {
    let f = fig5::generate(ctx());
    for c in &f.cases {
        assert!(c.half_double.gflops() > c.single.gflops(), "{}", c.case);
        assert!(c.single.gflops() > c.baseline.gflops(), "{}", c.case);
        assert!(c.baseline.gflops() > c.cpu.gflops, "{}", c.case);
        if c.case.starts_with("Liver") {
            // Paper: 80-87% of peak bandwidth on the liver cases.
            let frac = c.half_double.estimate.frac_peak_bw;
            assert!((0.75..0.92).contains(&frac), "{}: frac {frac}", c.case);
            // Paper: ~420 GFLOP/s peak on liver.
            assert!(
                (330.0..480.0).contains(&c.half_double.gflops()),
                "{}: {}",
                c.case,
                c.half_double.gflops()
            );
        } else {
            // Paper: ~68% on the prostate cases (clearly below liver).
            let frac = c.half_double.estimate.frac_peak_bw;
            assert!((0.5..0.8).contains(&frac), "{}: frac {frac}", c.case);
        }
    }
}

#[test]
fn headline_speedups_match_paper_bands() {
    let s = speedups::generate(ctx());
    // "up to 4x (average ~3x)" vs GPU baseline.
    assert!(
        (2.5..4.6).contains(&s.avg_hd_vs_baseline()),
        "avg {}",
        s.avg_hd_vs_baseline()
    );
    assert!(
        (3.2..5.2).contains(&s.max_hd_vs_baseline()),
        "max {}",
        s.max_hd_vs_baseline()
    );
    // "~17x" GPU port vs CPU (we land in the 8-25x band).
    assert!(
        (8.0..25.0).contains(&s.avg_baseline_vs_cpu()),
        "baseline vs cpu {}",
        s.avg_baseline_vs_cpu()
    );
    // "46x" Half/double vs CPU (we land in the 30-70x band).
    assert!(
        (30.0..70.0).contains(&s.avg_hd_vs_cpu()),
        "hd vs cpu {}",
        s.avg_hd_vs_cpu()
    );
    // "420 GFLOP/s" peak.
    assert!(
        (350.0..480.0).contains(&s.peak_gflops()),
        "peak {}",
        s.peak_gflops()
    );
}

#[test]
fn fig4_best_execution_configuration() {
    let f = fig4::generate(ctx());
    let best = f.best();
    // Paper: 512 best for Half/double and Single (we allow 256 too —
    // the paper itself calls 128-512 "similar" for Single).
    assert!(
        [256, 512].contains(&best[0].1),
        "Half/double best {}",
        best[0].1
    );
    assert!(
        [128, 256, 512].contains(&best[1].1),
        "Single best {}",
        best[1].1
    );
    // Paper: smaller blocks (64-128) best for the baseline; at minimum
    // the baseline must not prefer 1024.
    assert!(best[2].1 <= 512, "Baseline best {}", best[2].1);
    // 32 threads/block is clearly bad for the vector kernels.
    let hd = &f.series[0].1;
    assert!(hd[0].gflops() < 0.85 * hd[4].gflops());
}

#[test]
fn fig6_library_comparison_crossover() {
    let f = fig6::generate(ctx());
    for c in &f.cases {
        // Ours matches or beats both libraries.
        assert!(
            c.ours.gflops() >= 0.97 * c.cusparse.gflops(),
            "{}: ours {} vs cuSPARSE {}",
            c.case,
            c.ours.gflops(),
            c.cusparse.gflops()
        );
        assert!(
            c.ours.gflops() >= 0.97 * c.ginkgo.gflops(),
            "{}: ours {} vs Ginkgo {}",
            c.case,
            c.ours.gflops(),
            c.ginkgo.gflops()
        );
        // cuSPARSE > Ginkgo on liver, < on prostate.
        if c.case.starts_with("Liver") {
            assert!(c.cusparse.gflops() > c.ginkgo.gflops(), "{}", c.case);
        } else {
            assert!(c.ginkgo.gflops() > c.cusparse.gflops(), "{}", c.case);
        }
    }
}

#[test]
fn fig7_device_generations() {
    let f = fig7::generate(ctx());
    for c in &f.cases {
        let av = c.a100.gflops() / c.v100.gflops();
        let vp = c.v100.gflops() / c.p100.gflops();
        // Paper: A100/V100 in 1.5-2x, V100/P100 ~2.5x.
        assert!((1.4..2.1).contains(&av), "{}: A/V {av}", c.case);
        assert!((2.0..3.0).contains(&vp), "{}: V/P {vp}", c.case);
    }
    // The P100 bandwidth anomaly (paper: ~41% of peak vs 80-88%).
    let liver = &f.cases[0];
    assert!(liver.p100.estimate.frac_peak_bw < 0.5);
    assert!(liver.a100.estimate.frac_peak_bw > 0.75);
    assert!(liver.v100.estimate.frac_peak_bw > 0.75);
}

#[test]
fn row_mapping_ablation_shows_coalescing_penalty() {
    // At shrink 6 the liver rows are long enough for the thread-per-row
    // kernel's gather pattern to cost real traffic.
    let rows = ablations::row_mapping(ctx());
    for r in &rows {
        assert!(
            r.vector_gflops > r.scalar_gflops,
            "{}: vector {} vs scalar {}",
            r.case,
            r.vector_gflops,
            r.scalar_gflops
        );
        assert!(
            r.scalar_dram > r.vector_dram,
            "{}: scalar traffic {} vs vector {}",
            r.case,
            r.scalar_dram,
            r.vector_dram
        );
        // The DRAM gap above is a few hundred bytes in megabytes: the
        // scattered sectors mostly stay L2-resident between lockstep
        // steps. The penalty the counters resolve clearly is on chip:
        // one L2 transaction per lane per step instead of a handful per
        // warp. Measured 3.9x (liver) and 3.3x (prostate); require 2x.
        assert!(
            r.scalar_l2 > 2 * r.vector_l2,
            "{}: scalar L2 traffic {} vs vector {}",
            r.case,
            r.scalar_l2,
            r.vector_l2
        );
    }
}
