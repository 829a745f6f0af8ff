//! The layer ladder: each layer's public entry point timed on its own,
//! from one simulated launch up to one idle-engine request.

use crate::stats::{median, Rng};
use crate::trace::Trace;
use crate::workload::PlanInput;
use rt_core::{DoseCalculator, KernelSelect, PartitionStrategy, RtError};
use rt_engine::{Engine, RequestKind};
use rt_gpusim::{DeviceSpec, Gpu, Grid};
use rt_sparse::RowPlan;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Runs `f` inside a ladder span named `name`.
fn traced<T>(trace: Trace, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    trace.span(name, None, 0, t, Instant::now());
    v
}

/// Runs the ladder on `plan` (the workload's first plan), whose direct
/// reference `calc` runs at the engine's pinned widths. Returns
/// per-layer metric values by name.
pub fn ladder(
    engine: &Engine,
    plan: &PlanInput,
    calc: &DoseCalculator,
    seed: u64,
    trace: Trace,
) -> Result<Vec<(&'static str, f64)>, RtError> {
    let m = &plan.matrix;
    let a100 = DeviceSpec::a100();
    let mut out = Vec::new();

    out.push((
        "gpusim.gpu_new_ms",
        traced(trace, "ladder.gpu_new", || {
            time_median(5, || Gpu::new(a100.clone())) * 1e3
        }),
    ));
    out.push((
        "gpusim.launch_overhead_us",
        traced(trace, "ladder.launch", || {
            let gpu = Gpu::new(a100.clone());
            time_median(301, || gpu.launch(Grid::new(1, 32), |_| {})) * 1e6
        }),
    ));
    out.push((
        "sparse.transpose_ms",
        traced(trace, "ladder.transpose", || {
            time_median(9, || m.transpose()) * 1e3
        }),
    ));
    out.push((
        "sparse.rowplan_ms",
        traced(trace, "ladder.rowplan", || {
            time_median(9, || RowPlan::from_csr(m)) * 1e3
        }),
    ));
    DoseCalculator::builder(m).with_transpose().build()?;
    out.push((
        "core.calc_build_ms",
        traced(trace, "ladder.calc_build", || {
            time_median(3, || DoseCalculator::builder(m).with_transpose().build()) * 1e3
        }),
    ));
    let probe = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe);
    probe.choose(&a100, m, 512)?;
    KernelSelect::Heuristic.choose(&a100, m, 512)?;
    out.push((
        "core.select_probe_ms",
        traced(trace, "ladder.select_probe", || {
            time_median(3, || probe.choose(&a100, m, 512)) * 1e3
        }),
    ));
    out.push((
        "core.select_heuristic_ms",
        traced(trace, "ladder.select_heuristic", || {
            time_median(9, || KernelSelect::Heuristic.choose(&a100, m, 512)) * 1e3
        }),
    ));

    let mut rng = Rng::stream(seed, u64::MAX);
    let weights: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..m.ncols()).map(|_| rng.unit()).collect())
        .collect();
    let residual: Vec<f64> = (0..m.nrows()).map(|_| 2.0 * rng.unit() - 1.0).collect();
    let first = calc.compute_dose(&weights[0])?;
    calc.compute_gradient_term(&residual)?;
    let refs: Vec<&[f64]> = weights.iter().map(Vec::as_slice).collect();
    let (dose_ms, grad_ms, batch_ms) = traced(trace, "ladder.calculator", || {
        (
            time_median(31, || calc.compute_dose(&weights[0])) * 1e3,
            time_median(31, || calc.compute_gradient_term(&residual)) * 1e3,
            time_median(9, || calc.compute_dose_batch(&refs)) * 1e3,
        )
    });
    let stats = &first.report.stats;
    out.push(("core.dose_ms", dose_ms));
    out.push(("core.grad_ms", grad_ms));
    out.push(("core.dose_batch_ms", batch_ms));
    out.push(("core.nnz_per_s", m.nnz() as f64 / (dose_ms / 1e3)));
    out.push((
        "core.launches_per_dose",
        first.group.as_ref().map_or(1, |g| g.buckets.len()) as f64,
    ));
    out.push((
        "core.dram_bytes_per_dose",
        (stats.dram_read_bytes + stats.dram_write_bytes) as f64,
    ));
    out.push((
        "core.modeled_us_per_dose",
        first.report.estimate.seconds * 1e6,
    ));

    // The same payload through an otherwise idle engine.
    let (calls, _) = traced(trace, "ladder.engine_call", || {
        engine.serve(|client| {
            (0..31)
                .map(|_| {
                    let t = Instant::now();
                    client
                        .call(plan.name, RequestKind::Dose, weights[0].clone())
                        .map(|_| t.elapsed().as_secs_f64() * 1e3)
                })
                .collect::<Result<Vec<f64>, RtError>>()
        })
    });
    out.push(("engine.call_overhead_ms", median(&calls?) - dose_ms));
    Ok(out)
}
