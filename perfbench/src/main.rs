//! End-to-end and per-layer benchmark of the dose-calculation stack.
//!
//! ```text
//! perfbench --workload <backlog|sharded|optimize> --seed N --seconds S --trace <0|1> [--spans FILE]
//! ```
//!
//! Builds the workload's engine several times (set-up time is the
//! median), warms it, drives the seeded load through the public engine
//! API for `S` seconds, and checks a seeded sample of outputs bit for bit
//! against a direct single-device calculator, every output's length, and
//! the engine's accounting against the client's. Prints a settings line,
//! then `{"correct", "attempted", "failed", "metrics": {name: value}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run splits its load into an untraced and a
//! traced half, so it can report what tracing adds; end-to-end numbers
//! come only from untraced runs. Exits non-zero when any check fails.

mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use load::{LoadResult, TimedEngine};
use rt_engine::{Engine, EngineReport, ServedDoseEngine};
use rt_optim::{optimize, DoseEngine, GpuDoseEngine, Objective, ObjectiveTerm, OptimizerConfig};
use stats::{median, quantile, Rng};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Trace, Tracer};
use workload::{Mix, PlanInput, Workload};

/// Simulator threads per launch. Three device workers already contend
/// for a two-core host; on one, a single thread per launch gave a lower
/// p50 and about half the p99 spread of the default (every core).
const SIM_THREADS: &str = "1";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Open-loop arrival rate of `sharded`: a quarter of the 450 req/s the
/// engine sustained with p50 near 2 ms on a two-core host, so a slowdown
/// of a shared host does not tip the open loop into a growing queue (at
/// 300 and at 200 req/s, two runs in ten did, with p50 at 16–34 ms).
const RATE_RPS: f64 = 100.0;
/// Optimizer iterations per run (`grad_tol = 0`, so always all of them).
const OPT_ITERS: usize = 150;
/// Optimizer runs per load phase, at least.
const MIN_OPT_RUNS: usize = 3;
/// Windows the measured time is split into; throughput and median
/// latency are medians over them. Over eight 20 s runs of `backlog`
/// and of `sharded` on a shared two-core host, the median over ten
/// windows spread less from run to run than the median over five.
const WINDOWS: usize = 10;
/// Sequential requests before the measured session.
const WARMUP_REQUESTS: u64 = 48;
/// Seed change for the traced half's requests.
const TRACED_SALT: u64 = 0x7472_6163_6564_0000;
/// Request indices of the warm-up, clear of the measured ones.
const WARMUP_BASE: u64 = 1 << 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or("--workload must be backlog, sharded or optimize")?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans: flags.get("spans").cloned(),
    })
}

/// Peak resident memory of this process, from the kernel's high-water
/// mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One measured load session and the engine's own account of it.
struct Phase {
    /// Seed of the session's request mix.
    seed: u64,
    load: LoadResult,
    report: EngineReport,
    opt: Vec<OptRun>,
}

/// One optimizer run through the engine.
struct OptRun {
    seconds: f64,
    weights: Vec<f64>,
    objective: f64,
    modeled_s: f64,
    engine_s: f64,
    dose_calls: u64,
    grad_calls: u64,
}

/// The optimizer's problem: uniform dose to the voxels above half the
/// open-field peak, from seeded starting weights.
fn problem(plan: &PlanInput, seed: u64) -> (Objective, Vec<f64>) {
    let m = &plan.matrix;
    let mut probe = vec![0.0; m.nrows()];
    m.spmv_ref(&vec![1.0; m.ncols()], &mut probe)
        .expect("probe dimensions match the matrix");
    let peak = probe.iter().cloned().fold(0.0, f64::max);
    let target = (0..probe.len())
        .filter(|&i| probe[i] > 0.5 * peak)
        .collect();
    let objective = Objective::new(vec![ObjectiveTerm::UniformDose {
        voxels: target,
        prescribed: 0.7 * peak,
        weight: 1.0,
    }]);
    let mut rng = Rng::stream(seed, 0);
    let w0 = (0..m.ncols()).map(|_| 0.1 + 0.2 * rng.unit()).collect();
    (objective, w0)
}

fn warm_up(engine: &Engine, mix: &Mix<'_>) -> Result<(), String> {
    let (res, _) = engine.serve(|client| {
        (WARMUP_BASE..WARMUP_BASE + WARMUP_REQUESTS).try_for_each(|i| {
            let r = mix.request(i);
            client
                .call(mix.plans[r.plan].name, r.kind, r.payload)
                .map(|_| ())
        })
    });
    res.map_err(|e| format!("warm-up request failed: {e}"))
}

/// Runs optimizations through the engine, one after another from a
/// single client, until `seconds` have passed.
fn optimize_phase(
    engine: &Engine,
    plan: &PlanInput,
    problem: &(Objective, Vec<f64>),
    seconds: f64,
    trace: Trace,
) -> Phase {
    let dims = (plan.matrix.nrows(), plan.matrix.ncols());
    let ((load, opt), report) = engine.serve(|client| {
        let mut load = LoadResult::default();
        let mut runs: Vec<OptRun> = Vec::new();
        let start = Instant::now();
        while runs.len() < MIN_OPT_RUNS || start.elapsed().as_secs_f64() < seconds {
            let served = ServedDoseEngine::new(client, plan.name, dims);
            let timed = TimedEngine::new(served, trace, runs.len() as u64 + 1);
            let t = Instant::now();
            let result = timed.optimize(&problem.0, &problem.1, OPT_ITERS);
            let run_s = t.elapsed().as_secs_f64();
            let calls = timed.dose_calls.get() + timed.grad_calls.get();
            load.attempted += calls;
            load.ok += calls;
            load.timings
                .extend(timed.calls.take().into_iter().map(|(s, e)| load::Timing {
                    start_s: (s - start).as_secs_f64(),
                    done_s: (e - start).as_secs_f64(),
                }));
            runs.push(OptRun {
                seconds: run_s,
                weights: result.weights,
                objective: result.objective,
                modeled_s: timed.modeled_seconds(),
                engine_s: timed.engine_s.get(),
                dose_calls: timed.dose_calls.get(),
                grad_calls: timed.grad_calls.get(),
            });
        }
        (load, runs)
    });
    Phase {
        seed: 0,
        load,
        report,
        opt,
    }
}

/// Runs one measured load session of the workload, its requests drawn
/// with `seed`.
fn phase(
    workload: Workload,
    engine: &Engine,
    plans: &[PlanInput],
    problem: Option<&(Objective, Vec<f64>)>,
    seed: u64,
    seconds: f64,
    trace: Trace,
) -> Phase {
    let mix = Mix { seed, plans };
    let serve = |f: &dyn Fn(&rt_engine::EngineClient<'_>) -> LoadResult| {
        let (load, report) = engine.serve(|client| f(client));
        Phase {
            seed,
            load,
            report,
            opt: Vec::new(),
        }
    };
    match workload {
        Workload::Backlog => serve(&|client| load::closed_loop(client, &mix, seconds, trace)),
        Workload::Sharded => {
            serve(&|client| load::open_loop(client, &mix, RATE_RPS, seconds, trace))
        }
        Workload::Optimize => {
            let problem = problem.expect("the optimize workload has a problem");
            optimize_phase(engine, &plans[0], problem, seconds, trace)
        }
    }
}

/// Checks one phase's outputs and accounting; returns what is wrong.
fn check_phase(
    p: &Phase,
    plans: &[PlanInput],
    refs: &[rt_core::DoseCalculator],
    opt_ref: Option<&(Vec<f64>, f64)>,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let r = &p.report;
    let accounted = r.completed + r.rejected_queue_full + r.shed_deadline + r.failed;
    if p.load.attempted != accounted {
        problems.push(format!(
            "accounting: {} attempted but the engine accounts for {accounted}",
            p.load.attempted
        ));
    }
    if p.load.ok != r.completed || p.load.failed != accounted - r.completed {
        problems.push(format!(
            "accounting: client saw {} ok / {} failed, engine {} completed / {} not",
            p.load.ok,
            p.load.failed,
            r.completed,
            accounted - r.completed
        ));
    }
    if p.load.bad_len > 0 {
        problems.push(format!("{} responses had the wrong length", p.load.bad_len));
    }
    let mix = Mix {
        seed: p.seed,
        plans,
    };
    for s in &p.load.samples {
        let req = mix.request(s.index);
        let want = workload::reference_output(&refs[req.plan], req.kind, &req.payload)
            .map_err(|e| format!("reference calculation failed: {e}"))?;
        if !bitwise_eq(&want, &s.output) {
            problems.push(format!(
                "request {} ({} {:?}) differs from the direct calculator",
                s.index, plans[req.plan].name, req.kind
            ));
        }
    }
    if let Some((weights, objective)) = opt_ref {
        for (k, run) in p.opt.iter().enumerate() {
            if !bitwise_eq(weights, &run.weights) || objective.to_bits() != run.objective.to_bits()
            {
                problems.push(format!(
                    "optimizer run {k} through the engine differs from the direct calculator's"
                ));
            }
            if (run.dose_calls, run.grad_calls) != (p.opt[0].dose_calls, p.opt[0].grad_calls) {
                problems.push(format!(
                    "optimizer run {k} made a different number of calls"
                ));
            }
        }
    }
    Ok(problems)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Mean request latency, or for the optimizer the median run time: the
/// figure the traced half is compared on.
fn overhead_basis(p: &Phase) -> f64 {
    if p.opt.is_empty() {
        let lat = p.load.latency_ms();
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    } else {
        median(&p.opt.iter().map(|r| r.seconds).collect::<Vec<_>>())
    }
}

/// Mean self times of the traced layers, from the spans.
fn span_metrics(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let selfs = trace::self_times(spans);
    // Mean self time of `name` spans in ms, per span or per `per` span.
    let mean = |name: &str, per: Option<&str>| {
        let (n, total) = selfs.get(name).copied().unwrap_or((0, 0.0));
        let n = per.map_or(n, |p| selfs.get(p).map_or(0, |e| e.0));
        if n == 0 {
            0.0
        } else {
            total / n as f64 * 1e3
        }
    };
    vec![
        ("trace.request_self_ms", mean("request", None)),
        ("trace.queue_wait_ms", mean("queue_wait", Some("request"))),
        ("trace.gen_late_ms", mean("gen_late", Some("request"))),
        ("trace.iteration_self_ms", mean("iteration", None)),
        ("trace.dose_ms", mean("dose", None)),
        ("trace.backproject_ms", mean("backproject", None)),
        ("trace.spans", spans.len() as f64),
    ]
}

struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    settings: Vec<(&'static str, String)>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let err = |e: rt_core::RtError| e.to_string();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load_threads = if args.workload == Workload::Backlog {
        2
    } else {
        1
    };
    if load_threads > nproc {
        return Err(format!(
            "{load_threads} load threads need {load_threads} cores, have {nproc}"
        ));
    }
    let tracer = args.trace.then(Tracer::new);
    let trace = Trace(tracer.as_ref());
    let plans = args.workload.plans();
    let problem = (args.workload == Workload::Optimize).then(|| problem(&plans[0], args.seed));

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut register_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t = Instant::now();
        let (e, regs) = workload::setup(args.workload, &plans, trace).map_err(err)?;
        setup_s.push(t.elapsed().as_secs_f64());
        register_s.extend(regs);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    match &problem {
        Some(p) => {
            let dims = (plans[0].matrix.nrows(), plans[0].matrix.ncols());
            engine.serve(|client| {
                TimedEngine::new(
                    ServedDoseEngine::new(client, plans[0].name, dims),
                    Trace::OFF,
                    0,
                )
                .optimize(&p.0, &p.1, 10)
            });
        }
        None => warm_up(
            &engine,
            &Mix {
                seed: args.seed,
                plans: &plans,
            },
        )?,
    }

    // A traced run measures an untraced half and a traced half; the
    // per-layer engine figures come from the untraced one.
    // The traced half draws its own requests, so none repeats.
    let run_phase = |seed: u64, seconds: f64, trace: Trace| {
        phase(
            args.workload,
            &engine,
            &plans,
            problem.as_ref(),
            seed,
            seconds,
            trace,
        )
    };
    let phases = if args.trace {
        vec![
            run_phase(args.seed, args.seconds / 2.0, Trace::OFF),
            run_phase(args.seed ^ TRACED_SALT, args.seconds / 2.0, trace),
        ]
    } else {
        vec![run_phase(args.seed, args.seconds, Trace::OFF)]
    };

    // Re-deal on the idle engine: device 2 out and back in.
    let t = Instant::now();
    engine.drain_device(2).map_err(err)?;
    let t_mid = Instant::now();
    engine.undrain_device(2).map_err(err)?;
    let t_end = Instant::now();
    trace.span("drain", None, 0, t, t_mid);
    trace.span("undrain", None, 0, t_mid, t_end);
    let rebalances: u64 = plans
        .iter()
        .filter_map(|p| engine.plan_rebalances(p.name))
        .sum();

    let peak_rss_mb = peak_rss_mb()?;

    // References are built only now, so they stay out of the peak.
    let refs = plans
        .iter()
        .map(|p| workload::reference(&engine, p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let opt_ref = match &problem {
        Some((objective, w0)) => {
            let calc = workload::reference(&engine, &plans[0]).map_err(err)?;
            let direct = GpuDoseEngine::with_calculator(calc).map_err(err)?;
            let cfg = OptimizerConfig {
                max_iters: OPT_ITERS,
                grad_tol: 0.0,
                ..Default::default()
            };
            let r = optimize(&direct, objective, w0, &cfg);
            Some((r.weights, r.objective))
        }
        None => None,
    };
    let mut problems = Vec::new();
    for p in &phases {
        problems.extend(check_phase(p, &plans, &refs, opt_ref.as_ref())?);
    }

    let main = &phases[0];
    let lat = main.load.latency_ms();
    if lat.is_empty() {
        return Err("no request completed".to_string());
    }
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let attempted: u64 = phases.iter().map(|p| p.load.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.load.failed).sum();
    if args.trace {
        let r = &main.report;
        let queue = if main.load.queue_ms.is_empty() {
            vec![0.0]
        } else {
            main.load.queue_ms.clone()
        };
        let exec = if main.opt.is_empty() {
            main.load.exec_ms()
        } else {
            lat.clone()
        };
        m.extend(layers::ladder(&engine, &plans[0], &refs[0], args.seed, trace).map_err(err)?);
        m.insert(
            "engine.register_ms",
            register_s.iter().sum::<f64>() / register_s.len() as f64 * 1e3,
        );
        m.insert("engine.queue_wait_p50_ms", quantile(&queue, 0.5));
        m.insert("engine.queue_wait_p99_ms", quantile(&queue, 0.99));
        m.insert("engine.exec_p50_ms", quantile(&exec, 0.5));
        m.insert("engine.avg_batch", r.avg_batch());
        m.insert("engine.launches", r.launches as f64);
        m.insert("engine.batches", r.batches as f64);
        m.insert("engine.queue_max_depth", r.queue_max_depth as f64);
        m.insert("engine.rejected", r.rejected_queue_full as f64);
        m.insert("engine.shed", r.shed_deadline as f64);
        m.insert("engine.failed", r.failed as f64);
        m.insert(
            "engine.resident_bytes",
            r.devices.iter().map(|d| d.resident_bytes).sum::<u64>() as f64,
        );
        m.insert("engine.drain_ms", (t_mid - t).as_secs_f64() * 1e3);
        m.insert("engine.undrain_ms", (t_end - t_mid).as_secs_f64() * 1e3);
        m.insert("engine.rebalances", rebalances as f64);
        m.insert("latency_p90_ms", quantile(&lat, 0.9));
        m.insert("latency_p99_ms", quantile(&lat, 0.99));
        m.insert("redeal_s", (t_end - t).as_secs_f64());
        let opt_median = |f: &dyn Fn(&OptRun) -> f64| {
            if main.opt.is_empty() {
                0.0
            } else {
                median(&main.opt.iter().map(f).collect::<Vec<_>>())
            }
        };
        m.insert("optim.dose_calls", opt_median(&|r| r.dose_calls as f64));
        m.insert("optim.grad_calls", opt_median(&|r| r.grad_calls as f64));
        m.insert("optim.engine_s", opt_median(&|r| r.engine_s));
        m.insert("optim.self_s", opt_median(&|r| r.seconds - r.engine_s));
        m.insert("optimize_s", opt_median(&|r| r.seconds));
        m.insert("modeled_gpu_s", opt_median(&|r| r.modeled_s));
        m.insert(
            "failed_frac",
            main.load.failed as f64 / main.load.attempted.max(1) as f64,
        );
        m.insert("gen.late_max_ms", main.load.late_max_ms);
        m.insert("gen.poll_interval_us", main.load.poll_interval_us);
        let spans = tracer.expect("traced run").into_spans();
        m.extend(span_metrics(&spans));
        m.insert(
            "trace.overhead_pct",
            (overhead_basis(&phases[1]) / overhead_basis(&phases[0]) - 1.0) * 100.0,
        );
        if let Some(path) = &args.spans {
            std::fs::write(path, trace::to_json(&spans))
                .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
        }
    } else {
        m.insert("setup_s", median(&setup_s));
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("ok_frac", main.load.ok as f64 / main.load.attempted as f64);
        let w = main
            .load
            .windowed(args.seconds, WINDOWS)
            .ok_or("no request started inside the measured time")?;
        m.insert("throughput_rps", w.throughput_rps);
        m.insert("latency_p50_ms", w.p50_ms);
        m.insert(
            "modeled_gpu_us_per_req",
            main.report.modeled_gpu_seconds / main.report.completed.max(1) as f64 * 1e6,
        );
    }

    let rate = if args.workload == Workload::Sharded {
        RATE_RPS.to_string()
    } else {
        "null".to_string()
    };
    let settings = vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("sim_threads", SIM_THREADS.to_string()),
        ("rate_rps", rate),
        ("load_threads", load_threads.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("latency_samples", lat.len().to_string()),
        (
            "checked_responses",
            phases
                .iter()
                .map(|p| p.load.samples.len())
                .sum::<usize>()
                .to_string(),
        ),
        ("poll_interval_us", main.load.poll_interval_us.to_string()),
        ("gen.late_max_ms", main.load.late_max_ms.to_string()),
    ];
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
        settings,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pinned before any simulator thread starts: read at every launch.
    std::env::set_var("RTDOSE_SIM_THREADS", SIM_THREADS);
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // Units, order and the expected set of names live in BENCHMARK.json;
    // run.py attaches the units and checks the set.
    if let Some((name, v)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({v})");
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    let settings: Vec<String> = out
        .settings
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"settings\": {{{}}}}}", settings.join(", "));
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
