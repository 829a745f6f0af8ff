//! Load generators: a closed loop that keeps the queue full, an open
//! loop on a fixed schedule, and a single optimizer client.
//!
//! Every request is timed to its own completion. `Ticket` has no
//! non-blocking poll, so the collector sweeps the outstanding tickets
//! through their public `Debug` state every [`POLL`] or [`CLOSED_POLL`]; waiting on tickets
//! in submission order would instead charge one stalled request to every
//! later one. The measured sweep interval is the timing resolution.

use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::workload::{output_len, Mix, PlanInput};
use rt_engine::{EngineClient, RequestKind, Ticket};
use rt_optim::{optimize, DoseEngine, Objective, OptimizeResult, OptimizerConfig};
use std::cell::{Cell, RefCell};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sleep between collector sweeps of the open loop, whose requests take
/// about 2 ms.
pub const POLL: Duration = Duration::from_micros(100);
/// Sleep between sweeps of the closed loop, whose requests wait tens of
/// milliseconds in the full queue: a coarser sweep leaves the cores to
/// the engine.
pub const CLOSED_POLL: Duration = Duration::from_millis(1);

/// A completed request whose output is kept for the bitwise check.
pub struct Sample {
    pub index: u64,
    pub output: Vec<f64>,
}

/// One completed request, in seconds from the start of the load: when
/// it was due (open loop) or its submit or call began, and when it
/// completed.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start_s: f64,
    pub done_s: f64,
}

impl Timing {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.start_s) * 1e3
    }
}

/// Figures of a load taken per window, each the median over windows.
pub struct Windowed {
    pub throughput_rps: f64,
    pub p50_ms: f64,
}

/// What one load phase saw, from the client's side.
#[derive(Default)]
pub struct LoadResult {
    /// Requests the generator tried to send.
    pub attempted: u64,
    pub ok: u64,
    /// Refused at submit, shed, or failed in execution.
    pub failed: u64,
    /// Responses whose output length was wrong.
    pub bad_len: u64,
    /// Per completed request.
    pub timings: Vec<Timing>,
    /// Engine-reported queue wait of each completed request (empty when
    /// the client cannot see it).
    pub queue_ms: Vec<f64>,
    /// Largest delay between a request's due time and its submit.
    pub late_max_ms: f64,
    /// Mean interval between collector sweeps.
    pub poll_interval_us: f64,
    pub samples: Vec<Sample>,
}

impl LoadResult {
    pub fn latency_ms(&self) -> Vec<f64> {
        self.timings.iter().map(Timing::latency_ms).collect()
    }

    /// Latency minus queue wait, per completed request.
    pub fn exec_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .zip(&self.queue_ms)
            .map(|(t, q)| t.latency_ms() - q)
            .collect()
    }

    /// Splits the first `seconds` of the load into `windows` equal
    /// windows and takes, over the windows, the median of the completion
    /// rate and of the median latency of the requests that started in
    /// each. A host stall then moves one window, not the run.
    pub fn windowed(&self, seconds: f64, windows: usize) -> Option<Windowed> {
        let len = seconds / windows as f64;
        let window = |t: f64| ((t / len) as usize).min(windows);
        let mut done: Vec<Vec<f64>> = vec![Vec::new(); windows + 1];
        let mut started: Vec<Vec<f64>> = vec![Vec::new(); windows + 1];
        for t in &self.timings {
            done[window(t.done_s)].push(t.done_s);
            started[window(t.start_s)].push(t.latency_ms());
        }
        let full: Vec<usize> = (0..windows)
            .filter(|&w| done[w].len() > 1 && !started[w].is_empty())
            .collect();
        if full.is_empty() {
            return None;
        }
        let per =
            |f: &dyn Fn(usize) -> f64| median(&full.iter().map(|&w| f(w)).collect::<Vec<_>>());
        let rate = |d: &[f64]| {
            let (lo, hi) = d
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            (d.len() - 1) as f64 / (hi - lo)
        };
        Some(Windowed {
            throughput_rps: per(&|w| rate(&done[w])),
            p50_ms: per(&|w| quantile(&started[w], 0.5)),
        })
    }
}

struct Pending {
    index: u64,
    plan: usize,
    kind: RequestKind,
    /// When the request was due (open loop) or its submit began.
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

fn completed(ticket: &Ticket) -> bool {
    format!("{ticket:?}").contains("completed: true")
}

/// Tickets outstanding at the collector.
struct Collector<'a> {
    mix: &'a Mix<'a>,
    trace: Trace<'a>,
    pending: Vec<Pending>,
    start: Instant,
    sweeps: u64,
    first_sweep: Option<Instant>,
    last_sweep: Instant,
}

impl<'a> Collector<'a> {
    fn new(mix: &'a Mix<'a>, trace: Trace<'a>, start: Instant) -> Self {
        Collector {
            mix,
            trace,
            pending: Vec::new(),
            start,
            sweeps: 0,
            first_sweep: None,
            last_sweep: Instant::now(),
        }
    }

    /// Resolves every ticket that has completed since the last sweep.
    fn sweep(&mut self, out: &mut LoadResult) {
        let now = Instant::now();
        self.first_sweep.get_or_insert(now);
        self.last_sweep = now;
        self.sweeps += 1;
        let mut k = 0;
        while k < self.pending.len() {
            if !completed(&self.pending[k].ticket) {
                k += 1;
                continue;
            }
            let p = self.pending.swap_remove(k);
            match p.ticket.wait() {
                Ok(resp) => {
                    out.ok += 1;
                    out.timings.push(Timing {
                        start_s: (p.due - self.start).as_secs_f64(),
                        done_s: (now - self.start).as_secs_f64(),
                    });
                    out.queue_ms.push(resp.queue_ms);
                    let plan: &PlanInput = &self.mix.plans[p.plan];
                    if resp.output.len() != output_len(plan, p.kind) {
                        out.bad_len += 1;
                    }
                    if self.trace.0.is_some() {
                        let id = self.trace.id();
                        if p.submitted > p.due {
                            self.trace
                                .span("gen_late", Some(id), p.index, p.due, p.submitted);
                        }
                        let queued = Duration::from_secs_f64(resp.queue_ms.max(0.0) / 1e3);
                        self.trace.span(
                            "queue_wait",
                            Some(id),
                            p.index,
                            p.submitted,
                            (p.submitted + queued).min(now),
                        );
                        self.trace.record("request", id, None, p.index, p.due, now);
                    }
                    if self.mix.sampled(p.index) {
                        out.samples.push(Sample {
                            index: p.index,
                            output: resp.output,
                        });
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
    }

    fn finish(&self, out: &mut LoadResult) {
        if let Some(first) = self.first_sweep {
            if self.sweeps > 1 {
                out.poll_interval_us =
                    (self.last_sweep - first).as_secs_f64() * 1e6 / (self.sweeps - 1) as f64;
            }
        }
    }
}

/// Closed loop: one thread submits with the blocking `submit`, so the
/// bounded queue stays full; this thread collects. Two load threads.
pub fn closed_loop(
    client: &EngineClient<'_>,
    mix: &Mix<'_>,
    seconds: f64,
    trace: Trace,
) -> LoadResult {
    let mut out = LoadResult::default();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut collector = Collector::new(mix, trace, start);
    let (attempted, refused) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let (mut i, mut refused) = (0u64, 0u64);
            while Instant::now() < stop {
                let req = mix.request(i);
                let due = Instant::now();
                let name = mix.plans[req.plan].name;
                match client.submit(name, req.kind, req.payload) {
                    Ok(ticket) => {
                        let p = Pending {
                            index: i,
                            plan: req.plan,
                            kind: req.kind,
                            due,
                            submitted: due,
                            ticket,
                        };
                        tx.send(p).expect("collector outlives the submitter");
                    }
                    Err(_) => refused += 1,
                }
                i += 1;
            }
            (i, refused)
        });
        let mut open = true;
        while open || !collector.pending.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(p) => collector.pending.push(p),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            collector.sweep(&mut out);
            std::thread::sleep(CLOSED_POLL);
        }
        submitter.join().expect("submitter thread panicked")
    });
    out.attempted = attempted;
    out.failed += refused;
    collector.finish(&mut out);
    out
}

/// Open loop: request `k` is due at `start + k / rate` whether or not
/// earlier ones have completed; submits never block (`try_submit`), and
/// latency runs from the due time. One load thread.
pub fn open_loop(
    client: &EngineClient<'_>,
    mix: &Mix<'_>,
    rate: f64,
    seconds: f64,
    trace: Trace,
) -> LoadResult {
    let mut out = LoadResult::default();
    let n = (rate * seconds).round() as u64;
    let start = Instant::now();
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let mut collector = Collector::new(mix, trace, start);
    let mut k = 0u64;
    while k < n || !collector.pending.is_empty() {
        let now = Instant::now();
        if k < n && now >= due(k) {
            let req = mix.request(k);
            let submitted = Instant::now();
            out.late_max_ms = out
                .late_max_ms
                .max((submitted - due(k)).as_secs_f64() * 1e3);
            let name = mix.plans[req.plan].name;
            match client.try_submit(name, req.kind, req.payload) {
                Ok(ticket) => collector.pending.push(Pending {
                    index: k,
                    plan: req.plan,
                    kind: req.kind,
                    due: due(k),
                    submitted,
                    ticket,
                }),
                Err(_) => out.failed += 1,
            }
            k += 1;
            continue;
        }
        collector.sweep(&mut out);
        let wake = if k < n {
            due(k).min(now + POLL)
        } else {
            now + POLL
        };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    out.attempted = n;
    collector.finish(&mut out);
    out
}

/// A [`DoseEngine`] wrapper that times each call into the engine and
/// traces optimizer iterations (one starts at each back-projection).
pub struct TimedEngine<'t, E> {
    inner: E,
    trace: Trace<'t>,
    run: u64,
    run_span: u64,
    /// Start and end of every call into the engine.
    pub calls: RefCell<Vec<(Instant, Instant)>>,
    pub engine_s: Cell<f64>,
    pub dose_calls: Cell<u64>,
    pub grad_calls: Cell<u64>,
    iteration: Cell<Option<(u64, Instant)>>,
}

impl<'t, E: DoseEngine> TimedEngine<'t, E> {
    pub fn new(inner: E, trace: Trace<'t>, run: u64) -> Self {
        TimedEngine {
            inner,
            trace,
            run,
            run_span: trace.id(),
            calls: RefCell::new(Vec::new()),
            engine_s: Cell::new(0.0),
            dose_calls: Cell::new(0),
            grad_calls: Cell::new(0),
            iteration: Cell::new(None),
        }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.engine_s
            .set(self.engine_s.get() + (t1 - t0).as_secs_f64());
        self.calls.borrow_mut().push((t0, t1));
        let parent = self.iteration.get().map_or(self.run_span, |(id, _)| id);
        self.trace.span(name, Some(parent), self.run, t0, t1);
        out
    }

    fn close_iteration(&self, at: Instant) {
        if let Some((id, start)) = self.iteration.take() {
            self.trace
                .record("iteration", id, Some(self.run_span), self.run, start, at);
        }
    }

    /// Runs one optimization and closes its spans.
    pub fn optimize(&self, objective: &Objective, w0: &[f64], iters: usize) -> OptimizeResult {
        let t0 = Instant::now();
        let cfg = OptimizerConfig {
            max_iters: iters,
            grad_tol: 0.0,
            ..Default::default()
        };
        let result = optimize(self, objective, w0, &cfg);
        let t1 = Instant::now();
        self.close_iteration(t1);
        self.trace
            .record("optimize_run", self.run_span, None, self.run, t0, t1);
        result
    }
}

impl<E: DoseEngine> DoseEngine for TimedEngine<'_, E> {
    fn nvoxels(&self) -> usize {
        self.inner.nvoxels()
    }

    fn nspots(&self) -> usize {
        self.inner.nspots()
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        self.dose_calls.set(self.dose_calls.get() + 1);
        self.timed("dose", || self.inner.dose(weights))
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        let now = Instant::now();
        self.close_iteration(now);
        if self.trace.0.is_some() {
            self.iteration.set(Some((self.trace.id(), now)));
        }
        self.grad_calls.set(self.grad_calls.get() + 1);
        self.timed("backproject", || self.inner.backproject(residual))
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.modeled_seconds()
    }
}
