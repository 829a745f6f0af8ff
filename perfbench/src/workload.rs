//! The three workloads: their inputs, engine configuration and the
//! direct reference calculators their outputs are checked against.

use crate::stats::Rng;
use crate::trace::Trace;
use rt_core::{DoseCalculator, KernelSelect, PartitionStrategy, RtError};
use rt_dose::cases::{liver_case, prostate_case};
use rt_dose::ScaleConfig;
use rt_engine::{Engine, ExecPolicy, ReplicaSpec, RequestKind, ShardSpec};
use rt_gpusim::DeviceSpec;
use rt_sparse::Csr;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop keeping the queue full: batch formation does the work.
    Backlog,
    /// Open loop at a fixed rate over row-sharded plans: fan-out, shard
    /// execution, merge and (after the load) re-deal.
    Sharded,
    /// One optimizer driving the engine: the paper's workload.
    Optimize,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "backlog" => Some(Workload::Backlog),
            "sharded" => Some(Workload::Sharded),
            "optimize" => Some(Workload::Optimize),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Backlog => "backlog",
            Workload::Sharded => "sharded",
            Workload::Optimize => "optimize",
        }
    }

    /// Every plan of the workload runs under this policy.
    pub fn policy(self) -> Result<ExecPolicy, RtError> {
        match self {
            Workload::Backlog => Ok(ExecPolicy::default()),
            Workload::Sharded => ExecPolicy::builder()
                .kernel_select(KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe))
                .shards(ShardSpec::Fixed(3))
                .replicas(ReplicaSpec::Fixed(1))
                .build(),
            Workload::Optimize => ExecPolicy::builder()
                .kernel_select(KernelSelect::Partitioned(PartitionStrategy::Heuristic))
                .build(),
        }
    }

    /// Beam 0 of the liver and prostate cases; the optimizer runs on a
    /// larger liver beam so kernel simulation dominates each request.
    pub fn plans(self) -> Vec<PlanInput> {
        let beam0 =
            |cases: Vec<rt_dose::DoseCase>| cases.into_iter().next().expect("beam 0").matrix;
        match self {
            Workload::Backlog | Workload::Sharded => {
                let scale = ScaleConfig { shrink: 32.0 };
                vec![
                    PlanInput {
                        name: "liver",
                        matrix: beam0(liver_case(scale)),
                    },
                    PlanInput {
                        name: "prostate",
                        matrix: beam0(prostate_case(scale)),
                    },
                ]
            }
            Workload::Optimize => vec![PlanInput {
                name: "liver",
                matrix: beam0(liver_case(ScaleConfig { shrink: 16.0 })),
            }],
        }
    }
}

pub struct PlanInput {
    pub name: &'static str,
    pub matrix: Csr<f64, u32>,
}

/// The paper's device mix: two A100s and a V100.
pub fn pool() -> Vec<DeviceSpec> {
    vec![DeviceSpec::a100(), DeviceSpec::a100(), DeviceSpec::v100()]
}

/// Builds the engine and registers every plan: the set-up a user pays
/// before the first request. Returns the engine and each plan's
/// registration seconds.
pub fn setup(
    workload: Workload,
    plans: &[PlanInput],
    trace: Trace,
) -> Result<(Engine, Vec<f64>), RtError> {
    let t0 = Instant::now();
    let root = trace.id();
    let mut engine = Engine::builder().devices(pool()).build()?;
    trace.span("engine_build", Some(root), 0, t0, Instant::now());
    let policy = workload.policy()?;
    let mut register_s = Vec::with_capacity(plans.len());
    for (i, p) in plans.iter().enumerate() {
        let t = Instant::now();
        engine.register_plan_with(p.name, &p.matrix, policy)?;
        let end = Instant::now();
        trace.span("register", Some(root), i as u64, t, end);
        register_s.push((end - t).as_secs_f64());
    }
    trace.record("setup", root, None, 0, t0, Instant::now());
    Ok((engine, register_s))
}

/// A direct single-device calculator at the plan's pinned widths and row
/// plans: what every served response must equal bit for bit.
pub fn reference(engine: &Engine, plan: &PlanInput) -> Result<DoseCalculator, RtError> {
    let unknown = || RtError::UnknownPlan(plan.name.to_string());
    let choice = engine.plan_choice(plan.name).ok_or_else(unknown)?;
    let grad = engine.plan_grad_choice(plan.name).ok_or_else(unknown)?;
    let mut b = DoseCalculator::builder(&plan.matrix)
        .device(DeviceSpec::a100())
        .tile_width(choice.tile_width)
        .grad_tile_width(grad.tile_width)
        .with_transpose();
    if let Some(rows) = engine.plan_row_plan(plan.name) {
        b = b.partitioned_with_plan(rows.clone(), choice.bucket_widths());
    }
    if let Some(rows) = engine.plan_grad_row_plan(plan.name) {
        b = b.grad_partitioned_with_plan(rows.clone(), grad.bucket_widths());
    }
    b.build()
}

/// Runs the direct reference for one request.
pub fn reference_output(
    calc: &DoseCalculator,
    kind: RequestKind,
    payload: &[f64],
) -> Result<Vec<f64>, RtError> {
    match kind {
        RequestKind::Dose => Ok(calc.compute_dose(payload)?.dose),
        RequestKind::Gradient => calc.compute_gradient_term(payload),
    }
}

/// Payload length a request of `kind` must have.
pub fn input_len(plan: &PlanInput, kind: RequestKind) -> usize {
    match kind {
        RequestKind::Dose => plan.matrix.ncols(),
        RequestKind::Gradient => plan.matrix.nrows(),
    }
}

/// Output length a response to `kind` must have.
pub fn output_len(plan: &PlanInput, kind: RequestKind) -> usize {
    match kind {
        RequestKind::Dose => plan.matrix.nrows(),
        RequestKind::Gradient => plan.matrix.ncols(),
    }
}

/// One generated request.
pub struct Request {
    pub plan: usize,
    pub kind: RequestKind,
    pub payload: Vec<f64>,
}

/// The serving mix: liver:prostate 2:1 and dose:gradient 3:1, exact in
/// every block of 12 requests, in a seeded order. Every payload is drawn
/// from its own stream, so no two requests repeat.
pub struct Mix<'a> {
    pub seed: u64,
    pub plans: &'a [PlanInput],
}

const BLOCK: u64 = 12;
const ORDER_SALT: u64 = 0x6f72_6465_7200_0000;
const SAMPLE_SALT: u64 = 0x7361_6d70_6c65_0000;
/// One response in this many is checked against the direct reference.
const SAMPLE_EVERY: u64 = 32;

impl Mix<'_> {
    pub fn request(&self, i: u64) -> Request {
        let mut order: Vec<u64> = (0..BLOCK).collect();
        let mut rng = Rng::stream(self.seed ^ ORDER_SALT, i / BLOCK);
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        let slot = order[(i % BLOCK) as usize];
        let plan = usize::from(slot.is_multiple_of(3));
        let kind = if slot % 4 == 2 {
            RequestKind::Gradient
        } else {
            RequestKind::Dose
        };
        let len = input_len(&self.plans[plan], kind);
        let mut rng = Rng::stream(self.seed, i);
        let payload = match kind {
            RequestKind::Dose => (0..len).map(|_| rng.unit()).collect(),
            RequestKind::Gradient => (0..len).map(|_| 2.0 * rng.unit() - 1.0).collect(),
        };
        Request {
            plan,
            kind,
            payload,
        }
    }

    /// Whether request `i`'s response is kept for the bitwise check.
    pub fn sampled(&self, i: u64) -> bool {
        Rng::stream(self.seed ^ SAMPLE_SALT, i)
            .next_u64()
            .is_multiple_of(SAMPLE_EVERY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_exact_per_block_and_seeded() {
        let plans = Workload::Backlog.plans();
        let mix = Mix {
            seed: 5,
            plans: &plans,
        };
        let reqs: Vec<Request> = (0..BLOCK).map(|i| mix.request(i)).collect();
        assert_eq!(reqs.iter().filter(|r| r.plan == 1).count(), 4);
        let grads = reqs
            .iter()
            .filter(|r| r.kind == RequestKind::Gradient)
            .count();
        assert_eq!(grads, 3);
        for (i, r) in reqs.iter().enumerate() {
            let again = mix.request(i as u64);
            assert_eq!(again.payload, r.payload);
            assert_eq!(r.payload.len(), input_len(&plans[r.plan], r.kind));
        }
        assert_ne!(reqs[0].payload[..4], reqs[1].payload[..4]);
    }
}
