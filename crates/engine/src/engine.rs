//! The serving engine: device pool, worker threads, batching dispatch.
//!
//! # Architecture
//!
//! One worker thread per simulated device, all popping from one bounded
//! FIFO ([`BoundedQueue`]). A worker pops a request together with up to
//! `max_batch - 1` queued *compatible* requests (same plan, same
//! operation), in one critical section so no other worker can take a
//! mate in between, and executes them as one multi-vector launch sequence
//! ([`DoseCalculator::compute_dose_batch`]), so concurrent traffic for
//! the same matrix shares its bytes.
//!
//! Every plan is placed as `R` replica groups of `K` row-range shards
//! (the default is one `K = 1` group per device). The batch goes to one
//! group: a worker that is the home device of one of the plan's `K = 1`
//! groups runs the batch there itself; otherwise the batch fans out into
//! per-shard sub-tasks, each pinned to its shard's home device.
//!
//! Exactly one worker drives each device, and only a calculator's home
//! worker ever runs it — launches for one device never interleave,
//! matching the one-stream-per-GPU execution model.
//!
//! # Determinism (§II-D)
//!
//! Scheduling is nondeterministic: which worker pops a request, which
//! requests share its batch, and which device executes them all vary run
//! to run. The *dose does not*: the batched kernel performs per-vector
//! arithmetic identical to the single-vector kernel (fixed reduction
//! tree, fixed traversal order), and no functional result depends on the
//! `DeviceSpec`. The integration tests assert bitwise-identical doses
//! across pool sizes 1/4/8 and shuffled submission orders.
//!
//! [`BoundedQueue`]: crate::queue::BoundedQueue
//! [`DoseCalculator::compute_dose_batch`]: rt_core::DoseCalculator::compute_dose_batch

use crate::metrics::{
    BatchSample, BreakEvenSelection, BucketSelection, EngineReport, Metrics, PlacementSelection,
    PlanSelection, PlanShard, ReplicaGroupSelection,
};
use crate::policy::{ExecPolicy, ReplicaSpec, ShardSpec};
use crate::queue::BoundedQueue;
use rt_core::{
    choose_shard_count, modeled_whole_seconds, BreakEvenPoint, BucketWidths, DoseCalculator,
    KernelChoice, KernelSelect, RtError, MAX_SPMM_BATCH,
};
use rt_gpusim::{
    gather_estimate, snake_partition_subset, DeviceSpec, LaunchReport, ShardReport, ShardedReport,
};
use rt_sparse::{Csr, RowPlan, ShardPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which operation a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `dose = A w` — payload is a spot-weight vector (`ncols` long).
    Dose,
    /// `g = A^T r` — payload is a voxel residual (`nrows` long).
    Gradient,
}

/// A completed request: the output vector plus the launch report of the
/// batch that computed it.
#[derive(Clone, Debug)]
pub struct EngineResponse {
    /// Output vector: dose per voxel ([`RequestKind::Dose`]) or gradient
    /// per spot ([`RequestKind::Gradient`]).
    pub output: Vec<f64>,
    /// Merged launch report of the batch this request rode in (shared by
    /// every request of the batch).
    pub report: LaunchReport,
    /// Device that executed the batch.
    pub device: String,
    /// How many requests shared the batch (1 = no batching win).
    pub batch_size: usize,
    /// Milliseconds this request waited in the queue before dispatch.
    pub queue_ms: f64,
    /// Per-shard breakdown when the batch ran row-sharded across a
    /// replica group: per-device counters, the modeled gather cost of
    /// landing each shard's rows, and the critical-path modeled time.
    /// `None` for one-shard groups, which have nothing to gather.
    pub shards: Option<ShardedReport>,
}

/// One request's reply slot: filled exactly once — by a worker, or by
/// the drop guard of an unanswered [`EngineRequest`] — and awaited by
/// [`Ticket::wait`].
struct ReplySlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    filled: bool,
    /// The reply, until [`ReplySlot::wait`] takes it.
    outcome: Option<Result<EngineResponse, RtError>>,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        })
    }

    /// Fills the slot; a no-op once it is filled (the first reply wins).
    fn complete(&self, outcome: Result<EngineResponse, RtError>) {
        let mut s = self.state.lock().unwrap();
        if !s.filled {
            s.filled = true;
            s.outcome = Some(outcome);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<EngineResponse, RtError> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(outcome) = s.outcome.take() {
                return outcome;
            }
            s = self.cv.wait(s).unwrap();
        }
    }
}

/// Handle to an in-flight request.
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.slot.state.lock().unwrap();
        f.debug_struct("Ticket")
            .field("completed", &state.filled)
            .finish()
    }
}

impl Ticket {
    /// Blocks until a worker completes (or sheds) the request.
    pub fn wait(self) -> Result<EngineResponse, RtError> {
        self.slot.wait()
    }
}

struct EngineRequest {
    plan: usize,
    kind: RequestKind,
    payload: Vec<f64>,
    submitted: Instant,
    /// Queue-wait budget; the request is shed at dispatch if exceeded.
    budget_ms: Option<f64>,
    slot: Arc<ReplySlot>,
}

/// A request dropped without a reply (a worker unwinding mid-batch drops
/// the requests it holds) fails its ticket with
/// [`RtError::RequestDropped`] instead of leaving [`Ticket::wait`]
/// blocked forever. A no-op for a request already answered.
impl Drop for EngineRequest {
    fn drop(&mut self) {
        self.slot.complete(Err(RtError::RequestDropped));
    }
}

/// What sits in the serve queue: an admitted request, or one shard
/// sub-task of a fanned-out batch (pinned to the shard's home device).
enum WorkItem {
    Request(EngineRequest),
    Shard(ShardTask),
}

/// One shard's slice of a fanned-out batch. Only the worker for
/// `device` may pop it — the shard's sub-matrix is resident there.
struct ShardTask {
    shard: usize,
    device: usize,
    fan: Arc<FanOut>,
}

/// Barrier-free completion tracker for one batch on one replica group:
/// each shard lands its outputs as it completes (any order; `K > 1`
/// shards scatter disjoint row ranges), and whichever shard decrements
/// `remaining` to zero fills every reply slot. Cancellation (deadline
/// expiry seen at shard dispatch, or a shard execution error) flips
/// `cancelled` with a CAS — the winner fails every slot, later shards
/// skip execution, and no partially-merged dose can ever escape.
struct FanOut {
    plan: usize,
    /// Replica group executing this fan-out (indexes `epoch.groups` and
    /// the per-plan, per-epoch load table).
    group: usize,
    /// The placement epoch this fan-out was dealt under. Shard indices
    /// resolve against *these* groups even if a re-deal swaps the plan's
    /// current epoch mid-flight — the `Arc` keeps the old generation's
    /// calculators alive until the last shard retires.
    epoch: Arc<PlacementEpoch>,
    kind: RequestKind,
    /// The batch members with their queue-wait at fan-out time.
    requests: Vec<(EngineRequest, f64)>,
    /// One output per member: zero-filled for `K > 1` scatters, moved in
    /// whole from a single shard.
    outputs: Mutex<Vec<Vec<f64>>>,
    remaining: AtomicUsize,
    cancelled: AtomicBool,
    /// Per-shard launch reports keyed by shard index, pushed in
    /// completion order and sorted at merge time (the merged report is
    /// deterministic even though the landing order is not).
    reports: Mutex<Vec<(usize, LaunchReport)>>,
    /// Earliest true deadline in the batch — `min_i(submitted_i +
    /// budget_i)` over members that carry a budget — paired with the
    /// binding member's budget. The whole fan-out is shed as a unit
    /// when it expires before every shard has dispatched
    /// (all-or-nothing keeps the dose invariant simple), but no member
    /// is ever shed earlier than its *own* deadline: a mate's tighter
    /// budget binds only from that mate's later submission time.
    deadline: Option<(Instant, f64)>,
}

impl FanOut {
    fn units(&self) -> &[ShardUnit] {
        self.epoch.groups[self.group].units(self.kind)
    }
}

/// Worker start gate: an engine built with `start_paused` holds its
/// workers here until [`EngineClient::resume`] (or serve teardown), which
/// makes admission-control behavior deterministic to test.
struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(paused: bool) -> Self {
        Gate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut g = self.paused.lock().unwrap();
        while *g {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn open(&self) {
        *self.paused.lock().unwrap() = false;
        self.cv.notify_all();
    }
}

/// Replica-group load counters for one placement epoch.
struct GroupLoads {
    /// Fan-outs currently in flight per replica group.
    outstanding: Vec<u64>,
    /// Fan-outs completed per replica group (the current epoch's row is
    /// reported as `placement.groups[].served`).
    served: Vec<u64>,
}

/// Per-plan replica-group load tracking for one serve session, keyed by
/// placement epoch: an in-flight fan-out retires against the epoch that
/// dispatched it even after a re-deal swaps the plan's current
/// generation. One mutex per plan: group selection and the outstanding
/// increment happen in a single critical section, so two workers
/// dispatching the same plan concurrently can never both pick the
/// "idle" group.
type PlanLoads = Mutex<HashMap<u64, GroupLoads>>;

struct ServeState {
    queue: BoundedQueue<WorkItem>,
    gate: Gate,
    metrics: Metrics,
    /// One entry per registered plan.
    loads: Vec<PlanLoads>,
}

/// One unit of a replica group's residency, pinned to its home device:
/// a row-range shard of the matrix or of its transpose, or — in a
/// one-shard group — the whole matrix together with its transpose.
struct ShardUnit {
    /// Home device index into the *pool* (shard `s` of a replica group
    /// lives on the group's `s % group_size`-th member).
    device: usize,
    row_start: usize,
    row_end: usize,
    nnz: u64,
    /// Result bytes one output vector of this shard ships over the
    /// interconnect at gather time (8 bytes per non-empty row; empty
    /// rows scatter nothing).
    gather_bytes: u64,
    calc: DoseCalculator,
}

/// One replica group: a disjoint device subset holding a full copy of
/// the plan. A one-shard group (`K = 1`) is a single calculator with the
/// whole matrix and its transpose on its fastest member; a `K`-shard
/// group holds `K` row-range shards of the matrix (dose direction) plus
/// `K` of the transpose (gradient direction).
struct ReplicaGroup {
    /// Absolute pool device indices, fastest (highest modeled bandwidth)
    /// first — `devices[0]` is the group's reference device for the
    /// break-even model.
    devices: Vec<usize>,
    /// Row-range shards of the dose matrix, in row order (for `K = 1`,
    /// the one whole-matrix unit).
    dose_shards: Vec<ShardUnit>,
    /// Row-range shards of the transpose, sharded by *its* rows (= spot
    /// columns of the dose matrix) so gradient outputs are disjoint too.
    /// Empty for `K = 1`.
    grad_shards: Vec<ShardUnit>,
    /// Break-even evidence table ([`ShardSpec::Auto`] only): the modeled
    /// single-request seconds at every candidate shard count.
    breakeven: Vec<BreakEvenPoint>,
}

impl ReplicaGroup {
    /// The units serving `kind` (a one-shard group serves both
    /// directions from its single unit).
    fn units(&self, kind: RequestKind) -> &[ShardUnit] {
        match kind {
            RequestKind::Gradient if !self.grad_shards.is_empty() => &self.grad_shards,
            _ => &self.dose_shards,
        }
    }
}

/// One immutable generation of a plan's resolved placement: `R`
/// disjoint replica groups, each serving whole requests independently.
/// Fan-outs pin the epoch they were dispatched under (`Arc`), so a live
/// re-deal never pulls calculators out from under an in-flight batch.
/// Groups are `Arc`s so a re-deal can carry unchanged groups into the
/// next epoch without rebuilding them.
#[derive(Default)]
struct PlacementEpoch {
    /// Monotone generation counter (0 = the registration-time deal).
    epoch: u64,
    groups: Vec<Arc<ReplicaGroup>>,
}

/// What every replica group is built from: host-side copies of the
/// matrix and its transpose (kept so a drain or undrain can build groups
/// for the changed live set) and, for partitioned plans, each
/// direction's row plan with its pinned per-bucket widths, shared by
/// every calculator. The widths are pinned from the whole
/// matrix/transpose, so a re-deal can never change the arithmetic — only
/// where it runs.
struct PlacementSource {
    matrix: Csr<f64, u32>,
    transpose: Csr<f64, u32>,
    partition: Option<(Arc<RowPlan>, BucketWidths)>,
    grad_partition: Option<(Arc<RowPlan>, BucketWidths)>,
}

struct Plan {
    name: String,
    /// The current placement epoch behind a mutex'd `Arc` (the lock is
    /// held only to clone or swap the pointer — never across a
    /// calculator build).
    current: Mutex<Arc<PlacementEpoch>>,
    /// Re-deals that changed at least one group (`placement.rebalances`).
    rebalances: AtomicU64,
    /// Inputs a re-deal builds changed groups from.
    source: PlacementSource,
    /// The policy this plan was registered under.
    policy: ExecPolicy,
    /// The autotuner's decision for this plan, made once at
    /// registration; every calculator runs at `choice.tile_width` (or,
    /// for partitioned plans, at the per-bucket widths in
    /// `choice.buckets`). Width pinning is what keeps placed doses
    /// bitwise identical to unsharded: every shard calculator inherits
    /// the whole-matrix decision, so each row's arithmetic is a function
    /// of its length alone, not of the shard or replica it landed in.
    choice: KernelChoice,
    /// The autotuner's independent decision for the gradient direction,
    /// made once at registration by running the same strategy on the
    /// transpose. Pinned from the whole transpose before any shard
    /// split, so sharded gradients stay bitwise identical to unsharded
    /// for any R/K/pool/completion order — the backward mirror of
    /// `choice`.
    grad_choice: KernelChoice,
}

impl Plan {
    /// The current placement epoch.
    fn placement(&self) -> Arc<PlacementEpoch> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Device bytes this plan pins on pool device `dev` under its
    /// current placement epoch.
    fn resident_bytes_on(&self, dev: usize) -> u64 {
        self.placement()
            .groups
            .iter()
            .flat_map(|g| g.dose_shards.iter().chain(&g.grad_shards))
            .filter(|u| u.device == dev)
            .map(|u| u.calc.resident_bytes())
            .sum()
    }
}

/// Configures an [`Engine`]; obtained from [`Engine::builder`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    devices: Vec<DeviceSpec>,
    queue_capacity: usize,
    max_batch: usize,
    threads_per_block: u32,
    default_deadline_ms: Option<f64>,
    max_request_len: Option<usize>,
    start_paused: bool,
    default_policy: ExecPolicy,
    debug_delays: Vec<(usize, f64)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            devices: Vec::new(),
            queue_capacity: 64,
            max_batch: MAX_SPMM_BATCH,
            threads_per_block: 512,
            default_deadline_ms: None,
            max_request_len: None,
            start_paused: false,
            default_policy: ExecPolicy::default(),
            debug_delays: Vec::new(),
        }
    }
}

impl EngineBuilder {
    /// Adds one device to the pool (one worker thread each).
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Adds several devices at once.
    pub fn devices(mut self, specs: impl IntoIterator<Item = DeviceSpec>) -> Self {
        self.devices.extend(specs);
        self
    }

    /// Bounded request-queue capacity (default 64; minimum 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Most requests a worker may merge into one launch sequence
    /// (default [`MAX_SPMM_BATCH`]; minimum 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Execution configuration for every plan's kernels (default 512).
    pub fn threads_per_block(mut self, tpb: u32) -> Self {
        self.threads_per_block = tpb;
        self
    }

    /// Queue-wait budget applied to requests submitted without an
    /// explicit deadline.
    pub fn default_deadline_ms(mut self, budget_ms: f64) -> Self {
        self.default_deadline_ms = Some(budget_ms);
        self
    }

    /// Rejects payloads longer than `max` at admission
    /// ([`RtError::RequestTooLarge`]).
    pub fn max_request_len(mut self, max: usize) -> Self {
        self.max_request_len = Some(max);
        self
    }

    /// Holds workers at serve start until [`EngineClient::resume`] —
    /// lets tests fill the queue deterministically.
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Execution policy applied to plans registered through
    /// [`Engine::register_plan`] (default [`ExecPolicy::default`]: one
    /// whole-matrix calculator per device). Per-plan policies via
    /// [`Engine::register_plan_with`] override this.
    pub fn default_policy(mut self, policy: ExecPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Test hook: delays worker `device` by `delay_ms` before it serves
    /// each shard sub-task (queued or run inline), simulating a slow
    /// pool member so deadline-cancellation under fan-out is
    /// deterministic to test.
    #[doc(hidden)]
    pub fn debug_device_delay_ms(mut self, device: usize, delay_ms: f64) -> Self {
        self.debug_delays.push((device, delay_ms));
        self
    }

    /// Validates the configuration.
    pub fn build(self) -> Result<Engine, RtError> {
        if self.devices.is_empty() {
            return Err(RtError::EmptyDevicePool);
        }
        let tpb = self.threads_per_block;
        if !(32..=1024).contains(&tpb) || !tpb.is_multiple_of(32) {
            return Err(RtError::InvalidThreadsPerBlock(tpb));
        }
        self.default_policy.validate()?;
        let pool = self.devices.len();
        Ok(Engine {
            devices: self.devices,
            plans: Vec::new(),
            plan_index: HashMap::new(),
            drained: (0..pool).map(|_| AtomicBool::new(false)).collect(),
            rebalance_lock: Mutex::new(()),
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            threads_per_block: tpb,
            default_deadline_ms: self.default_deadline_ms,
            max_request_len: self.max_request_len,
            start_paused: self.start_paused,
            default_policy: self.default_policy,
            debug_delays: self.debug_delays,
        })
    }
}

/// A multi-plan dose-calculation serving engine over a pool of simulated
/// devices.
///
/// ```
/// use rt_engine::{Engine, RequestKind};
/// use rt_gpusim::DeviceSpec;
/// use rt_sparse::Csr;
///
/// let m = Csr::from_rows(2, &[vec![(0, 1.0)], vec![(1, 0.5)]]).unwrap();
/// let mut engine = Engine::builder()
///     .device(DeviceSpec::a100())
///     .device(DeviceSpec::v100())
///     .build()
///     .unwrap();
/// engine.register_plan("demo", &m).unwrap();
/// let (dose, report) = engine.serve(|client| {
///     client
///         .call("demo", RequestKind::Dose, vec![1.0, 1.0])
///         .unwrap()
///         .output
/// });
/// assert_eq!(dose.len(), 2);
/// assert_eq!(report.completed, 1);
/// ```
pub struct Engine {
    devices: Vec<DeviceSpec>,
    plans: Vec<Plan>,
    /// Name → index into `plans`: submits resolve plans by name on the
    /// hot path, so the lookup must not rescan the plan list.
    plan_index: HashMap<String, usize>,
    /// Per-device drain flags. A drained device takes no new requests
    /// and no groups in new placement epochs, but still executes shard
    /// sub-tasks pinned to it by an older epoch — in-flight fan-outs
    /// finish where they started.
    drained: Vec<AtomicBool>,
    /// Serializes drain/undrain re-deals so two triggers can never
    /// interleave their build-then-swap sequences.
    rebalance_lock: Mutex<()>,
    queue_capacity: usize,
    max_batch: usize,
    threads_per_block: u32,
    default_deadline_ms: Option<f64>,
    max_request_len: Option<usize>,
    start_paused: bool,
    default_policy: ExecPolicy,
    debug_delays: Vec<(usize, f64)>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field(
                "devices",
                &self.devices.iter().map(|d| d.name).collect::<Vec<_>>(),
            )
            .field("plans", &self.plan_names())
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .finish()
    }
}

impl Engine {
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Devices in the pool, in worker order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Registered plan names, in registration order.
    pub fn plan_names(&self) -> Vec<&str> {
        self.plans.iter().map(|p| p.name.as_str()).collect()
    }

    /// `(nvoxels, nspots)` of a registered plan.
    pub fn plan_dims(&self, name: &str) -> Option<(usize, usize)> {
        self.plan(name)
            .map(|p| (p.source.matrix.nrows(), p.source.matrix.ncols()))
    }

    fn plan(&self, name: &str) -> Option<&Plan> {
        self.plan_index.get(name).map(|&i| &self.plans[i])
    }

    /// The tile width a registered plan's kernels run at.
    pub fn plan_tile_width(&self, name: &str) -> Option<u32> {
        self.plan(name).map(|p| p.choice.tile_width)
    }

    /// The full autotuner decision recorded for a registered plan.
    pub fn plan_choice(&self, name: &str) -> Option<&KernelChoice> {
        self.plan(name).map(|p| &p.choice)
    }

    /// The row-partition plan a registered plan dispatches through, if
    /// the engine was built with [`KernelSelect::Partitioned`].
    pub fn plan_row_plan(&self, name: &str) -> Option<&Arc<RowPlan>> {
        self.plan(name)
            .and_then(|p| p.source.partition.as_ref().map(|(rows, _)| rows))
    }

    /// The tile width a registered plan's gradient (transpose) kernels
    /// run at — selected independently of the dose direction.
    pub fn plan_grad_tile_width(&self, name: &str) -> Option<u32> {
        self.plan(name).map(|p| p.grad_choice.tile_width)
    }

    /// The autotuner decision recorded for a registered plan's gradient
    /// direction (the same strategy run on the transpose).
    pub fn plan_grad_choice(&self, name: &str) -> Option<&KernelChoice> {
        self.plan(name).map(|p| &p.grad_choice)
    }

    /// The transpose row-partition plan a registered plan's gradients
    /// dispatch through, if the policy selects [`KernelSelect::Partitioned`].
    pub fn plan_grad_row_plan(&self, name: &str) -> Option<&Arc<RowPlan>> {
        self.plan(name)
            .and_then(|p| p.source.grad_partition.as_ref().map(|(rows, _)| rows))
    }

    /// The default execution policy plans registered through
    /// [`Engine::register_plan`] get.
    pub fn default_policy(&self) -> ExecPolicy {
        self.default_policy
    }

    /// The execution policy a registered plan was placed under.
    pub fn plan_policy(&self, name: &str) -> Option<ExecPolicy> {
        self.plan(name).map(|p| p.policy)
    }

    /// Dose-direction shards per replica group a registered plan
    /// actually got under its current placement epoch (forced counts
    /// are clamped to the plan's rows); `None` for an unknown plan.
    pub fn plan_shard_count(&self, name: &str) -> Option<usize> {
        self.plan(name)
            .map(|p| p.placement().groups[0].dose_shards.len())
    }

    /// Replica groups a registered plan is currently dealt across;
    /// `None` for an unknown plan.
    pub fn plan_replica_count(&self, name: &str) -> Option<usize> {
        self.plan(name).map(|p| p.placement().groups.len())
    }

    /// Re-deals (drains and undrains that changed at least one of its
    /// replica groups) a registered plan's placement has absorbed;
    /// `None` for an unknown plan.
    pub fn plan_rebalances(&self, name: &str) -> Option<u64> {
        self.plan(name).map(|p| p.rebalances.load(Ordering::SeqCst))
    }

    /// The break-even evidence table recorded for a registered plan's
    /// first replica group under its current placement epoch
    /// ([`ShardSpec::Auto`] plans only; empty for forced shard counts,
    /// `None` for an unknown plan).
    pub fn plan_breakeven(&self, name: &str) -> Option<Vec<BreakEvenPoint>> {
        self.plan(name)
            .map(|p| p.placement().groups[0].breakeven.clone())
    }

    /// Interior shard cut points of a registered plan's first replica
    /// group (`K - 1` row indices; empty for `K = 1`, `None` for an
    /// unknown plan). These are what [`rt_sparse::save_csr_with_cuts`]
    /// persists so a snapshot cold start can skip re-sharding.
    pub fn plan_shard_cuts(&self, name: &str) -> Option<Vec<usize>> {
        self.plan(name).map(|p| {
            p.placement().groups[0]
                .dose_shards
                .iter()
                .skip(1)
                .map(|u| u.row_start)
                .collect()
        })
    }

    /// Registers `matrix` under the plan name `name` with the engine's
    /// default policy ([`EngineBuilder::default_policy`]); see
    /// [`Engine::register_plan_with`].
    pub fn register_plan(&mut self, name: &str, matrix: &Csr<f64, u32>) -> Result<(), RtError> {
        self.register_plan_inner(name, matrix, self.default_policy, None)
    }

    /// Registers `matrix` under the plan name `name` with a per-plan
    /// execution policy.
    ///
    /// Registration is when the engine autotunes. The policy's
    /// [`KernelSelect`] picks the plan's tile width once (from row
    /// statistics, or by probing candidate widths on the first pool
    /// device); every calculator is built to run at it — pinned widths
    /// are what make placed doses bitwise identical to unsharded ones.
    ///
    /// The live pool is then snake-dealt by modeled bandwidth into `R`
    /// disjoint replica groups, and each group holds the plan as `K`
    /// throughput-weighted row-range shards (`K` per the policy, or the
    /// break-even model under [`ShardSpec::Auto`]). A `K = 1` group is
    /// one calculator holding the whole matrix and its transpose; the
    /// default policy (`R` = live devices, `K = 1`) therefore uploads
    /// both to every device. Returns [`RtError::InvalidPlacement`] when
    /// a forced replica count exceeds the pool.
    pub fn register_plan_with(
        &mut self,
        name: &str,
        matrix: &Csr<f64, u32>,
        policy: ExecPolicy,
    ) -> Result<(), RtError> {
        self.register_plan_inner(name, matrix, policy, None)
    }

    fn register_plan_inner(
        &mut self,
        name: &str,
        matrix: &Csr<f64, u32>,
        policy: ExecPolicy,
        stored_cuts: Option<&[usize]>,
    ) -> Result<(), RtError> {
        if self.plan(name).is_some() {
            return Err(RtError::DuplicatePlan(name.to_string()));
        }
        policy.validate()?;
        let choice =
            policy
                .kernel_select
                .choose(&self.devices[0], matrix, self.threads_per_block)?;
        // The gradient direction gets its own decision: the same
        // strategy run on the transpose, whose row-length distribution
        // (beamlet rows) is unrelated to the dose direction's.
        let transpose = matrix.transpose();
        let grad_choice =
            policy
                .kernel_select
                .choose(&self.devices[0], &transpose, self.threads_per_block)?;
        // Partitioned strategies: build each direction's row plan once,
        // pinned with its per-bucket widths from the whole matrix (or
        // transpose) before any shard split, and share it across every
        // whole-matrix calculator. (Bucket membership is a function of
        // row length, so shards reuse the same widths against their own
        // row plans.)
        let partitioned = matches!(policy.kernel_select, KernelSelect::Partitioned(_));
        let partition =
            partitioned.then(|| (Arc::new(RowPlan::from_csr(matrix)), choice.bucket_widths()));
        let grad_partition = partitioned.then(|| {
            (
                Arc::new(RowPlan::from_csr(&transpose)),
                grad_choice.bucket_widths(),
            )
        });
        let mut plan = Plan {
            name: name.to_string(),
            current: Mutex::default(),
            rebalances: AtomicU64::new(0),
            source: PlacementSource {
                matrix: matrix.clone(),
                transpose,
                partition,
                grad_partition,
            },
            policy,
            choice,
            grad_choice,
        };
        let groups = self.place_groups(&plan, stored_cuts, &self.live_devices(), &[])?;
        plan.current = Mutex::new(Arc::new(PlacementEpoch { epoch: 0, groups }));
        self.plan_index.insert(name.to_string(), self.plans.len());
        self.plans.push(plan);
        Ok(())
    }

    /// Deals a plan's replica groups over the `live` device subset (the
    /// whole pool at registration; the changed live set on a re-deal).
    /// A group whose member list and shard count match one in `reuse`
    /// is shared, not rebuilt. The break-even model re-runs against the
    /// live members, so a shrunken group may legitimately pick a smaller
    /// `K` than the full pool would have.
    fn place_groups(
        &self,
        plan: &Plan,
        stored_cuts: Option<&[usize]>,
        live: &[usize],
        reuse: &[Arc<ReplicaGroup>],
    ) -> Result<Vec<Arc<ReplicaGroup>>, RtError> {
        let src = &plan.source;
        let pool = self.devices.len();
        let live_n = live.len();
        let weights: Vec<f64> = self.devices.iter().map(|d| d.effective_dram_bw()).collect();
        let nonempty = nonempty_rows(&src.matrix);
        let r = match plan.policy.replicas {
            ReplicaSpec::Fixed(r) => {
                if r > pool {
                    return Err(RtError::InvalidPlacement(format!(
                        "{r} replica groups requested but the pool has {pool} devices"
                    )));
                }
                // A transient drain can shrink the live pool below a
                // forced R: clamp — the undrain re-deal restores full
                // replication.
                r.min(live_n)
            }
            ReplicaSpec::Auto => {
                // Derive R from the shard count the plan would take on
                // the live pool: enough groups that each can hold a
                // complete shard set.
                let k_target = match plan.policy.shards {
                    ShardSpec::Fixed(k) => k,
                    ShardSpec::Auto => {
                        let sorted: Vec<DeviceSpec> = snake_partition_subset(&weights, live, 1)
                            .remove(0)
                            .into_iter()
                            .map(|d| self.devices[d].clone())
                            .collect();
                        let whole = self.whole_seconds_for(&sorted[0], &src.matrix, &plan.choice);
                        choose_shard_count(&sorted, whole, nonempty, live_n).k
                    }
                };
                (live_n / k_target.min(live_n)).max(1)
            }
        };
        // Snake-deal the live devices by modeled bandwidth so the R
        // groups are matched in strength; each group lists its members
        // fastest first.
        snake_partition_subset(&weights, live, r)
            .into_iter()
            .map(|members| {
                let (k, breakeven) = match plan.policy.shards {
                    ShardSpec::Fixed(k) => (k, Vec::new()),
                    ShardSpec::Auto => {
                        let specs: Vec<DeviceSpec> =
                            members.iter().map(|&d| self.devices[d].clone()).collect();
                        let whole = self.whole_seconds_for(&specs[0], &src.matrix, &plan.choice);
                        let be = choose_shard_count(&specs, whole, nonempty, specs.len());
                        (be.k, be.candidates)
                    }
                };
                // A shard split never yields more shards than rows.
                let k = k.clamp(1, src.matrix.nrows().max(1));
                if let Some(g) = reuse
                    .iter()
                    .find(|g| g.devices == members && g.dose_shards.len() == k)
                {
                    return Ok(Arc::clone(g));
                }
                let (dose_shards, grad_shards) = if k == 1 {
                    (vec![self.whole_unit(plan, members[0])?], Vec::new())
                } else {
                    // The gradient runs `A^T r` as a forward SpMV on the
                    // transpose, so the transpose shards by its own rows
                    // and the gradient outputs stay disjoint. It runs at
                    // the gradient direction's own pinned decision,
                    // matching the whole-matrix gradient bit for bit.
                    let widths =
                        |p: &Option<(Arc<RowPlan>, BucketWidths)>| p.as_ref().map(|(_, w)| *w);
                    (
                        self.build_group_units(
                            &src.matrix,
                            &members,
                            k,
                            &plan.choice,
                            widths(&src.partition),
                            stored_cuts,
                        )?,
                        self.build_group_units(
                            &src.transpose,
                            &members,
                            k,
                            &plan.grad_choice,
                            widths(&src.grad_partition),
                            None,
                        )?,
                    )
                };
                Ok(Arc::new(ReplicaGroup {
                    devices: members,
                    dose_shards,
                    grad_shards,
                    breakeven,
                }))
            })
            .collect()
    }

    /// Pool devices not currently drained.
    fn live_devices(&self) -> Vec<usize> {
        (0..self.devices.len())
            .filter(|&d| !self.drained[d].load(Ordering::SeqCst))
            .collect()
    }

    /// Whether pool device `d` is currently drained.
    pub fn device_drained(&self, d: usize) -> bool {
        self.drained
            .get(d)
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Marks pool device `d` ineligible for new work: its worker stops
    /// popping requests, no new placement epoch puts a group on it, and
    /// every plan is re-dealt over the surviving devices. Shard
    /// sub-tasks already pinned by an older epoch still execute, so
    /// in-flight fan-outs finish where they started — and because every
    /// epoch's widths are pinned from the whole matrix, the dose bytes
    /// are identical either way.
    ///
    /// Idempotent. Fails with [`RtError::InvalidPlacement`] when `d` is
    /// out of range or draining it would leave the pool empty.
    pub fn drain_device(&self, d: usize) -> Result<(), RtError> {
        if d >= self.devices.len() {
            return Err(RtError::InvalidPlacement(format!(
                "drain target {d} out of range for a {}-device pool",
                self.devices.len()
            )));
        }
        let _serialize = self.rebalance_lock.lock().unwrap();
        if self.drained[d].load(Ordering::SeqCst) {
            return Ok(());
        }
        let live: Vec<usize> = self
            .live_devices()
            .into_iter()
            .filter(|&i| i != d)
            .collect();
        if live.is_empty() {
            return Err(RtError::InvalidPlacement(format!(
                "cannot drain device {d}: it is the last live device in the pool"
            )));
        }
        self.drained[d].store(true, Ordering::SeqCst);
        self.plans
            .iter()
            .try_for_each(|p| self.redeal_plan(p, &live))
    }

    /// Returns a drained device to service and re-deals every plan over
    /// the grown pool. Idempotent; fails with
    /// [`RtError::InvalidPlacement`] when `d` is out of range.
    pub fn undrain_device(&self, d: usize) -> Result<(), RtError> {
        if d >= self.devices.len() {
            return Err(RtError::InvalidPlacement(format!(
                "undrain target {d} out of range for a {}-device pool",
                self.devices.len()
            )));
        }
        let _serialize = self.rebalance_lock.lock().unwrap();
        if !self.drained[d].swap(false, Ordering::SeqCst) {
            return Ok(());
        }
        let live = self.live_devices();
        self.plans
            .iter()
            .try_for_each(|p| self.redeal_plan(p, &live))
    }

    /// Re-deals one plan's replica groups over `live`. A re-deal is a
    /// pure function of the live set and the policy, so every group
    /// whose members and shard count did not change is carried into the
    /// new epoch as is, and only the changed groups are built — before
    /// the cell lock is taken, so dispatchers never wait on calculator
    /// construction. When no group changed there is no epoch swap and no
    /// rebalance count. Callers hold `rebalance_lock`.
    fn redeal_plan(&self, plan: &Plan, live: &[usize]) -> Result<(), RtError> {
        let old = plan.placement();
        let groups = self.place_groups(plan, None, live, &old.groups)?;
        let unchanged = groups.len() == old.groups.len()
            && groups
                .iter()
                .zip(&old.groups)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if unchanged {
            return Ok(());
        }
        let mut cur = plan.current.lock().unwrap();
        *cur = Arc::new(PlacementEpoch {
            epoch: cur.epoch + 1,
            groups,
        });
        plan.rebalances.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// A one-shard group's unit on `device`: one calculator holding the
    /// whole matrix and its transpose at the plan's pinned widths, over
    /// the plan's cached row plans — no shard split.
    fn whole_unit(&self, plan: &Plan, device: usize) -> Result<ShardUnit, RtError> {
        let src = &plan.source;
        let mut b = DoseCalculator::builder(&src.matrix)
            .device(self.devices[device].clone())
            .threads_per_block(self.threads_per_block)
            .tile_width(plan.choice.tile_width)
            .grad_tile_width(plan.grad_choice.tile_width)
            .with_transpose();
        if let Some((rows, widths)) = &src.partition {
            b = b.partitioned_with_plan(rows.clone(), *widths);
        }
        if let Some((rows, widths)) = &src.grad_partition {
            b = b.grad_partitioned_with_plan(rows.clone(), *widths);
        }
        Ok(ShardUnit {
            device,
            row_start: 0,
            row_end: src.matrix.nrows(),
            nnz: src.matrix.nnz() as u64,
            gather_bytes: 0,
            calc: b.build()?,
        })
    }

    /// Splits `matrix` into `k` row-range shards weighted by each home
    /// device's modeled bandwidth (shard `s` homes on the group's
    /// `s % group_size`-th member) and builds one calculator per shard.
    /// Stored snapshot cuts short-circuit the split when they match the
    /// resolved shard count. With `widths`, each shard dispatches
    /// through the bucketed partition of its own sub-matrix at the
    /// plan's pinned per-bucket widths.
    fn build_group_units(
        &self,
        matrix: &Csr<f64, u32>,
        members: &[usize],
        k: usize,
        choice: &KernelChoice,
        widths: Option<BucketWidths>,
        stored_cuts: Option<&[usize]>,
    ) -> Result<Vec<ShardUnit>, RtError> {
        let n = members.len();
        let plan = match stored_cuts {
            Some(cuts) if cuts.len() + 1 == k => ShardPlan::from_cuts(matrix, cuts),
            _ => {
                let group_weights: Vec<f64> = (0..k)
                    .map(|i| self.devices[members[i % n]].effective_dram_bw())
                    .collect();
                ShardPlan::build_weighted(matrix, &group_weights)
            }
        };
        plan.shards()
            .iter()
            .map(|shard| {
                let device = members[shard.index % n];
                let mut b = DoseCalculator::builder(&shard.matrix)
                    .device(self.devices[device].clone())
                    .threads_per_block(self.threads_per_block)
                    .tile_width(choice.tile_width);
                if let Some(w) = widths {
                    b = b.partitioned_with_plan(shard.plan.clone(), w);
                }
                Ok(ShardUnit {
                    device,
                    row_start: shard.row_start,
                    row_end: shard.row_end,
                    nnz: shard.nnz() as u64,
                    gather_bytes: shard.gather_bytes(),
                    calc: b.build()?,
                })
            })
            .collect()
    }

    /// Modeled seconds of one whole-matrix SpMV on `reference`, the
    /// break-even model's dominant input. A measured probe
    /// ([`KernelSelect::MeasuredProbe`]) already timed the chosen width
    /// on the first pool device, so that figure is rescaled to the
    /// reference by modeled bandwidth; other strategies fall back to the
    /// analytic traffic estimate ([`modeled_whole_seconds`], binary16
    /// values + `u32` column indices).
    fn whole_seconds_for(
        &self,
        reference: &DeviceSpec,
        matrix: &Csr<f64, u32>,
        choice: &KernelChoice,
    ) -> f64 {
        match choice
            .candidates
            .iter()
            .find(|c| c.tile_width == choice.tile_width)
        {
            Some(c) => {
                c.modeled_seconds * self.devices[0].effective_dram_bw()
                    / reference.effective_dram_bw()
            }
            None => modeled_whole_seconds(
                reference,
                matrix.nrows(),
                matrix.ncols(),
                matrix.nnz(),
                2,
                4,
            ),
        }
    }

    /// Loads an RTDM snapshot from disk and registers it with the
    /// engine's default policy ([`RtError::Snapshot`] /
    /// [`RtError::Sparse`] on malformed files).
    pub fn register_plan_snapshot(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), RtError> {
        self.register_plan_snapshot_with(name, path, self.default_policy)
    }

    /// Loads an RTDM snapshot from disk and registers it with a
    /// per-plan execution policy. A v2 snapshot written by
    /// [`rt_sparse::save_csr_with_cuts`] carries its shard cut points;
    /// when they match the shard count the policy resolves to, the cold
    /// start reuses them and skips the nnz-prefix re-shard sweep.
    pub fn register_plan_snapshot_with(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        policy: ExecPolicy,
    ) -> Result<(), RtError> {
        let path = path.as_ref();
        let mut file = std::fs::File::open(path)
            .map_err(|e| RtError::Snapshot(format!("{}: {e}", path.display())))?;
        let (matrix, cuts): (Csr<f64, u32>, _) = rt_sparse::load_csr_with_cuts(&mut file)?;
        self.register_plan_inner(name, &matrix, policy, cuts.as_deref())
    }

    /// Runs a serve session: spawns one worker per device, hands the
    /// closure an [`EngineClient`], and on closure return drains the
    /// queue, joins the workers and snapshots the [`EngineReport`].
    pub fn serve<R>(&self, f: impl FnOnce(&EngineClient<'_>) -> R) -> (R, EngineReport) {
        let names: Vec<&str> = self.devices.iter().map(|d| d.name).collect();
        let state = ServeState {
            queue: BoundedQueue::new(self.queue_capacity),
            gate: Gate::new(self.start_paused),
            metrics: Metrics::new(&names),
            loads: self.plans.iter().map(|_| PlanLoads::default()).collect(),
        };
        let out = std::thread::scope(|s| {
            for dev in 0..self.devices.len() {
                let state = &state;
                s.spawn(move || self.worker(dev, state));
            }
            let client = EngineClient {
                engine: self,
                state: &state,
            };
            let r = f(&client);
            // End of session: no more submissions; wake paused workers so
            // they drain what remains and exit.
            state.queue.close();
            state.gate.open();
            r
        });
        let mut report = state
            .metrics
            .report(self.queue_capacity, state.queue.max_depth());
        let buckets = |choice: &KernelChoice| -> Vec<BucketSelection> {
            choice
                .buckets
                .iter()
                .filter(|bc| bc.rows > 0)
                .map(|bc| BucketSelection {
                    min_len: bc.min_len,
                    max_len: bc.max_len,
                    rows: bc.rows,
                    tile_width: bc.tile_width,
                    lanes_active_frac: bc.lanes_active_frac,
                })
                .collect()
        };
        report.plans = self
            .plans
            .iter()
            .zip(&state.loads)
            .map(|(p, loads)| {
                let pl = p.placement();
                // Served tallies are per-epoch; the report shows the
                // current epoch's row (zeros if nothing dispatched on it
                // yet).
                let served: Vec<u64> = loads
                    .lock()
                    .unwrap()
                    .get(&pl.epoch)
                    .map(|e| e.served.clone())
                    .unwrap_or_else(|| vec![0; pl.groups.len()]);
                PlanSelection {
                    name: p.name.clone(),
                    tile_width: p.choice.tile_width,
                    mode: p.choice.mode.to_string(),
                    avg_nnz_nonempty: p.choice.avg_nnz_nonempty,
                    grad_tile_width: p.grad_choice.tile_width,
                    buckets: buckets(&p.choice),
                    grad_buckets: buckets(&p.grad_choice),
                    shards: pl.groups[0]
                        .dose_shards
                        .iter()
                        .enumerate()
                        .map(|(i, u)| PlanShard {
                            shard: i,
                            device: self.devices[u.device].name.to_string(),
                            row_start: u.row_start as u64,
                            rows: (u.row_end - u.row_start) as u64,
                            nnz: u.nnz,
                            resident_bytes: u.calc.resident_bytes(),
                        })
                        .collect(),
                    placement: Some(PlacementSelection {
                        replicas: pl.groups.len(),
                        shards_per_replica: pl.groups[0].dose_shards.len(),
                        auto_shards: p.policy.shards == ShardSpec::Auto,
                        rebalances: p.rebalances.load(Ordering::SeqCst),
                        groups: pl
                            .groups
                            .iter()
                            .enumerate()
                            .map(|(g, grp)| ReplicaGroupSelection {
                                group: g,
                                devices: grp
                                    .devices
                                    .iter()
                                    .map(|&d| self.devices[d].name.to_string())
                                    .collect(),
                                shards: grp.dose_shards.len(),
                                served: served[g],
                            })
                            .collect(),
                        breakeven: pl.groups[0]
                            .breakeven
                            .iter()
                            .map(|b| BreakEvenSelection {
                                k: b.k,
                                modeled_seconds: b.modeled_seconds,
                            })
                            .collect(),
                    }),
                }
            })
            .collect();
        for (dev, d) in report.devices.iter_mut().enumerate() {
            d.resident_bytes = self.plans.iter().map(|p| p.resident_bytes_on(dev)).sum();
            d.drained = self.drained[dev].load(Ordering::SeqCst);
        }
        (out, report)
    }

    /// One device's worker loop: pop a request (any, unless this device
    /// is drained) or a shard sub-task pinned to this device, then
    /// dispatch it. A drained worker still serves its pinned shard
    /// sub-tasks — older placement epochs may have homed shards here,
    /// and their in-flight fan-outs must finish where they started.
    fn worker(&self, dev: usize, state: &ServeState) {
        loop {
            state.gate.wait_open();
            // The first request and its batch mates (same plan, same
            // operation) leave the queue in one critical section.
            let Some((item, mates)) = state.queue.pop_batch(
                self.max_batch - 1,
                |it| match it {
                    WorkItem::Request(_) => !self.drained[dev].load(Ordering::SeqCst),
                    WorkItem::Shard(t) => t.device == dev,
                },
                |first, it| match (first, it) {
                    (WorkItem::Request(a), WorkItem::Request(b)) => {
                        a.plan == b.plan && a.kind == b.kind
                    }
                    _ => false,
                },
            ) else {
                return;
            };
            match item {
                WorkItem::Request(first) => self.dispatch_request(dev, first, mates, state),
                WorkItem::Shard(task) => self.run_shard(dev, task, state),
            }
        }
    }

    /// Sheds expired requests of a batch, then hands the rest to one
    /// replica group of the plan's current placement epoch. A
    /// worker that is the home device of one of the plan's `K = 1`
    /// groups takes that group and runs the batch itself, with no trip
    /// through the queue — so the default placement (one such group per
    /// device) is work-conserving. Otherwise the least-loaded group gets
    /// the batch as per-shard sub-tasks pinned to their home devices.
    fn dispatch_request(
        &self,
        dev: usize,
        first: EngineRequest,
        mates: Vec<WorkItem>,
        state: &ServeState,
    ) {
        let (plan_idx, kind) = (first.plan, first.kind);
        let mut batch = vec![first];
        batch.extend(mates.into_iter().map(|it| match it {
            WorkItem::Request(r) => r,
            WorkItem::Shard(_) => unreachable!("mates are requests only"),
        }));

        let dispatch = Instant::now();
        let mut sample = empty_sample(dev);
        let mut live = Vec::with_capacity(batch.len());
        for req in batch {
            let waited_ms = ms(dispatch - req.submitted);
            match req.budget_ms {
                Some(budget) if waited_ms > budget => {
                    sample.shed_deadline += 1;
                    req.slot.complete(Err(RtError::DeadlineExceeded {
                        budget_ms: budget,
                        waited_ms,
                    }));
                }
                _ => live.push((req, waited_ms)),
            }
        }
        state.metrics.record_batch(sample);
        if live.is_empty() {
            return;
        }

        let plan = &self.plans[plan_idx];
        // Pin the placement epoch for this fan-out before group
        // selection: a re-deal swapping the cell after this point only
        // affects *later* dispatches.
        let epoch = plan.placement();
        let r = epoch.groups.len();
        let home = epoch
            .groups
            .iter()
            .position(|g| matches!(g.dose_shards.as_slice(), [u] if u.device == dev));
        // Selection and the outstanding increment share one critical
        // section so concurrent dispatchers never double-book the idle
        // group.
        let group = {
            let mut loads = state.loads[plan_idx].lock().unwrap();
            let entry = loads.entry(epoch.epoch).or_insert_with(|| GroupLoads {
                outstanding: vec![0; r],
                served: vec![0; r],
            });
            // Least-loaded replica group, ties to the lowest index.
            let g = home.unwrap_or_else(|| {
                (0..r)
                    .min_by_key(|&g| entry.outstanding[g])
                    .expect("a placement has at least one group")
            });
            entry.outstanding[g] += 1;
            g
        };
        // The binding deadline is the earliest member's *true*
        // deadline (`submitted_i + budget_i`), never the oldest
        // submission paired with the batch's minimum budget — a mate's
        // tight budget binds only from that mate's own, later
        // submission time.
        let deadline = live
            .iter()
            .filter_map(|(req, _)| {
                req.budget_ms
                    .map(|b| (req.submitted + Duration::from_secs_f64(b / 1e3), b))
            })
            .min_by(|a, b| a.0.cmp(&b.0));
        let n_units = epoch.groups[group].units(kind).len();
        let out_len = match kind {
            RequestKind::Dose => plan.source.matrix.nrows(),
            RequestKind::Gradient => plan.source.matrix.ncols(),
        };
        let fan = Arc::new(FanOut {
            plan: plan_idx,
            group,
            epoch,
            kind,
            outputs: Mutex::new(if n_units > 1 {
                vec![vec![0.0; out_len]; live.len()]
            } else {
                Vec::new()
            }),
            remaining: AtomicUsize::new(n_units),
            cancelled: AtomicBool::new(false),
            reports: Mutex::new(Vec::with_capacity(n_units)),
            deadline,
            requests: live,
        });
        // Register the fan-out *before* its sub-tasks exist so no
        // worker can observe closed+empty and exit in between.
        state.queue.inflight_inc();
        if home.is_some() {
            self.run_shard(
                dev,
                ShardTask {
                    shard: 0,
                    device: dev,
                    fan,
                },
                state,
            );
        } else {
            state
                .queue
                .push_all_internal(fan.units().iter().enumerate().map(|(s, u)| {
                    WorkItem::Shard(ShardTask {
                        shard: s,
                        device: u.device,
                        fan: Arc::clone(&fan),
                    })
                }));
        }
    }

    /// Executes one shard sub-task on its home device: deadline check,
    /// batched launch, output landing, and — when this shard is the last
    /// to land — reply completion.
    fn run_shard(&self, dev: usize, task: ShardTask, state: &ServeState) {
        if let Some(&(_, delay_ms)) = self.debug_delays.iter().find(|(d, _)| *d == dev) {
            std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
        }
        let fan = &task.fan;
        // Resolve the shard against the epoch this fan-out was dealt
        // under, not the plan's current placement — a re-deal may have
        // swapped the cell while this sub-task sat in the queue.
        let units = fan.units();
        let unit = &units[task.shard];
        let mut sample = empty_sample(dev);

        // A deadline that expired while sub-tasks sat behind a slow
        // device sheds the *whole* fan-out: the CAS winner fails every
        // slot, everyone else (including shards already computed) just
        // retires. A partially-merged dose can never be returned.
        if !fan.cancelled.load(Ordering::SeqCst) {
            if let Some((deadline, binding_budget)) = fan.deadline {
                if Instant::now() > deadline
                    && fan
                        .cancelled
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    sample.shed_deadline = fan.requests.len() as u64;
                    for (req, _) in &fan.requests {
                        // Each member reports *its own* budget; a mate
                        // that carried none inherits the binding
                        // member's.
                        req.slot.complete(Err(RtError::DeadlineExceeded {
                            budget_ms: req.budget_ms.unwrap_or(binding_budget),
                            waited_ms: ms(req.submitted.elapsed()),
                        }));
                    }
                }
            }
        }
        if fan.cancelled.load(Ordering::SeqCst) {
            if fan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.retire_fan(fan, state, false);
            }
            state.metrics.record_batch(sample);
            return;
        }

        let inputs: Vec<&[f64]> = fan
            .requests
            .iter()
            .map(|(r, _)| r.payload.as_slice())
            .collect();
        // A whole-matrix unit serves gradients from its transpose; a
        // gradient shard holds rows of the transpose, so it runs forward.
        let result = match fan.kind {
            RequestKind::Gradient if unit.calc.has_transpose() => {
                unit.calc.compute_gradient_batch(&inputs)
            }
            _ => unit.calc.compute_dose_batch(&inputs),
        };
        match result {
            Ok(br) => {
                {
                    let mut out = fan.outputs.lock().unwrap();
                    if units.len() == 1 {
                        *out = br.outputs;
                    } else {
                        for (v, part) in br.outputs.iter().enumerate() {
                            out[v][unit.row_start..unit.row_end].copy_from_slice(part);
                        }
                    }
                }
                // One *physical* launch sequence on this device; the
                // fan-out's request batch is counted once, at completion,
                // so sharding never inflates the batch metrics.
                sample.launches = 1;
                sample.modeled_seconds = br.report.estimate.seconds;
                fan.reports.lock().unwrap().push((task.shard, br.report));
                if fan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let completed = !fan.cancelled.load(Ordering::SeqCst);
                    self.retire_fan(fan, state, completed);
                    if completed {
                        self.complete_fan(fan, &mut sample);
                    }
                }
            }
            Err(e) => {
                if fan
                    .cancelled
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    sample.failed = fan.requests.len() as u64;
                    for (req, _) in &fan.requests {
                        req.slot.complete(Err(e.clone()));
                    }
                }
                if fan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.retire_fan(fan, state, false);
                }
            }
        }
        state.metrics.record_batch(sample);
    }

    /// Last shard of a fan-out retired (completed, shed, or failed):
    /// release the queue's in-flight hold and return the replica group's
    /// load slot in the epoch it was dealt under, counting completed
    /// fan-outs toward its served tally.
    fn retire_fan(&self, fan: &FanOut, state: &ServeState, completed: bool) {
        state.queue.inflight_dec();
        let mut loads = state.loads[fan.plan].lock().unwrap();
        let entry = loads
            .get_mut(&fan.epoch.epoch)
            .expect("dispatch created this epoch's load row");
        entry.outstanding[fan.group] -= 1;
        if completed {
            entry.served[fan.group] += 1;
        }
    }

    /// Last shard landed: complete every reply slot. A single shard has
    /// nothing to merge, so its members get the unit's own launch
    /// report and no shard breakdown.
    fn complete_fan(&self, fan: &FanOut, sample: &mut BatchSample) {
        let reports = std::mem::take(&mut *fan.reports.lock().unwrap());
        let (report, shards) = match <[_; 1]>::try_from(reports) {
            Ok([(_, only)]) => (only, None),
            Err(reports) => {
                let (report, sharded) = self.merge_shards(fan, reports);
                (report, Some(sharded))
            }
        };
        let outputs = std::mem::take(&mut *fan.outputs.lock().unwrap());
        sample.completed = fan.requests.len() as u64;
        // The fan-out's request batch counts once — here — regardless of
        // how many shards executed it.
        sample.batches = 1;
        sample.batch_size = fan.requests.len() as u64;
        for ((req, waited_ms), output) in fan.requests.iter().zip(outputs) {
            sample
                .timings
                .push((*waited_ms, ms(req.submitted.elapsed())));
            req.slot.complete(Ok(EngineResponse {
                output,
                report: report.clone(),
                device: report.device.clone(),
                batch_size: fan.requests.len(),
                queue_ms: *waited_ms,
                shards: shards.clone(),
            }));
        }
    }

    /// Merges a multi-shard fan-out's launch reports: sorts them into row
    /// order, charges each shard the modeled gather of its rows, and
    /// models the critical path (slowest compute + gather over the
    /// interconnect). The merged report carries the accumulated counters
    /// with the critical-path time, bound/frac_peak_bw taken from the
    /// shard on that path.
    fn merge_shards(
        &self,
        fan: &FanOut,
        mut reports: Vec<(usize, LaunchReport)>,
    ) -> (LaunchReport, ShardedReport) {
        reports.sort_by_key(|(s, _)| *s);
        let units = fan.units();
        let vectors = fan.requests.len() as u64;
        let shards = reports
            .into_iter()
            .map(|(s, r)| {
                let unit = &units[s];
                let spec = &self.devices[unit.device];
                let gather_bytes = unit.gather_bytes * vectors;
                ShardReport {
                    shard: s,
                    device: spec.name.to_string(),
                    row_start: unit.row_start as u64,
                    rows: (unit.row_end - unit.row_start) as u64,
                    nnz: unit.nnz,
                    dispatch: if unit.calc.is_partitioned() {
                        "bucketed".to_string()
                    } else {
                        format!("w={}", unit.calc.tile_width())
                    },
                    stats: r.stats,
                    estimate: r.estimate,
                    gather_bytes,
                    gather_seconds: gather_estimate(spec, gather_bytes),
                }
            })
            .collect();
        // Engine calculators always run the production profile.
        let kernel = "Half/double";
        let sharded = ShardedReport::new(kernel, shards);
        let critical = sharded
            .shards
            .iter()
            .max_by(|a, b| {
                (a.estimate.seconds + a.gather_seconds)
                    .total_cmp(&(b.estimate.seconds + b.gather_seconds))
            })
            .expect("a fan-out has at least one shard");
        let mut estimate = critical.estimate.clone();
        estimate.seconds = sharded.modeled_seconds;
        if estimate.seconds > 0.0 {
            estimate.gflops = sharded.stats.flops as f64 / estimate.seconds / 1e9;
            estimate.dram_bw_gbps = (sharded.stats.dram_read_bytes + sharded.stats.dram_write_bytes)
                as f64
                / estimate.seconds
                / 1e9;
        }
        // The merged report carries the direction-correct width: the
        // gradient direction runs at its own pinned decision.
        let plan = &self.plans[fan.plan];
        let width = match fan.kind {
            RequestKind::Dose => plan.choice.tile_width,
            RequestKind::Gradient => plan.grad_choice.tile_width,
        };
        let report = LaunchReport::new(
            kernel,
            sharded.devices.join("+"),
            sharded.stats.clone(),
            estimate,
        )
        .with_tile_width(width);
        (report, sharded)
    }
}

/// A zeroed [`BatchSample`] for worker `dev`.
fn empty_sample(dev: usize) -> BatchSample {
    BatchSample {
        device: dev,
        completed: 0,
        shed_deadline: 0,
        failed: 0,
        launches: 0,
        batches: 0,
        batch_size: 0,
        modeled_seconds: 0.0,
        timings: Vec::new(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rows that scatter result bytes at gather time (empty rows ship
/// nothing over the interconnect).
fn nonempty_rows(matrix: &Csr<f64, u32>) -> usize {
    matrix.row_ptr().windows(2).filter(|w| w[1] > w[0]).count()
}

/// Submission handle passed to the [`Engine::serve`] closure. Cheap to
/// share by reference across submitter threads.
pub struct EngineClient<'a> {
    engine: &'a Engine,
    state: &'a ServeState,
}

impl EngineClient<'_> {
    /// Validates a submission and builds the queue entry.
    fn prepare(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
        budget_ms: Option<f64>,
    ) -> Result<EngineRequest, RtError> {
        let idx = *self
            .engine
            .plan_index
            .get(plan)
            .ok_or_else(|| RtError::UnknownPlan(plan.to_string()))?;
        let p = &self.engine.plans[idx];
        if let Some(max) = self.engine.max_request_len {
            if payload.len() > max {
                return Err(RtError::RequestTooLarge {
                    len: payload.len(),
                    max,
                });
            }
        }
        let (what, expected) = match kind {
            RequestKind::Dose => ("weights", p.source.matrix.ncols()),
            RequestKind::Gradient => ("residual", p.source.matrix.nrows()),
        };
        if payload.len() != expected {
            return Err(RtError::DimensionMismatch {
                what,
                expected,
                actual: payload.len(),
            });
        }
        Ok(EngineRequest {
            plan: idx,
            kind,
            payload,
            submitted: Instant::now(),
            budget_ms: budget_ms.or(self.engine.default_deadline_ms),
            slot: ReplySlot::new(),
        })
    }

    fn enqueue(&self, req: EngineRequest, blocking: bool) -> Result<Ticket, RtError> {
        let ticket = Ticket {
            slot: Arc::clone(&req.slot),
        };
        let item = WorkItem::Request(req);
        let pushed = if blocking {
            self.state.queue.push(item)
        } else {
            self.state.queue.try_push(item)
        };
        match pushed {
            Ok(()) => {
                self.state.metrics.note_submitted();
                Ok(ticket)
            }
            Err(e) => {
                if matches!(e, RtError::QueueFull { .. }) {
                    self.state.metrics.note_rejected_full();
                }
                Err(e)
            }
        }
    }

    /// Submits a request, blocking while the queue is full
    /// (backpressure).
    pub fn submit(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, None)?;
        self.enqueue(req, true)
    }

    /// Like [`EngineClient::submit`] with an explicit queue-wait budget:
    /// the request is shed with [`RtError::DeadlineExceeded`] if no
    /// worker dispatches it within `budget_ms`.
    pub fn submit_with_deadline(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
        budget_ms: f64,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, Some(budget_ms))?;
        self.enqueue(req, true)
    }

    /// Non-blocking submit: sheds with [`RtError::QueueFull`] instead of
    /// waiting for queue space.
    pub fn try_submit(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, None)?;
        self.enqueue(req, false)
    }

    /// Synchronous round trip: submit and wait for the response.
    pub fn call(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<EngineResponse, RtError> {
        self.submit(plan, kind, payload)?.wait()
    }

    /// Drains pool device `d` for maintenance mid-session: no new
    /// requests or groups land on it, every plan is re-dealt over the
    /// surviving devices, and in-flight fan-outs finish on their old
    /// placement epoch. See
    /// [`Engine::drain_device`].
    pub fn drain_device(&self, d: usize) -> Result<(), RtError> {
        self.engine.drain_device(d)
    }

    /// Returns a drained device to service and re-deals every plan over
    /// the grown pool. See [`Engine::undrain_device`].
    pub fn undrain_device(&self, d: usize) -> Result<(), RtError> {
        self.engine.undrain_device(d)
    }

    /// Releases workers held by [`EngineBuilder::start_paused`].
    pub fn resume(&self) {
        self.state.gate.open();
    }

    /// Stops admission: subsequent submissions fail with
    /// [`RtError::EngineShutdown`]; already-queued requests still drain.
    pub fn shutdown(&self) {
        self.state.queue.close();
        self.state.gate.open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Csr<f64, u32> {
        Csr::from_rows(
            3,
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![(1, 0.5)],
                vec![(0, 0.25), (1, 1.5), (2, 0.125)],
                vec![(2, 3.0)],
            ],
        )
        .unwrap()
    }

    fn engine_one_device() -> Engine {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        e
    }

    #[test]
    fn builder_requires_devices() {
        assert_eq!(
            Engine::builder().build().unwrap_err(),
            RtError::EmptyDevicePool
        );
        assert_eq!(
            Engine::builder()
                .device(DeviceSpec::a100())
                .threads_per_block(100)
                .build()
                .unwrap_err(),
            RtError::InvalidThreadsPerBlock(100)
        );
    }

    #[test]
    fn duplicate_and_unknown_plans() {
        let mut e = engine_one_device();
        assert_eq!(
            e.register_plan("demo", &small_matrix()).unwrap_err(),
            RtError::DuplicatePlan("demo".to_string())
        );
        assert_eq!(e.plan_names(), vec!["demo"]);
        assert_eq!(e.plan_dims("demo"), Some((4, 3)));
        assert_eq!(e.plan_dims("nope"), None);
        let (err, _) = e.serve(|c| c.call("nope", RequestKind::Dose, vec![1.0; 3]).unwrap_err());
        assert_eq!(err, RtError::UnknownPlan("nope".to_string()));
    }

    #[test]
    fn dose_and_gradient_round_trip() {
        let e = engine_one_device();
        let ((dose, grad), report) = e.serve(|c| {
            let d = c
                .call("demo", RequestKind::Dose, vec![1.0, 1.0, 1.0])
                .unwrap();
            let g = c
                .call("demo", RequestKind::Gradient, vec![1.0, 0.0, 1.0, 0.0])
                .unwrap();
            assert_eq!(d.device, "A100");
            assert!(d.report.estimate.seconds > 0.0);
            assert!(d.queue_ms >= 0.0);
            (d.output, g.output)
        });
        assert_eq!(dose.len(), 4);
        assert_eq!(grad.len(), 3);
        assert_eq!(report.completed, 2);
        assert_eq!(report.submitted, 2);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn dimension_and_size_validation() {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .max_request_len(3)
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        let _ = e.serve(|c| {
            assert_eq!(
                c.submit("demo", RequestKind::Dose, vec![0.0; 2])
                    .unwrap_err(),
                RtError::DimensionMismatch {
                    what: "weights",
                    expected: 3,
                    actual: 2
                }
            );
            // The gradient payload is 4 long, over the 3-element limit.
            assert_eq!(
                c.submit("demo", RequestKind::Gradient, vec![0.0; 4])
                    .unwrap_err(),
                RtError::RequestTooLarge { len: 4, max: 3 }
            );
        });
    }

    #[test]
    fn shutdown_stops_admission_but_drains() {
        let e = engine_one_device();
        let (outcome, report) = e.serve(|c| {
            let t = c.submit("demo", RequestKind::Dose, vec![1.0; 3]).unwrap();
            c.shutdown();
            assert_eq!(
                c.submit("demo", RequestKind::Dose, vec![1.0; 3])
                    .unwrap_err(),
                RtError::EngineShutdown
            );
            t.wait()
        });
        assert!(outcome.is_ok());
        assert_eq!(report.completed, 1);
        assert_eq!(report.submitted, 1);
    }

    #[test]
    fn dropped_requests_fail_their_tickets() {
        let e = engine_one_device();
        let request = || {
            let slot = ReplySlot::new();
            let ticket = Ticket {
                slot: Arc::clone(&slot),
            };
            let req = EngineRequest {
                plan: 0,
                kind: RequestKind::Dose,
                payload: vec![1.0; 3],
                submitted: Instant::now(),
                budget_ms: None,
                slot,
            };
            (req, ticket)
        };

        // A bare request dropped unanswered.
        let (req, ticket) = request();
        drop(req);
        assert_eq!(ticket.wait().unwrap_err(), RtError::RequestDropped);

        // A fan-out dropped before its shard landed fails every member,
        // exactly once.
        let (a, ta) = request();
        let (b, tb) = request();
        let fan = FanOut {
            plan: 0,
            group: 0,
            epoch: e.plans[0].placement(),
            kind: RequestKind::Dose,
            requests: vec![(a, 0.0), (b, 0.0)],
            outputs: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(1),
            cancelled: AtomicBool::new(false),
            reports: Mutex::new(Vec::new()),
            deadline: None,
        };
        assert_eq!(format!("{ta:?}"), "Ticket { completed: false }");
        drop(fan);
        assert_eq!(format!("{ta:?}"), "Ticket { completed: true }");
        assert_eq!(ta.wait().unwrap_err(), RtError::RequestDropped);
        assert_eq!(tb.wait().unwrap_err(), RtError::RequestDropped);

        // An answered request's drop leaves its reply alone.
        let (req, ticket) = request();
        req.slot.complete(Err(RtError::EngineShutdown));
        drop(req);
        assert_eq!(ticket.wait().unwrap_err(), RtError::EngineShutdown);
    }

    #[test]
    fn redeals_share_unchanged_groups() {
        let mut e = Engine::builder()
            .devices([DeviceSpec::a100(), DeviceSpec::a100(), DeviceSpec::v100()])
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        let groups = |e: &Engine| e.plans[0].placement().groups.clone();
        let before = groups(&e);
        assert_eq!(before.len(), 3, "one K=1 group per device");

        e.drain_device(2).unwrap();
        let drained = groups(&e);
        assert_eq!(drained.len(), 2);
        for (old, new) in before.iter().zip(&drained) {
            assert!(Arc::ptr_eq(old, new), "surviving group was rebuilt");
        }
        assert_eq!(e.plan_rebalances("demo"), Some(1));
        assert_eq!(e.plans[0].resident_bytes_on(2), 0);

        e.undrain_device(2).unwrap();
        let restored = groups(&e);
        assert_eq!(restored.len(), 3);
        assert!(Arc::ptr_eq(&before[0], &restored[0]));
        assert!(Arc::ptr_eq(&before[1], &restored[1]));
        assert_eq!(e.plan_rebalances("demo"), Some(2));

        // A re-deal that changes nothing swaps no epoch.
        let live = e.live_devices();
        e.redeal_plan(&e.plans[0], &live).unwrap();
        assert_eq!(e.plan_rebalances("demo"), Some(2));
        assert_eq!(e.plans[0].placement().epoch, 2);
    }

    #[test]
    fn paused_engine_batches_deterministically() {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .max_batch(8)
            .start_paused()
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        let (outputs, report) = e.serve(|c| {
            let tickets: Vec<Ticket> = (0..8)
                .map(|i| {
                    c.submit("demo", RequestKind::Dose, vec![i as f64 * 0.1; 3])
                        .unwrap()
                })
                .collect();
            c.resume();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        // All 8 queued before any worker ran: one launch, batch of 8.
        assert_eq!(report.launches, 1);
        assert_eq!(report.max_batch, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.queue_max_depth, 8);
        assert!((report.avg_batch() - 8.0).abs() < 1e-12);
        for r in &outputs {
            assert_eq!(r.batch_size, 8);
        }
    }
}
