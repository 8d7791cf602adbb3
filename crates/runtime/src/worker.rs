//! The farm itself: a pool of persistent worker threads, each owning a
//! reusable [`ArrayStation`], fed by the routed/stolen/coalesced queues of
//! [`crate::queue`].
//!
//! [`ArrayFarm::submit`] is the whole client API: validate (admission),
//! predict (closed forms), enqueue, and hand back a [`JobTicket`] whose
//! [`JobTicket::wait`] blocks for the [`JobReceipt`] — or which can
//! [`JobTicket::cancel`] the job while it still queues, poll with
//! [`JobTicket::try_wait`], or bound the wait with
//! [`JobTicket::wait_timeout`].  Workers enforce deadlines at dispatch: a
//! job whose absolute deadline has already passed when a worker picks it
//! up is **shed** (resolved to [`FarmError::DeadlineExceeded`]) without
//! consuming a single array step.  A dispatched batch — one job, or up to
//! `coalesce_limit` same-shape dense mates — is served by one function,
//! chunked into lane passes of at most [`FarmConfig::lanes`] jobs: dense
//! jobs go through the worker's resident [`BandCache`] (a solo job is a
//! one-lane pass), block-sparse and extension jobs (`solve_*_on`,
//! `gauss_seidel_on`) through their own `_on` solvers.  Everything runs on
//! the worker's persistent [`ArrayStation`], which owns the arrays *and*
//! their run workspaces: steady-state serving performs no engine
//! allocation (the scratches are cleared, not freed, between jobs), and
//! every array step is attributed to the station structurally, by the run
//! itself.

use crate::cost::CostModel;
use crate::error::FarmError;
use crate::job::{ArrayClass, Job, JobOutput, JobReceipt, JobSpec};
use crate::policy::Policy;
use crate::queue::{DispatchScratch, QueueSet, QueuedJob, ReplySlot};
use crate::snapshot::{FarmLive, FarmSnapshot, TenantLive, WorkerLive};
use crate::telemetry::{FarmTelemetry, TenantServed, TenantTelemetry, WorkerTelemetry};
use crate::trace::{JobEvent, JobEventKind};
use sia_dbt::ext::{gauss_seidel_on, solve_lower_on, solve_upper_on};
use sia_dbt::{
    multiply_mm_resident_into, multiply_mv_block_sparse_resident_on, multiply_mv_resident_lanes_on,
    BandCache, DbtError, MmResidentProblem, MvResidentProblem, StagingReport, MAX_LANES,
};
use sia_matrix::DenseMatrix;
use sia_sim::ArrayStation;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Farm sizing and scheduling configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Array size `w` shared by every array in the farm.
    pub w: usize,
    /// Number of workers owning a `w × w` hexagonal array.
    pub hex_workers: usize,
    /// Number of workers owning a `w`-cell linear array.
    pub linear_workers: usize,
    /// Queue-drain policy.
    pub policy: Policy,
    /// Maximum same-shape jobs served as one batch (1 disables coalescing).
    pub coalesce_limit: usize,
    /// Value lanes per array pass for coalesced dense batches: up to `L`
    /// shape-mates run in **one** lane-parallel pass (one injection-tape
    /// replay, one value lane per job — see
    /// [`sia_dbt::multiply_mm_resident_into`]), and `1` serves a coalesced
    /// batch as sequential one-lane passes.  Lane results are bit-identical
    /// to sequential serving and every member is billed its solo modeled
    /// cycle count, so predictions stay exact; only wall time changes.
    /// Defaults to [`sia_dbt::MAX_LANES`]; [`ArrayFarm::new`] clamps the
    /// value to `1..=MAX_LANES`.
    pub lanes: usize,
    /// Weighted-fair weights per tenant (unlisted tenants weigh 1; zero
    /// weights are clamped to 1).
    pub tenant_weights: Vec<(u32, u32)>,
    /// When set to the farm's estimated wall time per array step, a job
    /// whose closed-form predicted service alone cannot meet its relative
    /// deadline is shed **synchronously at submission** instead of queued
    /// ([`FarmError::DeadlineExceeded`] from [`ArrayFarm::submit`]).
    /// Applies only to jobs priced by an *exact* closed form (dense,
    /// block-sparse, triangular) — for those the closed forms make this a
    /// ground-truth test, not a profiled guess; inexact estimates
    /// (Gauss–Seidel sweep counts) are never admission-shed, since the
    /// estimate may overshoot a run that would in fact meet its deadline.
    pub shed_at_admission: Option<Duration>,
    /// Capacity of each lifecycle-event trace ring (one per worker plus
    /// one for admission-side events).  Rings are bounded and overwrite
    /// oldest-first, counting what they dropped; `0` disables event
    /// tracing entirely (recording becomes a no-op).
    pub trace_capacity: usize,
    /// Whether live metrics (counters, latency histograms, lane-occupancy
    /// and engine counters behind [`ArrayFarm::snapshot`]) are recorded.
    /// Disabling them strips the serve path down to event tracing alone;
    /// [`ArrayFarm::snapshot`] then reports queue-side counters only.
    pub metrics: bool,
    /// Capacity (in DBT band artifacts) of each worker's resident
    /// [`BandCache`]: a repeat operand served by a worker already holding
    /// its transformed band skips the staging pass entirely, and the router
    /// steers repeat operands toward the workers holding them.  `0`
    /// disables residency — every serve re-stages its operands, exactly
    /// the pre-cache farm.
    pub band_cache: usize,
}

impl FarmConfig {
    /// A one-hex, one-linear farm with FIFO scheduling and a coalescing
    /// window of 4.
    pub fn new(w: usize) -> Self {
        FarmConfig {
            w,
            hex_workers: 1,
            linear_workers: 1,
            policy: Policy::Fifo,
            coalesce_limit: 4,
            lanes: MAX_LANES,
            tenant_weights: Vec::new(),
            shed_at_admission: None,
            trace_capacity: 4096,
            metrics: true,
            band_cache: 32,
        }
    }

    /// Sets the hexagonal worker count.
    #[must_use]
    pub fn hex_workers(mut self, n: usize) -> Self {
        self.hex_workers = n;
        self
    }

    /// Sets the linear worker count.
    #[must_use]
    pub fn linear_workers(mut self, n: usize) -> Self {
        self.linear_workers = n;
        self
    }

    /// Sets the scheduling policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the coalescing window (1 disables coalescing).
    #[must_use]
    pub fn coalesce_limit(mut self, limit: usize) -> Self {
        self.coalesce_limit = limit;
        self
    }

    /// Sets the value-lane count per array pass for coalesced dense batches
    /// (1 serves them as sequential one-lane passes; the farm clamps the
    /// value to `1..=MAX_LANES`).
    #[must_use]
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Sets one tenant's weighted-fair weight (replacing any earlier value
    /// for the same tenant; zero is clamped to 1).
    #[must_use]
    pub fn tenant_weight(mut self, tenant: u32, weight: u32) -> Self {
        self.tenant_weights.retain(|(t, _)| *t != tenant);
        self.tenant_weights.push((tenant, weight.max(1)));
        self
    }

    /// Enables admission-time deadline shedding, using `step_time` as the
    /// estimated wall time per array step to convert the closed-form
    /// predicted cycle count into a service-time lower bound (exactly
    /// priced jobs only — see [`FarmConfig::shed_at_admission`]).
    #[must_use]
    pub fn shed_at_admission(mut self, step_time: Duration) -> Self {
        self.shed_at_admission = Some(step_time);
        self
    }

    /// Sets the per-ring event-trace capacity (0 disables tracing).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables or disables live metrics recording.
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Sets each worker's resident band-cache capacity (0 disables operand
    /// residency).
    #[must_use]
    pub fn band_cache(mut self, entries: usize) -> Self {
        self.band_cache = entries;
        self
    }
}

/// Handle to one submitted job.
///
/// A ticket resolves **exactly once**: to a [`JobReceipt`] when the job is
/// served, or to a [`FarmError`] when it fails, is cancelled, or is shed.
/// Redeem it with [`JobTicket::wait`] (blocking), [`JobTicket::try_wait`]
/// (polling) or [`JobTicket::wait_timeout`]; [`JobTicket::cancel`] removes
/// the job from its queue while it has not been dispatched yet.
pub struct JobTicket {
    id: u64,
    /// The pooled slot the resolution lands in; `Some` until redeemed by
    /// [`JobTicket::wait`], which hands the slot back to the pool.
    slot: Option<Arc<ReplySlot>>,
    queues: Arc<QueueSet>,
}

impl fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket").field("id", &self.id).finish()
    }
}

impl JobTicket {
    /// The farm-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancels the job if it is still queued.  Returns `true` when the job
    /// was removed before dispatch — it will never occupy an array, and the
    /// ticket resolves to [`FarmError::Cancelled`].  Returns `false` when
    /// the job was already dispatched (it runs to a normal receipt),
    /// completed, shed, or previously cancelled.  The race against dispatch
    /// is decided under the queue mutex, so exactly one of
    /// receipt/`Cancelled` is ever delivered.
    pub fn cancel(&self) -> bool {
        self.queues.cancel(self.id)
    }

    /// Blocks until the job resolves and returns its receipt.
    ///
    /// # Errors
    ///
    /// [`FarmError::Execution`] when the solver failed on the job;
    /// [`FarmError::Cancelled`] when [`JobTicket::cancel`] removed it from
    /// the queue first; [`FarmError::DeadlineExceeded`] when its deadline
    /// passed before a worker could start it;
    /// [`FarmError::Disconnected`] when the farm was torn down first.
    pub fn wait(mut self) -> Result<JobReceipt, FarmError> {
        let slot = self.slot.take().expect("slot is present until redeemed");
        let resolution = slot.wait();
        // The resolution landed and was consumed: the slot is settled and
        // safe to rent out again.
        self.queues.return_reply_slot(slot);
        resolution
    }

    /// Non-blocking poll: `None` while the job is still queued or running,
    /// `Some(resolution)` once it resolved (the same value
    /// [`JobTicket::wait`] would return).  A resolution is consumed by the
    /// poll that observes it; later polls report
    /// [`FarmError::Disconnected`].
    pub fn try_wait(&self) -> Option<Result<JobReceipt, FarmError>> {
        self.slot
            .as_ref()
            .expect("slot is present until redeemed")
            .try_take()
    }

    /// Bounded wait: blocks up to `timeout` for the resolution, returning
    /// `None` on timeout (the ticket stays redeemable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobReceipt, FarmError>> {
        self.slot
            .as_ref()
            .expect("slot is present until redeemed")
            .wait_timeout(timeout)
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        // A settled slot's resolver is done with it: pool it.  An
        // unsettled slot may still be written by a worker, so it simply
        // drops when that side's `Arc` goes too.
        if let Some(slot) = self.slot.take() {
            if slot.is_settled() {
                self.queues.return_reply_slot(slot);
            }
        }
    }
}

/// A farm of persistent array workers serving heterogeneous matrix jobs.
///
/// ```
/// use sia_runtime::{ArrayFarm, FarmConfig, Job, Policy};
/// use sia_matrix::gen;
///
/// # fn main() -> Result<(), sia_runtime::FarmError> {
/// let farm = ArrayFarm::new(
///     FarmConfig::new(3).policy(Policy::ShortestPredictedFirst),
/// )?;
/// let a = gen::random_dense_f64(6, 9, 1);
/// let x = gen::random_vector_f64(9, 2);
/// let ticket = farm.submit(Job::dense_mv(a.clone(), x.clone()))?;
/// let receipt = ticket.wait()?;
/// // Bit-identical to the direct solver call.
/// let direct = sia_dbt::multiply_mv(&a, &x, None, 3, sia_dbt::MvSchedule::Simple).unwrap();
/// assert_eq!(receipt.output.as_vector().unwrap(), direct.y);
/// assert!(receipt.prediction_exact()); // 2w·n̄m̄ + 2w − 3, met exactly
/// let telemetry = farm.shutdown();
/// assert_eq!(telemetry.completed(), 1);
/// # Ok(())
/// # }
/// ```
pub struct ArrayFarm {
    queues: Arc<QueueSet>,
    handles: Vec<JoinHandle<WorkerTelemetry>>,
    cost: CostModel,
    config: FarmConfig,
    next_id: AtomicU64,
    admission_shed: AtomicU64,
    started: Instant,
    live: Arc<FarmLive>,
}

impl ArrayFarm {
    /// Spins up the farm: one thread per worker, each owning its station.
    ///
    /// # Errors
    ///
    /// [`FarmError::Rejected`] with [`DbtError::ZeroArraySize`] when
    /// `config.w == 0`, and [`DbtError::EmptyDimension`] when the farm has
    /// zero workers.
    pub fn new(mut config: FarmConfig) -> Result<Self, FarmError> {
        // A pass carries at most MAX_LANES jobs, so a wider setting would
        // only misreport lane occupancy.
        config.lanes = config.lanes.clamp(1, MAX_LANES);
        let cost = CostModel::new(config.w).map_err(FarmError::Rejected)?;
        if config.hex_workers + config.linear_workers == 0 {
            return Err(FarmError::Rejected(DbtError::EmptyDimension {
                what: "workers",
            }));
        }
        let classes: Vec<ArrayClass> = std::iter::repeat_n(ArrayClass::Hex, config.hex_workers)
            .chain(std::iter::repeat_n(
                ArrayClass::Linear,
                config.linear_workers,
            ))
            .collect();
        let started = Instant::now();
        let live = Arc::new(FarmLive::new(
            &classes,
            config.trace_capacity,
            config.metrics,
            started,
        ));
        let queues = Arc::new(QueueSet::new(
            config.policy,
            classes.clone(),
            config.coalesce_limit,
            config.tenant_weights.iter().copied().collect(),
            started,
            Arc::clone(&live),
        ));
        let mut handles = Vec::with_capacity(classes.len());
        for (index, class) in classes.into_iter().enumerate() {
            let queues = Arc::clone(&queues);
            let live = Arc::clone(&live);
            let w = config.w;
            let lanes = config.lanes;
            let band_cache = config.band_cache;
            let handle = std::thread::Builder::new()
                .name(format!("sia-worker-{index}-{}", class.label()))
                .spawn(move || worker_loop(index, class, w, lanes, band_cache, &queues, &live))
                .expect("spawning a farm worker thread");
            handles.push(handle);
        }
        Ok(ArrayFarm {
            queues,
            handles,
            cost,
            config,
            next_id: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            started,
            live,
        })
    }

    /// The farm's array size `w`.
    pub fn w(&self) -> usize {
        self.config.w
    }

    /// The farm's scheduling policy.
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// Total worker count.
    pub fn workers(&self) -> usize {
        self.config.hex_workers + self.config.linear_workers
    }

    /// The farm's cost model (useful for client-side what-if queries).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// A live, consistent [`FarmSnapshot`] — taken **while the farm
    /// serves**, without draining, pausing or joining anything.  The only
    /// lock taken is the queue mutex the farm already uses for admission
    /// (to read queue-side counters) plus the tenant map; workers are
    /// never blocked.  Every counter is monotonic, so consecutive
    /// snapshots are monotone, and a snapshot taken after every submitted
    /// ticket has resolved agrees with the final telemetry (workers
    /// publish a job's counters *before* sending its receipt).
    pub fn snapshot(&self) -> FarmSnapshot {
        let (submitted, cancelled, steals, depth, max_depth) = self.queues.counters();
        let workers = self.live.worker_snapshots();
        let trace_recorded =
            self.live.admission.recorded() + workers.iter().map(|w| w.trace_recorded).sum::<u64>();
        let trace_dropped =
            self.live.admission.dropped() + workers.iter().map(|w| w.trace_dropped).sum::<u64>();
        FarmSnapshot {
            at: self.started.elapsed(),
            submitted,
            cancelled,
            shed_at_admission: self.admission_shed.load(Ordering::Relaxed),
            steals,
            depth,
            max_depth,
            allocations: sia_alloc::allocation_count(),
            trace_recorded,
            trace_dropped,
            workers,
            tenants: self.live.tenant_snapshots(),
        }
    }

    /// The current contents of every lifecycle-event trace ring
    /// (admission plus one per worker), ordered by timestamp.  Rings are
    /// bounded: on long runs this is the most recent window per ring, and
    /// [`FarmSnapshot::trace_dropped`] counts what aged out.  Feed the
    /// result to [`crate::export::chrome_trace_json`] for a per-worker
    /// timeline view.
    pub fn trace_events(&self) -> Vec<JobEvent> {
        self.live.collect_events()
    }

    /// Admits, prices and enqueues a job (or a [`JobSpec`] carrying
    /// priority/deadline/tenant), returning a ticket for the receipt.
    ///
    /// Admission runs the full shape validation and the closed-form cost
    /// prediction **before** the job can occupy an array, so malformed work
    /// is rejected here and never queues.  With
    /// [`FarmConfig::shed_at_admission`], a deadline the predicted service
    /// alone cannot meet is likewise refused here.
    ///
    /// # Errors
    ///
    /// [`FarmError::Rejected`] for contract violations,
    /// [`FarmError::NoWorkerForClass`] when the farm has no worker of the
    /// needed array type, [`FarmError::DeadlineExceeded`] for
    /// admission-shed deadlines.
    pub fn submit(&self, spec: impl Into<JobSpec>) -> Result<JobTicket, FarmError> {
        let spec = spec.into();
        spec.job
            .validate(self.config.w)
            .map_err(FarmError::Rejected)?;
        let class = spec.job.class();
        let eligible = match class {
            ArrayClass::Hex => self.config.hex_workers,
            ArrayClass::Linear => self.config.linear_workers,
        };
        if eligible == 0 {
            return Err(FarmError::NoWorkerForClass(class));
        }
        let predicted = self.cost.predict(&spec.job).map_err(FarmError::Rejected)?;
        // Admission shedding refuses only jobs whose prediction is a
        // *ground-truth* closed form: an inexact estimate (a Gauss–Seidel
        // sweep count) may overshoot the real run and must not refuse a
        // feasible job — those fall through to dispatch-time shedding.
        // The product saturates to `Duration::MAX` (an unbounded sweep
        // budget prices at ~usize::MAX cycles) instead of panicking.
        if let (Some(step_time), Some(deadline)) = (self.config.shed_at_admission, spec.deadline) {
            if predicted.exact {
                let service =
                    Duration::try_from_secs_f64(step_time.as_secs_f64() * predicted.cycles as f64)
                        .unwrap_or(Duration::MAX);
                if service > deadline {
                    self.admission_shed.fetch_add(1, Ordering::Relaxed);
                    if self.config.metrics {
                        self.live.tenant(spec.tenant).record_shed();
                    }
                    return Err(FarmError::DeadlineExceeded {
                        late_by: service.saturating_sub(deadline),
                    });
                }
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let reply = self.queues.reply_slot();
        let now = Instant::now();
        self.queues.submit(
            QueuedJob {
                id,
                kind: spec.job.kind(),
                predicted,
                priority: spec.priority,
                tenant: spec.tenant,
                vft: 0,
                deadline: spec.deadline.map(|d| now + d),
                submitted: now,
                operands: spec.job.operand_keys(),
                reply: Arc::clone(&reply),
                job: spec.job,
            },
            class,
        );
        Ok(JobTicket {
            id,
            slot: Some(reply),
            queues: Arc::clone(&self.queues),
        })
    }

    /// Returns a served job's output buffer to the farm's result pool, so
    /// the next dense-MM serve writes into it instead of allocating.  This
    /// closes the zero-allocation loop for steady-state traffic: clients
    /// that recycle their matrix outputs (after copying or consuming what
    /// they need) let a warm farm serve repeat-operand jobs without a
    /// single heap allocation end-to-end.  Vector outputs are simply
    /// dropped.
    pub fn recycle(&self, output: JobOutput) {
        if let JobOutput::Matrix(matrix) = output {
            self.queues.recycle_matrix(matrix);
        }
    }

    /// Drains every queue, joins the workers and returns the farm's
    /// lifetime telemetry — including one final [`FarmSnapshot`]
    /// ([`FarmTelemetry::snapshot`]), taken after the last worker joined,
    /// so the live-observability view and the join-time accounting are
    /// handed back together.
    pub fn shutdown(mut self) -> FarmTelemetry {
        let workers = self.join_workers();
        let snapshot = self.snapshot();
        let wall = self.started.elapsed();
        let queue_telemetry = self.queues.drain_telemetry();
        let mut tenants = queue_telemetry.tenants;
        for worker in &workers {
            for slice in &worker.tenants {
                let row = match tenants.binary_search_by_key(&slice.tenant, |t| t.tenant) {
                    Ok(found) => &mut tenants[found],
                    Err(insert_at) => {
                        tenants.insert(
                            insert_at,
                            TenantTelemetry {
                                tenant: slice.tenant,
                                weight: 1,
                                submitted: 0,
                                cancelled: 0,
                                served: 0,
                                shed: 0,
                                served_predicted_cycles: 0,
                            },
                        );
                        &mut tenants[insert_at]
                    }
                };
                row.served += slice.served;
                row.shed += slice.shed;
                row.served_predicted_cycles += slice.predicted_cycles;
            }
        }
        FarmTelemetry {
            wall,
            workers,
            depth: queue_telemetry.depth_log,
            steals: queue_telemetry.steals,
            submitted: queue_telemetry.submitted,
            cancelled: queue_telemetry.cancelled,
            shed_at_admission: self.admission_shed.load(Ordering::Relaxed),
            max_depth: queue_telemetry.max_depth,
            tenants,
            snapshot,
        }
    }

    fn join_workers(&mut self) -> Vec<WorkerTelemetry> {
        self.queues.finish();
        let mut logs = Vec::with_capacity(self.handles.len());
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(log) => logs.push(log),
                // Re-raise a worker panic on the caller — unless we are
                // already unwinding (Drop during a client panic), where a
                // second panic would abort the process and eat the
                // original payload.
                Err(payload) if !std::thread::panicking() => std::panic::resume_unwind(payload),
                Err(_) => {}
            }
        }
        logs
    }
}

impl Drop for ArrayFarm {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.join_workers();
        }
    }
}

/// The worker-side observability context: the worker's shared live block,
/// the farm clock for event timestamps, and a local cache of tenant-rollup
/// handles so steady-state recording never takes the farm's tenant lock.
struct Obs<'a> {
    farm: &'a FarmLive,
    live: &'a WorkerLive,
    worker: u32,
    tenants: Vec<(u32, Arc<TenantLive>)>,
}

impl Obs<'_> {
    /// The shared rollup for `tenant`: cache hit on the steady path, one
    /// farm-level lock on first sight only.
    fn tenant(&mut self, tenant: u32) -> &TenantLive {
        let i = match self.tenants.binary_search_by_key(&tenant, |(id, _)| *id) {
            Ok(i) => i,
            Err(i) => {
                let live = self.farm.tenant(tenant);
                self.tenants.insert(i, (tenant, live));
                i
            }
        };
        &self.tenants[i].1
    }

    /// Records one lifecycle event into the worker's ring (no-op when
    /// tracing is disabled).
    fn event(&self, kind: JobEventKind, job: &QueuedJob) {
        if self.live.ring.capacity() == 0 {
            return;
        }
        self.live.ring.record(&JobEvent {
            at: self.farm.started.elapsed(),
            job: job.id,
            kind,
            tenant: job.tenant,
            shape: job.kind,
            worker: Some(self.worker),
            predicted_cycles: job.predicted.cycles as u64,
        });
    }
}

/// One worker: owns its station and its resident band cache, sheds expired
/// work, drains its queue until shutdown.
fn worker_loop(
    index: usize,
    class: ArrayClass,
    w: usize,
    lanes: usize,
    band_cache: usize,
    queues: &QueueSet,
    farm_live: &FarmLive,
) -> WorkerTelemetry {
    let mut station = ArrayStation::new(w).expect("farm validated w > 0");
    let mut cache: BandCache = BandCache::new(w, band_cache);
    let mut obs = Obs {
        farm: farm_live,
        live: &farm_live.workers[index],
        worker: index as u32,
        tenants: Vec::new(),
    };
    let mut log = WorkerTelemetry {
        worker: index,
        class,
        jobs: 0,
        coalesced_jobs: 0,
        batches: 0,
        failures: 0,
        shed: 0,
        busy: Duration::ZERO,
        station_cycles: 0,
        predicted_cycles: 0,
        measured_cycles: 0,
        exact_predictions: 0,
        tenants: Vec::new(),
    };
    // Dispatch and serve buffers live for the worker's whole life, so a
    // warm serve reuses their storage instead of allocating per batch.
    let mut batch: Vec<QueuedJob> = Vec::new();
    let mut runnable: Vec<QueuedJob> = Vec::new();
    let mut scratch = DispatchScratch::default();
    let mut buffers = ServeBuffers::default();
    while queues.next_batch_into(index, &mut batch, &mut scratch) {
        let picked_up = Instant::now();
        // Deadline shedding at dispatch: a job whose absolute deadline has
        // already passed is resolved to `DeadlineExceeded` without touching
        // an array — running it could only waste steps the live jobs need.
        runnable.clear();
        for qj in batch.drain(..) {
            match qj.deadline {
                Some(deadline) if deadline < picked_up => shed(qj, picked_up, &mut log, &mut obs),
                _ => {
                    obs.event(JobEventKind::Dispatched, &qj);
                    runnable.push(qj);
                }
            }
        }
        if runnable.is_empty() {
            continue;
        }
        log.batches += 1;
        serve(
            index,
            &mut station,
            &mut cache,
            queues,
            &mut runnable,
            lanes,
            picked_up,
            &mut buffers,
            &mut log,
            &mut obs,
        );
        let span = picked_up.elapsed();
        log.busy += span;
        if obs.farm.metrics {
            obs.live.record_batch(span);
            obs.live.publish_station(station.stats());
            obs.live.publish_residency(cache.stats());
        }
    }
    log.station_cycles = station.stats().total_cycles();
    log
}

/// The worker's per-tenant slice for `tenant`, created on first use.
fn tenant_entry(tenants: &mut Vec<TenantServed>, tenant: u32) -> &mut TenantServed {
    if let Some(found) = tenants.iter().position(|t| t.tenant == tenant) {
        return &mut tenants[found];
    }
    tenants.push(TenantServed {
        tenant,
        served: 0,
        shed: 0,
        predicted_cycles: 0,
    });
    tenants.last_mut().expect("just pushed")
}

/// Sheds one expired-deadline job at dispatch time.
fn shed(job: QueuedJob, picked_up: Instant, log: &mut WorkerTelemetry, obs: &mut Obs<'_>) {
    log.shed += 1;
    tenant_entry(&mut log.tenants, job.tenant).shed += 1;
    if obs.farm.metrics {
        obs.live.record_shed();
        obs.tenant(job.tenant).record_shed();
    }
    obs.event(JobEventKind::Shed, &job);
    let late_by = job
        .deadline
        .map_or(Duration::ZERO, |d| picked_up.duration_since(d));
    job.reply
        .resolve(Err(FarmError::DeadlineExceeded { late_by }));
}

/// Settles one serve's staging report: prices the staging pass on the
/// station (apart from compute, so closed-form predictions stay exact),
/// traces the staged-vs-hit event, and keeps the router's residency
/// registry in sync with what the cache now holds.  A disabled cache
/// (capacity 0) stages every serve but must never register residency —
/// its artifacts bounce straight out again.
fn settle_staging(
    station: &mut ArrayStation,
    cache: &BandCache,
    queues: &QueueSet,
    worker: usize,
    qj: &QueuedJob,
    report: &StagingReport,
    obs: &mut Obs<'_>,
) {
    if report.misses > 0 {
        station.record_staging(report.staging_cycles);
        obs.event(JobEventKind::OperandStaged, qj);
        if cache.capacity() > 0 {
            for key in report.staged.iter().flatten() {
                queues.note_staged(*key, worker);
            }
            for key in report.evicted.iter().flatten() {
                queues.note_evicted(*key, worker);
            }
        }
    } else if report.operand_hit() {
        obs.event(JobEventKind::OperandHit, qj);
    }
}

/// Builds and sends one receipt, updating the worker log.  For a coalesced
/// member, `service` is the member's measured-cycle share of the batch span
/// and `batch_service` carries the span itself.
#[allow(clippy::too_many_arguments)]
fn deliver(
    worker: usize,
    job: QueuedJob,
    picked_up: Instant,
    service: Duration,
    batch_service: Option<Duration>,
    (measured_cycles, report, output): Served,
    log: &mut WorkerTelemetry,
    obs: &mut Obs<'_>,
) {
    log.jobs += 1;
    log.predicted_cycles += job.predicted.cycles;
    log.measured_cycles += measured_cycles;
    let slice = tenant_entry(&mut log.tenants, job.tenant);
    slice.served += 1;
    slice.predicted_cycles += job.predicted.cycles;
    let queue = picked_up.duration_since(job.submitted);
    // End-to-end spans submission → delivery; a coalesced member waits for
    // its whole batch span even though only its attributed share is billed
    // as `service`.
    let e2e = queue + batch_service.unwrap_or(service);
    // Live counters and histograms are settled *before* the receipt is
    // sent, so a snapshot taken after every ticket resolved agrees with
    // the final telemetry.
    if obs.farm.metrics {
        obs.live.record_completion(
            queue.as_nanos() as u64,
            service.as_nanos() as u64,
            e2e.as_nanos() as u64,
            job.predicted.cycles as u64,
            measured_cycles as u64,
            batch_service.is_some(),
        );
        obs.tenant(job.tenant).record_completion(
            e2e.as_nanos() as u64,
            job.predicted.cycles as u64,
            measured_cycles as u64,
        );
    }
    obs.event(JobEventKind::Completed, &job);
    let receipt = JobReceipt {
        id: job.id,
        kind: job.kind,
        worker,
        priority: job.priority,
        tenant: job.tenant,
        predicted: job.predicted,
        measured_cycles,
        queue,
        service,
        batch_service,
        staging_cycles: report.staging_cycles,
        operand_hit: report.operand_hit(),
        output,
    };
    if receipt.prediction_exact() {
        log.exact_predictions += 1;
    }
    job.reply.resolve(Ok(receipt));
}

/// Sends an execution failure for one job.  Failed jobs count toward `jobs`
/// and `failures` but toward neither receipt-based cycle tally, so
/// predicted and measured stay symmetric over exactly the successfully
/// served jobs.  The array work a job did before failing (e.g. the sweeps
/// of a non-converging Gauss–Seidel run) is still visible in telemetry:
/// the `_on` solvers record it on the station as it executes, so it lands
/// in `station_cycles`.
fn deliver_error(job: QueuedJob, error: DbtError, log: &mut WorkerTelemetry, obs: &mut Obs<'_>) {
    log.jobs += 1;
    log.failures += 1;
    if obs.farm.metrics {
        obs.live.record_failure();
    }
    obs.event(JobEventKind::Failed, &job);
    job.reply.resolve(Err(FarmError::Execution(error)));
}

/// What one served job hands to delivery: its measured cycles, its staging
/// report and its output.
type Served = (usize, StagingReport, JobOutput);

/// The serve path's buffers — result matrices of the pass in flight, served
/// members of the batch in flight — kept for the worker's life so a warm
/// serve, solo or coalesced, allocates nothing here.
#[derive(Default)]
struct ServeBuffers {
    outs: Vec<DenseMatrix<f64>>,
    served: Vec<Served>,
}

/// Serves one dispatched batch — a single job, or up to `coalesce_limit`
/// same-shape dense mates — in lane passes of at most `lanes` jobs, on the
/// worker's own station and resident band cache, then delivers it.  A
/// failed pass fails the whole batch.
#[allow(clippy::too_many_arguments)]
fn serve(
    worker: usize,
    station: &mut ArrayStation,
    cache: &mut BandCache,
    queues: &QueueSet,
    batch: &mut Vec<QueuedJob>,
    lanes: usize,
    picked_up: Instant,
    buffers: &mut ServeBuffers,
    log: &mut WorkerTelemetry,
    obs: &mut Obs<'_>,
) {
    let mut outcome = Ok(());
    for pass in batch.chunks(lanes) {
        if obs.farm.metrics {
            obs.live.record_lane_pass(pass.len());
        }
        for qj in pass.iter().filter(|_| pass.len() > 1) {
            obs.event(JobEventKind::LanePacked, qj);
        }
        outcome = serve_pass(station, cache, queues, pass, buffers);
        if outcome.is_err() {
            break;
        }
    }
    let span = picked_up.elapsed();
    if let Err(e) = outcome {
        for (.., output) in buffers.served.drain(..) {
            if let JobOutput::Matrix(matrix) = output {
                queues.recycle_matrix(matrix);
            }
        }
        for qj in batch.drain(..) {
            deliver_error(qj, e.clone(), log, obs);
        }
        return;
    }
    // A coalesced member's service is the batch span attributed by its
    // measured-cycle share (so per-job aggregates sum to the real span
    // instead of multiply-counting it; an all-zero batch — impossible for
    // dense jobs — splits evenly), and its receipt carries the raw span.
    let batch_service = (batch.len() > 1).then_some(span);
    let members = batch.len() as u32;
    let total_cycles: usize = buffers.served.iter().map(|(cycles, ..)| cycles).sum();
    for (qj, served) in batch.drain(..).zip(buffers.served.drain(..)) {
        settle_staging(station, cache, queues, worker, &qj, &served.1, obs);
        let service = match (batch_service, total_cycles) {
            (None, _) => span,
            (Some(_), 0) => span / members,
            (Some(_), total) => span.mul_f64(served.0 as f64 / total as f64),
        };
        log.coalesced_jobs += usize::from(batch_service.is_some());
        deliver(
            worker,
            qj,
            picked_up,
            service,
            batch_service,
            served,
            log,
            obs,
        );
    }
}

/// Runs one lane pass — same-shape dense mates, or a single job of any
/// kind — and appends each job's result to `served`.  Every solver below is
/// an `_on` entry point on the worker's station, so the pass's array steps
/// (even the partial work of a job that fails mid-run) land on the station
/// structurally.  Dense and block-sparse jobs go through the resident band
/// cache (repeat operands skip their DBT staging pass); dense-MM results
/// land in pooled matrices without a feedback summary, so a warm
/// repeat-operand MM pass allocates nothing.
fn serve_pass(
    station: &mut ArrayStation,
    cache: &mut BandCache,
    queues: &QueueSet,
    pass: &[QueuedJob],
    ServeBuffers { outs, served }: &mut ServeBuffers,
) -> Result<(), DbtError> {
    let lanes = pass.len();
    // Lane problems are `Copy`, so a pass's problems live on the stack;
    // the slots past the pass repeat its last mate and are never read.
    let mate = |lane: usize| &pass[lane.min(lanes - 1)].job;
    let (cycles, report, y) = match &pass[0].job {
        Job::DenseMm { .. } => {
            let problems: [_; MAX_LANES] = std::array::from_fn(|lane| match mate(lane) {
                Job::DenseMm { a, b, e } => MmResidentProblem {
                    a,
                    b,
                    e: e.as_ref(),
                },
                _ => unreachable!("coalesce keys only group same-kind jobs"),
            });
            let mut reports = [StagingReport::default(); MAX_LANES];
            outs.extend((0..lanes).map(|_| queues.pooled_matrix()));
            let result = multiply_mm_resident_into(
                station,
                cache,
                &problems[..lanes],
                outs,
                &mut reports[..lanes],
            );
            // A failed pass's matrices land in `served` too, and the
            // batch's error path returns them to the pool.
            let cycles = *result.as_ref().unwrap_or(&0);
            let outputs = outs.drain(..).map(JobOutput::Matrix).zip(reports);
            served.extend(outputs.map(|(output, report)| (cycles, report, output)));
            return result.map(drop);
        }
        Job::DenseMv { schedule, .. } => {
            let problems: [_; MAX_LANES] = std::array::from_fn(|lane| match mate(lane) {
                Job::DenseMv { a, x, b, .. } => MvResidentProblem {
                    a,
                    x,
                    b: b.as_deref(),
                },
                _ => unreachable!("coalesce keys only group same-kind jobs"),
            });
            let (outcomes, reports) =
                multiply_mv_resident_lanes_on(station, cache, &problems[..lanes], *schedule)?;
            let outputs = outcomes.into_iter().zip(reports);
            served.extend(outputs.map(|(o, report)| (o.cycles, report, JobOutput::Vector(o.y))));
            return Ok(());
        }
        // The remaining kinds never coalesce: their pass is a single job.
        Job::BlockSparseMv { a, x, b } => {
            let (o, report) =
                multiply_mv_block_sparse_resident_on(station, cache, a, x, b.as_deref())?;
            (o.outcome.cycles, report, o.outcome.y)
        }
        Job::TriangularSolve { a, c, lower: true } => {
            let o = solve_lower_on(station, a, c)?;
            (o.work.array_cycles, StagingReport::default(), o.x)
        }
        Job::TriangularSolve { a, c, lower: false } => {
            let o = solve_upper_on(station, a, c)?;
            (o.work.array_cycles, StagingReport::default(), o.x)
        }
        Job::GaussSeidel {
            a,
            b,
            tol,
            max_sweeps,
        } => {
            let o = gauss_seidel_on(station, a, b, *tol, *max_sweeps)?;
            (o.work.array_cycles, StagingReport::default(), o.x)
        }
    };
    served.push((cycles, report, JobOutput::Vector(y)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    #[test]
    fn farm_construction_is_validated() {
        assert!(matches!(
            ArrayFarm::new(FarmConfig::new(0)),
            Err(FarmError::Rejected(DbtError::ZeroArraySize))
        ));
        assert!(matches!(
            ArrayFarm::new(FarmConfig::new(2).hex_workers(0).linear_workers(0)),
            Err(FarmError::Rejected(DbtError::EmptyDimension { .. }))
        ));
    }

    #[test]
    fn jobs_are_rejected_at_admission_not_at_run_time() {
        let farm = ArrayFarm::new(FarmConfig::new(2)).unwrap();
        let a = gen::random_dense_f64(4, 4, 1);
        let wrong = gen::random_dense_f64(3, 3, 2);
        assert!(matches!(
            farm.submit(Job::dense_mm(a.clone(), wrong)),
            Err(FarmError::Rejected(DbtError::ShapeMismatch { .. }))
        ));
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.submitted, 0, "rejected jobs never queue");
    }

    #[test]
    fn class_without_workers_is_refused() {
        let farm = ArrayFarm::new(FarmConfig::new(2).hex_workers(0)).unwrap();
        let a = gen::random_dense_f64(4, 4, 1);
        assert!(matches!(
            farm.submit(Job::dense_mm(a.clone(), a.clone())),
            Err(FarmError::NoWorkerForClass(ArrayClass::Hex))
        ));
        // Linear jobs still flow.
        let ticket = farm
            .submit(Job::dense_mv(a.clone(), gen::random_vector_f64(4, 2)))
            .unwrap();
        assert!(ticket.wait().is_ok());
        drop(farm);
    }

    #[test]
    fn execution_errors_reach_the_ticket() {
        let farm = ArrayFarm::new(FarmConfig::new(2)).unwrap();
        // A singular pivot is only discovered while the solve runs.
        let mut l = gen::lower_triangular_f64(4, 5);
        l.set(2, 2, 0.0).unwrap();
        let ticket = farm
            .submit(Job::TriangularSolve {
                a: l,
                c: vec![1.0; 4],
                lower: true,
            })
            .unwrap();
        assert!(matches!(
            ticket.wait(),
            Err(FarmError::Execution(DbtError::SingularPivot { .. }))
        ));
        let telemetry = farm.shutdown();
        assert_eq!(
            telemetry.workers.iter().map(|w| w.failures).sum::<usize>(),
            1
        );
    }

    #[test]
    fn admission_shedding_refuses_unattainable_deadlines_synchronously() {
        // One second per array step: no real deadline survives admission.
        let farm =
            ArrayFarm::new(FarmConfig::new(2).shed_at_admission(Duration::from_secs(1))).unwrap();
        let a = gen::random_dense_f64(4, 4, 1);
        let x = gen::random_vector_f64(4, 2);
        let spec =
            JobSpec::new(Job::dense_mv(a.clone(), x.clone())).deadline(Duration::from_millis(10));
        match farm.submit(spec) {
            Err(FarmError::DeadlineExceeded { late_by }) => assert!(late_by > Duration::ZERO),
            other => panic!("expected admission shed, got {other:?}"),
        }
        // Without a deadline the same job is admitted and served.
        let ticket = farm.submit(Job::dense_mv(a.clone(), x)).unwrap();
        assert!(ticket.wait().is_ok());
        // An *inexact* prediction (Gauss–Seidel sweep estimate) is never
        // admission-shed, even though its estimate times step_time dwarfs
        // the deadline: the estimate may overshoot a feasible run.
        let gs = farm
            .submit(
                JobSpec::new(Job::GaussSeidel {
                    a: gen::diagonally_dominant_f64(4, 9),
                    b: vec![1.0; 4],
                    tol: 1e-9,
                    max_sweeps: 100,
                })
                .deadline(Duration::from_secs(60)),
            )
            .expect("inexact estimates pass admission");
        assert!(gs.wait().is_ok());
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.shed_at_admission, 1);
        assert_eq!(telemetry.submitted, 2, "shed jobs never queue");
        assert_eq!(telemetry.shed(), 0, "no dispatch-time shed");
    }

    #[test]
    fn try_wait_and_wait_timeout_poll_the_same_resolution() {
        let farm = ArrayFarm::new(FarmConfig::new(2)).unwrap();
        let a = gen::random_dense_f64(4, 4, 3);
        let x = gen::random_vector_f64(4, 4);
        let ticket = farm.submit(Job::dense_mv(a, x)).unwrap();
        // Poll until the resolution lands (the job is tiny).
        let receipt = loop {
            if let Some(resolution) = ticket.try_wait() {
                break resolution.expect("job served");
            }
            std::thread::yield_now();
        };
        assert!(receipt.prediction_exact());
        // The resolution is consumed: later polls see the hung-up channel
        // (looping over the bounded wait until the worker drops its sender).
        let afterwards = loop {
            if let Some(resolution) = ticket.wait_timeout(Duration::from_millis(1)) {
                break resolution;
            }
        };
        assert!(matches!(afterwards, Err(FarmError::Disconnected)));
        drop(farm);
    }

    #[test]
    fn receipts_carry_exact_predictions_for_dense_jobs() {
        let farm =
            ArrayFarm::new(FarmConfig::new(3).policy(Policy::ShortestPredictedFirst)).unwrap();
        let a = gen::random_dense_f64(6, 6, 3);
        let b = gen::random_dense_f64(6, 9, 4);
        let x = gen::random_vector_f64(6, 5);
        let t_mm = farm.submit(Job::dense_mm(a.clone(), b.clone())).unwrap();
        let t_mv = farm.submit(Job::dense_mv(a.clone(), x.clone())).unwrap();
        let mm = t_mm.wait().unwrap();
        let mv = t_mv.wait().unwrap();
        assert!(mm.prediction_exact());
        assert!(mv.prediction_exact());
        assert_eq!(
            mm.output.as_matrix().unwrap(),
            &sia_dbt::multiply_mm(&a, &b, None, 3).unwrap().c
        );
        assert_eq!(
            mv.output.as_vector().unwrap(),
            sia_dbt::multiply_mv(&a, &x, None, 3, sia_dbt::MvSchedule::Simple)
                .unwrap()
                .y
        );
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.completed(), 2);
        assert!((telemetry.exact_prediction_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(telemetry.predicted_cycles(), telemetry.measured_cycles());
        // Default-tenant accounting covers both jobs.
        let tenant = telemetry.tenant(0).expect("default tenant row");
        assert_eq!(tenant.served, 2);
        assert_eq!(tenant.served_predicted_cycles, telemetry.predicted_cycles());
    }

    #[test]
    fn coalesced_batches_are_bit_identical_to_solo_runs() {
        let farm = ArrayFarm::new(FarmConfig::new(2).coalesce_limit(8)).unwrap();
        let mats: Vec<_> = (0..6u64)
            .map(|s| {
                (
                    gen::random_dense_f64(4, 5, 100 + s),
                    gen::random_dense_f64(5, 3, 200 + s),
                )
            })
            .collect();
        let tickets: Vec<_> = mats
            .iter()
            .map(|(a, b)| farm.submit(Job::dense_mm(a.clone(), b.clone())).unwrap())
            .collect();
        for (ticket, (a, b)) in tickets.into_iter().zip(&mats) {
            let receipt = ticket.wait().unwrap();
            let solo = sia_dbt::multiply_mm(a, b, None, 2).unwrap();
            assert_eq!(receipt.output.as_matrix().unwrap(), &solo.c);
            assert_eq!(receipt.measured_cycles, solo.cycles);
            assert!(receipt.prediction_exact());
            // Attributed service never exceeds the batch span it came from.
            if let Some(span) = receipt.batch_service {
                assert!(receipt.coalesced());
                assert!(receipt.service <= span);
            } else {
                assert!(!receipt.coalesced());
            }
        }
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.completed(), 6);
        // At least some of the burst coalesced (the first job may have been
        // picked up alone before the rest arrived).
        let coalesced: usize = telemetry.workers.iter().map(|w| w.coalesced_jobs).sum();
        let batches: usize = telemetry.workers.iter().map(|w| w.batches).sum();
        assert!(batches <= 6);
        assert!(coalesced == 0 || coalesced >= 2);
    }

    #[test]
    fn dropping_the_farm_without_shutdown_still_serves_queued_jobs() {
        let a = gen::random_dense_f64(4, 4, 7);
        let x = gen::random_vector_f64(4, 8);
        let ticket;
        {
            let farm = ArrayFarm::new(FarmConfig::new(2)).unwrap();
            ticket = farm.submit(Job::dense_mv(a.clone(), x.clone())).unwrap();
            // farm dropped here: Drop drains and joins.
        }
        let receipt = ticket.wait().unwrap();
        let direct = sia_dbt::multiply_mv(&a, &x, None, 2, sia_dbt::MvSchedule::Simple).unwrap();
        assert_eq!(receipt.output.as_vector().unwrap(), direct.y);
    }
}
