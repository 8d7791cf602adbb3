//! Per-worker job queues with cache-aware routing, coalescing,
//! cancellation, weighted fair queueing and work stealing.
//!
//! Every worker owns one deque.  Submission routes a job to an *eligible*
//! worker (matching [`ArrayClass`]) preferring the worker whose station
//! already holds the most of the job's operands **resident** (per the
//! registry workers maintain via [`QueueSet::note_staged`] /
//! [`QueueSet::note_evicted`]) — a resident operand's DBT transformation
//! is already staged there, so serving it elsewhere would pay the
//! transform again.  Ties (including the no-residency case, which makes
//! this exactly the old router) break by smallest predicted-cycle backlog
//! — the closed-form cost model again.  Submission also stamps
//! the job's weighted-fair **virtual finish time** (predicted cycles over
//! tenant weight, accumulated per tenant — exact, because the closed forms
//! price every job at admission).  A worker drains its own queue in policy
//! order; when it runs dry it **steals** one job from the most-backlogged
//! peer of its class, so a skewed arrival pattern cannot idle half the
//! farm.  When the popped job is a dense MM/MV, up to `coalesce_limit − 1`
//! queued jobs of the *same shape, schedule and priority* that the policy
//! would have served **consecutively anyway** are taken along — collected
//! in a single pass over the queue — and served as lane-parallel array
//! passes, whose outcomes are bit-identical to per-job runs; coalescing
//! never reorders jobs against the policy.
//!
//! **Cancellation** happens here too: [`QueueSet::cancel`] removes a still
//! queued job under the same mutex dispatch runs under, so a cancel racing
//! a dispatch resolves deterministically — the job is either still in a
//! queue (cancel wins, the ticket resolves to
//! [`FarmError::Cancelled`](crate::FarmError::Cancelled) and no array ever
//! sees the job) or already taken (dispatch wins, the job runs to a normal
//! receipt).  Exactly one of the two happens, never both, never neither.
//!
//! All queues share one mutex (submission and dispatch are tiny compared
//! to array simulation).  Wakeups are **per class**: each submission
//! notifies one waiting worker of the job's class instead of waking the
//! whole farm — hex workers no longer stampede on linear-job arrivals.
//! Shutdown notifies everyone and is *draining*: workers exit only when
//! every queue of their class is empty.

use crate::cost::CostEstimate;
use crate::error::FarmError;
use crate::job::{ArrayClass, Job, JobKind, JobReceipt};
use crate::policy::{select_key, select_next, Policy, SelectKey};
use crate::snapshot::FarmLive;
use crate::telemetry::{DepthSample, TenantTelemetry};
use crate::trace::{JobEvent, JobEventKind};
use sia_matrix::DenseMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Cap on the number of retained queue-depth samples (~1 MB at most).  The
/// trace is never cut off: reaching the cap *decimates* it — every other
/// retained sample is dropped and the sampling stride doubles — so the
/// trace always spans the farm's whole lifetime at half resolution per
/// doubling, and the exact maximum depth is tracked separately.
const MAX_DEPTH_SAMPLES: usize = 65_536;

/// Fixed-point scale for virtual finish times (predicted cycles ×
/// `VFT_ONE` / weight), so integer division by the weight keeps ~16 bits
/// of fraction and the select key stays a plain `u64`.
const VFT_ONE: u64 = 1 << 16;

/// Bound on each free list ([`QueueSet::reply_slot`] slots and recycled
/// result matrices) so an unusual burst cannot pin memory forever.
const POOL_CAP: usize = 256;

/// Where a ticket's resolution lands: a pooled, reusable one-shot slot.
///
/// The mpsc channel this replaces allocated per submission; a slot is
/// rented from the farm's free list instead, so a warm
/// submit → serve → wait round trip touches no allocator.  Protocol: the
/// resolver calls [`ReplySlot::resolve`] exactly once and never touches the
/// slot again, so a **settled** slot is safe to return to the pool; a
/// consumed resolution leaves the slot in a `Consumed` state that reports
/// [`FarmError::Disconnected`] to later polls (matching the hung-up-channel
/// semantics tickets always had).
#[derive(Debug)]
pub(crate) struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
#[allow(clippy::large_enum_variant)] // boxing the receipt would defeat the pool
enum SlotState {
    /// No resolution yet.
    #[default]
    Pending,
    /// Resolution delivered, not yet claimed.
    Resolved(Result<JobReceipt, FarmError>),
    /// Resolution claimed; later polls read "hung up".
    Consumed,
}

impl ReplySlot {
    pub fn new() -> Self {
        ReplySlot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Re-arms a pooled slot for a new submission.
    fn reset(&self) {
        *self.state.lock().expect("reply slot lock poisoned") = SlotState::Pending;
    }

    /// Delivers the resolution and wakes the waiter.  Called at most once
    /// per rental; allocation-free.
    pub fn resolve(&self, resolution: Result<JobReceipt, FarmError>) {
        let mut state = self.state.lock().expect("reply slot lock poisoned");
        *state = SlotState::Resolved(resolution);
        drop(state);
        self.ready.notify_all();
    }

    fn claim(state: &mut SlotState) -> Option<Result<JobReceipt, FarmError>> {
        match std::mem::replace(state, SlotState::Consumed) {
            SlotState::Resolved(resolution) => Some(resolution),
            SlotState::Pending => {
                *state = SlotState::Pending;
                None
            }
            SlotState::Consumed => Some(Err(FarmError::Disconnected)),
        }
    }

    /// Non-blocking poll; consumes the resolution it observes.
    pub fn try_take(&self) -> Option<Result<JobReceipt, FarmError>> {
        Self::claim(&mut self.state.lock().expect("reply slot lock poisoned"))
    }

    /// Blocks until the resolution lands.
    pub fn wait(&self) -> Result<JobReceipt, FarmError> {
        let mut state = self.state.lock().expect("reply slot lock poisoned");
        loop {
            if let Some(resolution) = Self::claim(&mut state) {
                return resolution;
            }
            state = self.ready.wait(state).expect("reply slot lock poisoned");
        }
    }

    /// Blocks up to `timeout`; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobReceipt, FarmError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("reply slot lock poisoned");
        loop {
            if let Some(resolution) = Self::claim(&mut state) {
                return Some(resolution);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timed_out) = self
                .ready
                .wait_timeout(state, deadline - now)
                .expect("reply slot lock poisoned");
            state = next;
            if timed_out.timed_out() {
                return Self::claim(&mut state);
            }
        }
    }

    /// `true` once a resolution landed (the resolver is done with the slot,
    /// so a settled slot is pool-returnable).
    pub fn is_settled(&self) -> bool {
        !matches!(
            *self.state.lock().expect("reply slot lock poisoned"),
            SlotState::Pending
        )
    }
}

/// One job as it sits in a queue.
pub(crate) struct QueuedJob {
    /// Farm-assigned id (submission order).
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// Cached discriminant (the job is moved out before receipts are built).
    pub kind: JobKind,
    /// Admission-time cost prediction.
    pub predicted: CostEstimate,
    /// Priority class.
    pub priority: u8,
    /// Tenant the job is accounted to.
    pub tenant: u32,
    /// Weighted-fair virtual finish time in fixed-point weighted predicted
    /// cycles; stamped by [`QueueSet::submit`] (callers pass 0).
    pub vft: u64,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    /// When the job entered the farm.
    pub submitted: Instant,
    /// The cache keys of the job's matrix operands (drives cache-aware
    /// routing; fixed-size so submission stays allocation-free).
    pub operands: [Option<u64>; 2],
    /// Where the receipt (or the lifecycle/execution error) goes.
    pub reply: Arc<ReplySlot>,
}

/// Reusable per-worker dispatch buffers: after warm-up,
/// [`QueueSet::next_batch_into`] runs entirely in these, so the dispatch
/// side of a serve touches no allocator.
#[derive(Default)]
pub(crate) struct DispatchScratch {
    picks: Vec<(SelectKey, usize)>,
    mates: Vec<(SelectKey, usize)>,
    order: Vec<(usize, usize)>,
    removed: Vec<(usize, QueuedJob)>,
}

/// Per-tenant admission-side accounting and WFQ state.
struct TenantAccount {
    weight: u32,
    /// Virtual finish time of the tenant's last admitted job (fixed point).
    vfinish: u64,
    submitted: u64,
    cancelled: u64,
}

struct QueueState {
    /// One deque per worker, indexed like `QueueSet::classes`.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Predicted-cycle backlog per worker (routing key).
    backlog: Vec<usize>,
    /// Total queued jobs across all workers.
    depth: usize,
    shutdown: bool,
    steals: u64,
    submitted: u64,
    cancelled: u64,
    /// Global WFQ virtual time: the largest virtual finish time ever
    /// dispatched.  A tenant going idle re-enters at the current virtual
    /// time instead of banking credit for the idle span.
    vtime: u64,
    tenants: HashMap<u32, TenantAccount>,
    /// Residency registry: operand key → per-worker count of resident
    /// artifacts of that operand, maintained by the workers
    /// ([`QueueSet::note_staged`] / [`QueueSet::note_evicted`]) and read by
    /// the cache-aware router in [`QueueSet::submit`].
    resident: HashMap<u64, Vec<u16>>,
    depth_log: Vec<DepthSample>,
    /// Exact maximum of `depth` over the whole run (decimation-proof).
    max_depth: usize,
    /// Depth events observed so far (sampling clock).
    depth_events: u64,
    /// Record every `depth_stride`-th event; doubles on each decimation.
    depth_stride: u64,
}

impl QueueState {
    fn log_depth(&mut self, started: Instant) {
        self.max_depth = self.max_depth.max(self.depth);
        self.depth_events += 1;
        if !self.depth_events.is_multiple_of(self.depth_stride) {
            return;
        }
        self.push_depth_sample(started);
    }

    /// Records a depth sample regardless of the sampling stride.  Used
    /// for work-steal events: steals are rare but diagnostically dense
    /// (they mark the moments load was imbalanced), so a decimated
    /// stride must never drop them.
    fn log_depth_forced(&mut self, started: Instant) {
        self.max_depth = self.max_depth.max(self.depth);
        self.depth_events += 1;
        self.push_depth_sample(started);
    }

    fn push_depth_sample(&mut self, started: Instant) {
        if self.depth_log.len() == MAX_DEPTH_SAMPLES {
            // Decimate: keep every other sample, halve the resolution.
            let mut keep = false;
            self.depth_log.retain(|_| {
                keep = !keep;
                keep
            });
            self.depth_stride *= 2;
        }
        self.depth_log.push(DepthSample {
            at: started.elapsed(),
            depth: self.depth,
        });
    }
}

/// The farm's shared queue set.
pub(crate) struct QueueSet {
    state: Mutex<QueueState>,
    /// One condvar per [`ArrayClass`] (index = `class_slot`), so a submit
    /// wakes one worker that can actually serve the job.
    ready: [Condvar; 2],
    policy: Policy,
    classes: Vec<ArrayClass>,
    coalesce_limit: usize,
    /// Configured tenant weights (≥ 1); unknown tenants weigh 1.
    weights: HashMap<u32, u32>,
    started: Instant,
    /// Shared live observability state; admission-side lifecycle events
    /// go into `live.admission` under the queue mutex (which already
    /// serializes these paths — tracing adds no new lock).
    live: Arc<FarmLive>,
    /// Free list of settled [`ReplySlot`]s, rented per submission.
    reply_pool: Mutex<Vec<Arc<ReplySlot>>>,
    /// Free list of recycled result matrices ([`QueueSet::pooled_matrix`]):
    /// workers pop one per dense-MM serve and clients return them via
    /// `ArrayFarm::recycle`, closing the zero-allocation loop for results.
    output_pool: Mutex<Vec<DenseMatrix<f64>>>,
}

/// Condvar slot of an array class.
fn class_slot(class: ArrayClass) -> usize {
    match class {
        ArrayClass::Hex => 0,
        ArrayClass::Linear => 1,
    }
}

/// What `QueueSet::drain_telemetry` hands to the farm at shutdown.
pub(crate) struct QueueTelemetry {
    pub steals: u64,
    pub submitted: u64,
    pub cancelled: u64,
    pub max_depth: usize,
    pub depth_log: Vec<DepthSample>,
    /// Admission-side tenant rows (served/shed still zero — the farm merges
    /// the workers' slices in), sorted by tenant id.
    pub tenants: Vec<TenantTelemetry>,
}

impl QueueSet {
    pub fn new(
        policy: Policy,
        classes: Vec<ArrayClass>,
        coalesce_limit: usize,
        weights: HashMap<u32, u32>,
        started: Instant,
        live: Arc<FarmLive>,
    ) -> Self {
        let n = classes.len();
        QueueSet {
            state: Mutex::new(QueueState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                backlog: vec![0; n],
                depth: 0,
                shutdown: false,
                steals: 0,
                submitted: 0,
                cancelled: 0,
                vtime: 0,
                tenants: HashMap::new(),
                resident: HashMap::new(),
                // Pre-reserved to its cap so warm-path pushes never grow
                // the log's allocation mid-serve.
                depth_log: Vec::with_capacity(MAX_DEPTH_SAMPLES),
                max_depth: 0,
                depth_events: 0,
                depth_stride: 1,
            }),
            ready: [Condvar::new(), Condvar::new()],
            policy,
            classes,
            coalesce_limit: coalesce_limit.max(1),
            weights: weights.into_iter().map(|(t, w)| (t, w.max(1))).collect(),
            started,
            live,
            reply_pool: Mutex::new(Vec::new()),
            output_pool: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("farm queue lock poisoned")
    }

    /// Rents a reply slot for one submission: a re-armed pooled slot when
    /// available (no allocation), a fresh one otherwise.
    pub fn reply_slot(&self) -> Arc<ReplySlot> {
        let pooled = self
            .reply_pool
            .lock()
            .expect("reply pool lock poisoned")
            .pop();
        match pooled {
            Some(slot) => {
                slot.reset();
                slot
            }
            None => Arc::new(ReplySlot::new()),
        }
    }

    /// Returns a settled slot to the free list (callers must only return
    /// slots whose resolution landed — the resolver never touches a slot
    /// after resolving, so those cannot race a reuse).
    pub fn return_reply_slot(&self, slot: Arc<ReplySlot>) {
        let mut pool = self.reply_pool.lock().expect("reply pool lock poisoned");
        if pool.len() < POOL_CAP {
            pool.push(slot);
        }
    }

    /// Pops a recycled result matrix (or an empty, allocation-free stand-in
    /// that the serve path reshapes in place).
    pub fn pooled_matrix(&self) -> DenseMatrix<f64> {
        self.output_pool
            .lock()
            .expect("output pool lock poisoned")
            .pop()
            .unwrap_or_else(|| DenseMatrix::zeros(0, 0))
    }

    /// Returns a result matrix's storage to the pool for reuse.
    pub fn recycle_matrix(&self, matrix: DenseMatrix<f64>) {
        let mut pool = self.output_pool.lock().expect("output pool lock poisoned");
        if pool.len() < POOL_CAP {
            pool.push(matrix);
        }
    }

    /// Records that `worker`'s station staged (now holds) a resident
    /// artifact of operand `key`.  Counted, not flagged: one operand can
    /// have several resident artifacts (e.g. the MM left and right bands of
    /// `A·A`), and the worker stays "resident" until all of them evict.
    pub fn note_staged(&self, key: u64, worker: usize) {
        let workers = self.classes.len();
        let mut st = self.lock();
        let counts = st
            .resident
            .entry(key)
            .or_insert_with(|| vec![0u16; workers]);
        counts[worker] = counts[worker].saturating_add(1);
    }

    /// Records that `worker`'s station evicted a resident artifact of
    /// operand `key`.
    pub fn note_evicted(&self, key: u64, worker: usize) {
        let mut st = self.lock();
        if let Some(counts) = st.resident.get_mut(&key) {
            counts[worker] = counts[worker].saturating_sub(1);
            if counts.iter().all(|&c| c == 0) {
                st.resident.remove(&key);
            }
        }
    }

    /// Routes a job to an eligible worker — preferring the worker holding
    /// the most of the job's operands resident, ties broken by smallest
    /// predicted-cycle backlog — stamps its weighted-fair virtual finish
    /// time and wakes one worker of the class.  Panics if no worker of the
    /// class exists (the farm checks eligibility at submission).
    pub fn submit(&self, mut job: QueuedJob, class: ArrayClass) {
        let mut st = self.lock();
        // WFQ bookkeeping (cheap, kept for every policy so tenant telemetry
        // is policy-independent): the job finishes, in virtual time, one
        // weighted service quantum after max(tenant's last finish, now).
        let vtime = st.vtime;
        let weight = self.weights.get(&job.tenant).copied().unwrap_or(1);
        let tenant = st.tenants.entry(job.tenant).or_insert(TenantAccount {
            weight,
            vfinish: 0,
            submitted: 0,
            cancelled: 0,
        });
        tenant.submitted += 1;
        tenant.vfinish = tenant.vfinish.max(vtime).saturating_add(
            (job.predicted.cycles as u64).saturating_mul(VFT_ONE) / u64::from(tenant.weight),
        );
        job.vft = tenant.vfinish;

        let target = self
            .classes
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == class)
            .min_by_key(|(i, _)| {
                // Workers holding more of the job's operands resident sort
                // first (their stations skip the DBT staging pass); with no
                // residency anywhere this reduces to the plain
                // least-backlog router.
                let resident = job
                    .operands
                    .iter()
                    .flatten()
                    .filter(|key| st.resident.get(key).is_some_and(|counts| counts[*i] > 0))
                    .count();
                (std::cmp::Reverse(resident), st.backlog[*i])
            })
            .map(|(i, _)| i)
            .expect("submit checked that an eligible worker exists");
        st.backlog[target] += job.predicted.cycles;
        if self.live.admission.capacity() > 0 {
            let event = JobEvent {
                at: self.started.elapsed(),
                job: job.id,
                kind: JobEventKind::Admitted,
                tenant: job.tenant,
                shape: job.kind,
                worker: None,
                predicted_cycles: job.predicted.cycles as u64,
            };
            self.live.admission.record(&event);
            self.live.admission.record(&JobEvent {
                kind: JobEventKind::Queued,
                worker: Some(target as u32),
                ..event
            });
        }
        st.queues[target].push_back(job);
        st.depth += 1;
        st.submitted += 1;
        st.log_depth(self.started);
        drop(st);
        // One job, one waker — and only of the class that can serve it.
        self.ready[class_slot(class)].notify_one();
    }

    /// Removes the queued job `id` before any worker can dispatch it and
    /// resolves its ticket to [`FarmError::Cancelled`].  Returns `false`
    /// when the job is not queued (already dispatched, completed, shed or
    /// cancelled) — the race against dispatch is decided under the queue
    /// mutex, so exactly one of "cancelled, never ran" and "runs to a
    /// receipt" happens.
    ///
    /// The tenant's virtual finish time keeps the cancelled job's charge:
    /// a tenant cannot cancel-and-resubmit to jump its own WFQ queue.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.lock();
        let Some((worker, pos)) = st
            .queues
            .iter()
            .enumerate()
            .find_map(|(w, q)| q.iter().position(|j| j.id == id).map(|p| (w, p)))
        else {
            return false;
        };
        let job = st.queues[worker]
            .remove(pos)
            .expect("cancelled position is in range");
        st.backlog[worker] = st.backlog[worker].saturating_sub(job.predicted.cycles);
        st.depth -= 1;
        st.cancelled += 1;
        if let Some(tenant) = st.tenants.get_mut(&job.tenant) {
            tenant.cancelled += 1;
        }
        self.live.admission.record(&JobEvent {
            at: self.started.elapsed(),
            job: job.id,
            kind: JobEventKind::Cancelled,
            tenant: job.tenant,
            shape: job.kind,
            worker: Some(worker as u32),
            predicted_cycles: job.predicted.cycles as u64,
        });
        st.log_depth(self.started);
        drop(st);
        job.reply.resolve(Err(FarmError::Cancelled));
        true
    }

    /// Blocks until a batch of work is available for `worker`, writing it
    /// into `out` (cleared first) and returning `true`; returns `false`
    /// when the farm is shut down and every queue of the worker's class has
    /// drained.  `out` and `scratch` are caller-owned so a warm dispatch
    /// reuses their storage instead of allocating a fresh batch per serve.
    pub fn next_batch_into(
        &self,
        worker: usize,
        out: &mut Vec<QueuedJob>,
        scratch: &mut DispatchScratch,
    ) -> bool {
        out.clear();
        let ready = &self.ready[class_slot(self.classes[worker])];
        let mut st = self.lock();
        loop {
            if self.try_take(&mut st, worker, out, scratch) {
                return true;
            }
            if st.shutdown {
                return false;
            }
            st = ready.wait(st).expect("farm queue lock poisoned");
        }
    }

    /// Test convenience over [`QueueSet::next_batch_into`] with fresh
    /// buffers per call.
    #[cfg(test)]
    pub fn next_batch(&self, worker: usize) -> Option<Vec<QueuedJob>> {
        let mut out = Vec::new();
        let mut scratch = DispatchScratch::default();
        self.next_batch_into(worker, &mut out, &mut scratch)
            .then_some(out)
    }

    /// One dispatch attempt: own queue first (with coalescing), then a
    /// steal from the most-backlogged same-class peer.
    fn try_take(
        &self,
        st: &mut QueueState,
        worker: usize,
        out: &mut Vec<QueuedJob>,
        scratch: &mut DispatchScratch,
    ) -> bool {
        if self.take_own(st, worker, out, scratch) {
            return true;
        }
        // Own queue is empty: steal one job from the heaviest same-class
        // peer (policy order within the victim's queue).
        let class = self.classes[worker];
        let Some(victim) = self
            .classes
            .iter()
            .enumerate()
            .filter(|(i, c)| *i != worker && **c == class && !st.queues[*i].is_empty())
            .max_by_key(|(i, _)| st.backlog[*i])
            .map(|(i, _)| i)
        else {
            return false;
        };
        let Some(idx) = select_next(self.policy, &st.queues[victim]) else {
            return false;
        };
        let job = st.queues[victim]
            .remove(idx)
            .expect("selected index is in range");
        st.backlog[victim] = st.backlog[victim].saturating_sub(job.predicted.cycles);
        st.depth -= 1;
        st.steals += 1;
        st.vtime = st.vtime.max(job.vft);
        // Steals mark the exact moments load was imbalanced: always keep
        // their depth sample, even when the sampling stride would skip it.
        st.log_depth_forced(self.started);
        out.push(job);
        true
    }

    /// Takes the policy's next job from the worker's own queue, plus the
    /// whole policy-consecutive run of its coalescible shape-mates: a mate
    /// joins the batch exactly when its select key precedes every
    /// non-mate's key, which is precisely the set of jobs the policy would
    /// have served consecutively anyway.  Two O(n) scans — one to find the
    /// primary, one to collect the mates and the best non-mate — replace
    /// the old path's O(n) re-selection plus O(n) removal *per mate*; the
    /// batch lands in `out` in policy order.  Returns `false` when the
    /// queue is empty.
    fn take_own(
        &self,
        st: &mut QueueState,
        worker: usize,
        out: &mut Vec<QueuedJob>,
        scratch: &mut DispatchScratch,
    ) -> bool {
        let DispatchScratch {
            picks,
            mates,
            order,
            removed,
        } = scratch;
        picks.clear();
        {
            let queue = &st.queues[worker];
            let Some((primary_idx, primary_key)) = queue
                .iter()
                .enumerate()
                .map(|(i, j)| (i, select_key(self.policy, j)))
                .min_by(|a, b| a.1.cmp(&b.1))
            else {
                return false;
            };
            picks.push((primary_key, primary_idx));
            if self.coalesce_limit > 1 {
                if let Some(key) = queue[primary_idx].job.coalesce_key() {
                    let priority = queue[primary_idx].priority;
                    mates.clear();
                    let mut best_other: Option<SelectKey> = None;
                    for (i, j) in queue.iter().enumerate() {
                        if i == primary_idx {
                            continue;
                        }
                        let k = select_key(self.policy, j);
                        if j.priority == priority && j.job.coalesce_key() == Some(key) {
                            mates.push((k, i));
                        } else if best_other.as_ref().is_none_or(|b| k < *b) {
                            best_other = Some(k);
                        }
                    }
                    // A batch never lets a later job (e.g. a later-deadline
                    // mate under EDF) jump ahead of the queue's rightful
                    // next job: mates past the best non-mate stay queued.
                    mates.sort_unstable();
                    for (k, i) in mates.drain(..) {
                        if picks.len() >= self.coalesce_limit
                            || best_other.as_ref().is_some_and(|b| *b < k)
                        {
                            break;
                        }
                        picks.push((k, i));
                    }
                }
            }
        }
        // Remove picked indices from high to low (so indices stay valid),
        // then restore policy order by each pick's slot.
        order.clear();
        order.extend(
            picks
                .iter()
                .enumerate()
                .map(|(slot, &(_, index))| (index, slot)),
        );
        order.sort_unstable_by_key(|&(index, _)| std::cmp::Reverse(index));
        removed.clear();
        removed.extend(order.iter().map(|&(index, slot)| {
            (
                slot,
                st.queues[worker]
                    .remove(index)
                    .expect("picked index is in range"),
            )
        }));
        removed.sort_unstable_by_key(|&(slot, _)| slot);
        out.extend(removed.drain(..).map(|(_, j)| j));

        let taken: usize = out.iter().map(|j| j.predicted.cycles).sum();
        st.backlog[worker] = st.backlog[worker].saturating_sub(taken);
        st.depth -= out.len();
        for job in out.iter() {
            st.vtime = st.vtime.max(job.vft);
        }
        st.log_depth(self.started);
        true
    }

    /// Reads the queue-side counters a live snapshot needs, in one short
    /// critical section: `(submitted, cancelled, steals, depth,
    /// max_depth)`.
    pub fn counters(&self) -> (u64, u64, u64, usize, usize) {
        let st = self.lock();
        (
            st.submitted,
            st.cancelled,
            st.steals,
            st.depth,
            st.max_depth,
        )
    }

    /// Flags shutdown and wakes every worker so they can drain and exit.
    pub fn finish(&self) {
        self.lock().shutdown = true;
        for ready in &self.ready {
            ready.notify_all();
        }
    }

    /// Collects the queue-side telemetry (called after the workers joined).
    pub fn drain_telemetry(&self) -> QueueTelemetry {
        let mut st = self.lock();
        let mut tenants: Vec<TenantTelemetry> = st
            .tenants
            .iter()
            .map(|(&tenant, account)| TenantTelemetry {
                tenant,
                weight: account.weight,
                submitted: account.submitted,
                cancelled: account.cancelled,
                served: 0,
                shed: 0,
                served_predicted_cycles: 0,
            })
            .collect();
        tenants.sort_unstable_by_key(|t| t.tenant);
        QueueTelemetry {
            steals: st.steals,
            submitted: st.submitted,
            cancelled: st.cancelled,
            max_depth: st.max_depth,
            depth_log: std::mem::take(&mut st.depth_log),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_dbt::OperandRef;
    use sia_matrix::gen;

    fn set_with(
        policy: Policy,
        classes: Vec<ArrayClass>,
        coalesce_limit: usize,
        weights: &[(u32, u32)],
    ) -> QueueSet {
        let live = Arc::new(FarmLive::new(&classes, 64, true, Instant::now()));
        QueueSet::new(
            policy,
            classes,
            coalesce_limit,
            weights.iter().copied().collect(),
            Instant::now(),
            live,
        )
    }

    fn queued(id: u64, cycles: usize) -> (QueuedJob, Arc<ReplySlot>) {
        queued_tenant(id, cycles, 0)
    }

    fn queued_tenant(id: u64, cycles: usize, tenant: u32) -> (QueuedJob, Arc<ReplySlot>) {
        let job = Job::dense_mv(gen::random_dense_f64(2, 2, id), vec![1.0, 2.0]);
        wrap(id, cycles, tenant, job)
    }

    /// A job whose matrix operand carries the caller-supplied cache key
    /// `key` (drives the cache-aware routing tests).
    fn queued_named(id: u64, cycles: usize, key: u64) -> (QueuedJob, Arc<ReplySlot>) {
        let a = OperandRef::named(key, gen::random_dense_f64(2, 2, id));
        let job = Job::dense_mv(a, vec![1.0, 2.0]);
        wrap(id, cycles, 0, job)
    }

    fn wrap(id: u64, cycles: usize, tenant: u32, job: Job) -> (QueuedJob, Arc<ReplySlot>) {
        let reply = Arc::new(ReplySlot::new());
        (
            QueuedJob {
                id,
                kind: job.kind(),
                predicted: CostEstimate {
                    cycles,
                    exact: true,
                },
                priority: 0,
                tenant,
                vft: 0,
                deadline: None,
                submitted: Instant::now(),
                operands: job.operand_keys(),
                reply: Arc::clone(&reply),
                job,
            },
            reply,
        )
    }

    #[test]
    fn submission_routes_to_the_least_backlogged_eligible_worker() {
        let set = set_with(
            Policy::Fifo,
            vec![ArrayClass::Hex, ArrayClass::Linear, ArrayClass::Linear],
            1,
            &[],
        );
        let mut rxs = Vec::new();
        for (id, cycles) in [(1u64, 100usize), (2, 10), (3, 10)] {
            let (job, rx) = queued(id, cycles);
            set.submit(job, ArrayClass::Linear);
            rxs.push(rx);
        }
        let st = set.lock();
        // Worker 0 is hex: never receives linear jobs.
        assert!(st.queues[0].is_empty());
        // First job lands on worker 1, second on the now-lighter worker 2,
        // third on worker 2 again (backlog 10 < 100).
        assert_eq!(st.queues[1].len(), 1);
        assert_eq!(st.queues[2].len(), 2);
        assert_eq!(st.depth, 3);
    }

    #[test]
    fn routing_prefers_workers_holding_the_operand_resident() {
        let set = set_with(
            Policy::Fifo,
            vec![ArrayClass::Linear, ArrayClass::Linear],
            1,
            &[],
        );
        // Worker 1 stages a band of operand 77, then builds a far heavier
        // backlog than worker 0.
        set.note_staged(77, 1);
        let (job, _r0) = queued(1, 10);
        set.submit(job, ArrayClass::Linear);
        let (job, _r1) = queued_named(2, 1000, 99);
        set.submit(job, ArrayClass::Linear);
        // Residency trumps backlog: the operand-77 job goes to worker 1
        // (backlog 1000) over worker 0 (backlog 10).
        let (job, _r2) = queued_named(3, 10, 77);
        set.submit(job, ArrayClass::Linear);
        {
            let st = set.lock();
            assert_eq!(st.queues[1].len(), 2, "operand-77 job follows residency");
            assert_eq!(st.queues[1].back().unwrap().id, 3);
        }
        // Once the artifact evicts, routing falls back to least backlog.
        set.note_evicted(77, 1);
        let (job, _r3) = queued_named(4, 10, 77);
        set.submit(job, ArrayClass::Linear);
        let st = set.lock();
        assert_eq!(
            st.queues[0].len(),
            2,
            "post-eviction job takes the light worker"
        );
        assert_eq!(st.queues[0].back().unwrap().id, 4);
        assert!(
            st.resident.is_empty(),
            "fully evicted operands leave the registry"
        );
    }

    #[test]
    fn reply_slots_pool_and_preserve_consumed_semantics() {
        let set = set_with(Policy::Fifo, vec![ArrayClass::Linear], 1, &[]);
        let slot = set.reply_slot();
        assert!(slot.try_take().is_none(), "pending slot has no resolution");
        assert!(!slot.is_settled());
        slot.resolve(Err(FarmError::Cancelled));
        assert!(slot.is_settled());
        assert!(matches!(slot.try_take(), Some(Err(FarmError::Cancelled))));
        // A consumed slot reports "hung up" to later polls, exactly like
        // the dropped mpsc sender it replaced.
        assert!(matches!(
            slot.try_take(),
            Some(Err(FarmError::Disconnected))
        ));
        assert!(matches!(
            slot.wait_timeout(Duration::from_millis(1)),
            Some(Err(FarmError::Disconnected))
        ));
        // Returning it to the pool re-arms it for the next rental.
        set.return_reply_slot(slot);
        let again = set.reply_slot();
        assert!(again.try_take().is_none(), "pooled slot was re-armed");
        assert!(!again.is_settled());
    }

    #[test]
    fn idle_workers_steal_from_loaded_peers() {
        let set = set_with(
            Policy::Fifo,
            vec![ArrayClass::Linear, ArrayClass::Linear],
            1,
            &[],
        );
        // Both jobs land on worker 0 (submitted before worker 1 exists in
        // backlog terms they tie; min_by_key picks the lowest index first,
        // then the other).
        let (job, _rx1) = queued(1, 50);
        set.submit(job, ArrayClass::Linear);
        let (job, _rx2) = queued(2, 50);
        set.submit(job, ArrayClass::Linear);
        // Worker 1 got the second job by balance; drain it, then steal.
        let own = set.next_batch(1).unwrap();
        assert_eq!(own.len(), 1);
        let stolen = set.next_batch(1).unwrap();
        assert_eq!(stolen.len(), 1);
        let st = set.lock();
        assert_eq!(st.steals, 1);
        assert_eq!(st.depth, 0);
    }

    #[test]
    fn same_shape_jobs_coalesce_up_to_the_limit() {
        let set = set_with(Policy::Fifo, vec![ArrayClass::Linear], 3, &[]);
        let mut rxs = Vec::new();
        for id in 1..=4u64 {
            // Same 2x2 shape and schedule for every job.
            let (job, rx) = queued(id, 10);
            set.submit(job, ArrayClass::Linear);
            rxs.push(rx);
        }
        let batch = set.next_batch(0).unwrap();
        assert_eq!(batch.len(), 3, "limit caps the batch");
        assert_eq!(
            batch.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let rest = set.next_batch(0).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn coalescing_never_reorders_against_the_policy() {
        use std::time::Duration;
        let set = set_with(Policy::DeadlineAware, vec![ArrayClass::Linear], 4, &[]);
        let now = Instant::now();
        let mut rxs = Vec::new();
        // Arrival order: P (2x2, tight deadline), B (2x2, loose), A (3x3,
        // medium), C (2x2, loose).  EDF order is P, A, B, C — so P must NOT
        // drag its loose-deadline shape-mates B and C past A.
        for (id, n, deadline_ms) in [(1u64, 2usize, 1u64), (2, 2, 500), (3, 3, 5), (4, 2, 500)] {
            let reply = Arc::new(ReplySlot::new());
            let job = Job::dense_mv(gen::random_dense_f64(n, n, id), vec![1.0; n]);
            set.submit(
                QueuedJob {
                    id,
                    kind: job.kind(),
                    predicted: CostEstimate {
                        cycles: 10,
                        exact: true,
                    },
                    priority: 0,
                    tenant: 0,
                    vft: 0,
                    deadline: Some(now + Duration::from_millis(deadline_ms)),
                    submitted: now,
                    operands: job.operand_keys(),
                    reply: Arc::clone(&reply),
                    job,
                },
                ArrayClass::Linear,
            );
            rxs.push(reply);
        }
        let first = set.next_batch(0).unwrap();
        assert_eq!(
            first.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1],
            "the tight-deadline job must not coalesce past the medium one"
        );
        let second = set.next_batch(0).unwrap();
        assert_eq!(second.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3]);
        let third = set.next_batch(0).unwrap();
        assert_eq!(
            third.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![2, 4],
            "the loose-deadline shape-mates coalesce with each other"
        );
    }

    #[test]
    fn sjf_coalescing_stops_at_a_cheaper_foreign_job() {
        // Queue: two 2x2 mates at 10 cycles, a 3x3 job at 5 cycles, another
        // mate at 10.  SJF order is the 3x3 first; once it is gone, the
        // mates form one batch.  Verifies the single-pass run collection
        // agrees with "repeatedly take the policy's next pick".
        let set = set_with(
            Policy::ShortestPredictedFirst,
            vec![ArrayClass::Linear],
            4,
            &[],
        );
        let mut rxs = Vec::new();
        for (id, n, cycles) in [(1u64, 2usize, 10usize), (2, 2, 10), (3, 3, 5), (4, 2, 10)] {
            let reply = Arc::new(ReplySlot::new());
            let job = Job::dense_mv(gen::random_dense_f64(n, n, id), vec![1.0; n]);
            set.submit(
                QueuedJob {
                    id,
                    kind: job.kind(),
                    predicted: CostEstimate {
                        cycles,
                        exact: true,
                    },
                    priority: 0,
                    tenant: 0,
                    vft: 0,
                    deadline: None,
                    submitted: Instant::now(),
                    operands: job.operand_keys(),
                    reply: Arc::clone(&reply),
                    job,
                },
                ArrayClass::Linear,
            );
            rxs.push(reply);
        }
        let first = set.next_batch(0).unwrap();
        assert_eq!(first.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3]);
        let second = set.next_batch(0).unwrap();
        assert_eq!(
            second.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn wfq_interleaves_tenants_by_weight() {
        // Tenants 1 (weight 3) and 2 (weight 1) submit four equal jobs
        // each, interleaved.  Virtual finish times interleave tenant 1's
        // jobs three-for-one against tenant 2's; the 3rd heavy job ties
        // tenant 2's first (3·c/3 = c) and the earlier id (the light job)
        // wins the tie.
        let set = set_with(
            Policy::WeightedFair,
            vec![ArrayClass::Linear],
            1,
            &[(1, 3), (2, 1)],
        );
        let mut rxs = Vec::new();
        for pair in 0..4u64 {
            for (tenant, id) in [(1u32, 2 * pair + 1), (2u32, 2 * pair + 2)] {
                let (job, rx) = queued_tenant(id, 300, tenant);
                set.submit(job, ArrayClass::Linear);
                rxs.push(rx);
            }
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            let batch = set.next_batch(0).unwrap();
            assert_eq!(batch.len(), 1);
            order.push(batch[0].tenant);
        }
        assert_eq!(order, vec![1, 1, 2, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn cancel_removes_a_queued_job_and_resolves_its_ticket() {
        let set = set_with(Policy::Fifo, vec![ArrayClass::Linear], 1, &[]);
        let (job, rx1) = queued_tenant(1, 10, 9);
        set.submit(job, ArrayClass::Linear);
        let (job, rx2) = queued_tenant(2, 10, 9);
        set.submit(job, ArrayClass::Linear);
        assert!(set.cancel(1), "queued job cancels");
        assert!(matches!(rx1.try_take(), Some(Err(FarmError::Cancelled))));
        assert!(!set.cancel(1), "second cancel finds nothing");
        {
            let st = set.lock();
            assert_eq!(st.depth, 1);
            assert_eq!(st.cancelled, 1);
            assert_eq!(st.backlog[0], 10);
        }
        // The survivor dispatches normally.
        let batch = set.next_batch(0).unwrap();
        assert_eq!(batch[0].id, 2);
        assert!(!set.cancel(2), "dispatched job is past cancellation");
        assert!(
            rx2.try_take().is_none(),
            "no resolution for the running job"
        );
        let telemetry = set.drain_telemetry();
        assert_eq!(telemetry.cancelled, 1);
        assert_eq!(telemetry.tenants.len(), 1);
        assert_eq!(telemetry.tenants[0].tenant, 9);
        assert_eq!(telemetry.tenants[0].submitted, 2);
        assert_eq!(telemetry.tenants[0].cancelled, 1);
    }

    #[test]
    fn shutdown_drains_before_workers_exit() {
        let set = set_with(Policy::Fifo, vec![ArrayClass::Linear], 1, &[]);
        let (job, _rx) = queued(1, 10);
        set.submit(job, ArrayClass::Linear);
        set.finish();
        assert!(set.next_batch(0).is_some(), "queued job survives shutdown");
        assert!(set.next_batch(0).is_none(), "then the worker exits");
        let telemetry = set.drain_telemetry();
        assert_eq!(telemetry.submitted, 1);
        assert!(!telemetry.depth_log.is_empty());
        assert_eq!(telemetry.max_depth, 1);
    }

    #[test]
    fn per_class_wakeups_lose_no_jobs_across_a_concurrent_shutdown() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // 2 hex + 2 linear workers drain concurrently while the main thread
        // submits a mixed burst and then immediately shuts down.  Every job
        // must be dispatched exactly once and every worker must observe the
        // shutdown (no lost wakeups on either class condvar).
        let set = Arc::new(set_with(
            Policy::Fifo,
            vec![
                ArrayClass::Hex,
                ArrayClass::Hex,
                ArrayClass::Linear,
                ArrayClass::Linear,
            ],
            2,
            &[],
        ));
        let dispatched = AtomicUsize::new(0);
        let total = 200u64;
        let mut rxs = Vec::new();
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let set = Arc::clone(&set);
                let dispatched = &dispatched;
                scope.spawn(move || {
                    while let Some(batch) = set.next_batch(worker) {
                        dispatched.fetch_add(batch.len(), Ordering::Relaxed);
                    }
                });
            }
            for id in 0..total {
                if id % 3 == 0 {
                    let reply = Arc::new(ReplySlot::new());
                    let a = gen::random_dense_f64(2, 2, id);
                    let job = Job::dense_mm(a.clone(), a);
                    set.submit(
                        QueuedJob {
                            id,
                            kind: job.kind(),
                            predicted: CostEstimate {
                                cycles: 10,
                                exact: true,
                            },
                            priority: 0,
                            tenant: 0,
                            vft: 0,
                            deadline: None,
                            submitted: Instant::now(),
                            operands: job.operand_keys(),
                            reply: Arc::clone(&reply),
                            job,
                        },
                        ArrayClass::Hex,
                    );
                    rxs.push(reply);
                } else {
                    let (job, rx) = queued(id, 10);
                    set.submit(job, ArrayClass::Linear);
                    rxs.push(rx);
                }
            }
            set.finish();
        });
        assert_eq!(dispatched.load(Ordering::Relaxed), total as usize);
        assert_eq!(set.lock().depth, 0);
    }

    #[test]
    fn depth_trace_decimates_instead_of_truncating_and_max_stays_exact() {
        let started = Instant::now();
        let mut st = QueueState {
            queues: Vec::new(),
            backlog: Vec::new(),
            depth: 0,
            shutdown: false,
            steals: 0,
            submitted: 0,
            cancelled: 0,
            vtime: 0,
            tenants: HashMap::new(),
            resident: HashMap::new(),
            depth_log: Vec::new(),
            max_depth: 0,
            depth_events: 0,
            depth_stride: 1,
        };
        // 5x the cap in events: the cap is hit after MAX events (stride
        // 1 -> 2), again after 2·MAX more (stride 2 -> 4) and after 4·MAX
        // more at cumulative 4·MAX (stride 4 -> 8).  The spike to `peak`
        // happens late, where a truncating trace would have long since
        // gone blind.
        let events = 5 * MAX_DEPTH_SAMPLES;
        let peak = 123_456;
        for event in 0..events {
            st.depth = if event == events - 10 {
                peak
            } else {
                event % 37
            };
            st.log_depth(started);
        }
        assert!(st.depth_log.len() <= MAX_DEPTH_SAMPLES);
        assert!(
            st.depth_log.len() > MAX_DEPTH_SAMPLES / 4,
            "decimation keeps the trace dense, not empty"
        );
        assert_eq!(st.depth_stride, 8, "three decimations double thrice");
        assert_eq!(st.max_depth, peak, "max depth is exact despite decimation");
        assert_eq!(st.depth_events, events as u64);
    }

    #[test]
    fn steal_depth_samples_survive_the_sampling_stride() {
        let started = Instant::now();
        let mut st = QueueState {
            queues: Vec::new(),
            backlog: Vec::new(),
            depth: 0,
            shutdown: false,
            steals: 0,
            submitted: 0,
            cancelled: 0,
            vtime: 0,
            tenants: HashMap::new(),
            resident: HashMap::new(),
            depth_log: Vec::new(),
            max_depth: 0,
            depth_events: 0,
            depth_stride: 1024, // a heavily decimated trace
        };
        // Ordinary events at this stride are almost all skipped...
        for event in 0..100 {
            st.depth = event;
            st.log_depth(started);
        }
        assert!(st.depth_log.is_empty());
        // ...but a steal's sample is always recorded, at the exact depth.
        st.depth = 77;
        st.log_depth_forced(started);
        assert_eq!(st.depth_log.len(), 1);
        assert_eq!(st.depth_log[0].depth, 77);
        // The forced sample still advances the shared sampling clock.
        assert_eq!(st.depth_events, 101);
    }

    #[test]
    fn submit_and_cancel_record_admission_events() {
        let set = set_with(Policy::Fifo, vec![ArrayClass::Linear], 1, &[]);
        let (job, _rx) = queued(9, 10);
        set.submit(job, ArrayClass::Linear);
        assert!(set.cancel(9));
        let mut events = Vec::new();
        set.live.admission.collect(&mut events);
        let kinds: Vec<JobEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                JobEventKind::Admitted,
                JobEventKind::Queued,
                JobEventKind::Cancelled
            ]
        );
        assert!(events.iter().all(|e| e.job == 9));
        assert_eq!(events[1].worker, Some(0));
        assert_eq!(events[0].worker, None);
    }
}
