//! The closed-loop client: one thread keeps a fixed window of outstanding
//! tickets and submits the next job of the stream when the oldest one
//! resolves.  Every receipt is checked against the pool's reference output
//! and closed forms as it arrives.

use crate::spans::{SpanBuf, ROOT};
use crate::workload::{Desc, Pool, Stream};
use sia_runtime::{ArrayFarm, JobTicket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Jobs after warm-up whose cycle counts form the deterministic counts.
pub const COUNTED_JOBS: u64 = 500;

/// When a call to [`Client::serve`] stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many jobs.
    Jobs(u64),
    /// Once this much time has passed since the call began.
    For(Duration),
}

/// Per-job samples of the calls to [`Client::serve`], in resolve order.
#[derive(Debug, Default)]
pub struct Samples {
    /// Client latency, ns.
    pub latency_ns: Vec<u64>,
    /// When the job's wait returned, ns after its `serve` call began.
    pub done_ns: Vec<u64>,
    /// Whether the job verified.
    pub verified: Vec<bool>,
}

impl Samples {
    /// Buffers for `jobs` jobs.
    pub fn with_capacity(jobs: usize) -> Samples {
        Samples {
            latency_ns: Vec::with_capacity(jobs),
            done_ns: Vec::with_capacity(jobs),
            verified: Vec::with_capacity(jobs),
        }
    }

    /// Forgets every sample, keeping the buffers.
    pub fn clear(&mut self) {
        self.latency_ns.clear();
        self.done_ns.clear();
        self.verified.clear();
    }
}

/// What one call to [`Client::serve`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    /// From the first submit to the last ticket resolving.
    pub wall: Duration,
    /// Jobs submitted (including refused ones).
    pub attempted: u64,
    /// Jobs served with the exact reference output and prediction.
    pub verified: u64,
}

/// Every check the client has made, over its whole life.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs submitted.
    pub attempted: u64,
    /// Submit errors, ticket errors, wrong outputs and inexact predictions.
    pub failed: u64,
    /// Σ measured cycles over every served receipt.
    pub measured_cycles: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
}

/// Deterministic counts over the first [`COUNTED_JOBS`] jobs after
/// warm-up: a function of the stream alone, identical on every run with
/// the same seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Jobs counted.
    pub jobs: u64,
    /// Σ admission-time predicted cycles.
    pub predicted: u64,
    /// Σ measured (billed) cycles.
    pub measured: u64,
    /// Σ closed-form cycles, computed from the pool without the farm.
    pub closed_form: u64,
    /// Σ receipt staging cycles, on workloads where every serve is cold
    /// (elsewhere staging depends on routing, so it is not counted).
    pub staging: u64,
}

/// One traced job, from its receipt and the client clock.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Time inside `ArrayFarm::submit`, ns.
    pub submit_ns: u64,
    /// `JobReceipt::queue`, ns.
    pub queue_ns: u64,
    /// `JobReceipt::service`, ns.
    pub service_ns: u64,
    /// Client latency minus `JobReceipt::latency()`, ns.
    pub deliver_ns: u64,
    /// `JobReceipt::operand_hit`.
    pub operand_hit: bool,
}

/// Spans and samples of traced jobs, in buffers sized before the run.
#[derive(Debug)]
pub struct Tracer {
    /// Span buffer.
    pub spans: SpanBuf,
    /// One sample per traced job.
    pub samples: Vec<JobSample>,
}

struct InFlight {
    ticket: JobTicket,
    desc: Desc,
    t0: Instant,
    t1: Instant,
}

/// The closed-loop client of one farm.
pub struct Client<'a> {
    farm: &'a ArrayFarm,
    pool: &'a Pool,
    stream: Stream,
    window: usize,
    inflight: VecDeque<InFlight>,
    count_from: u64,
    tally: Tally,
    counts: Counts,
    /// Whether resolved jobs are traced (spans and samples).
    pub tracing: bool,
    tracer: Tracer,
}

impl<'a> Client<'a> {
    /// A client serving `stream` from `pool` on `farm`; jobs from stream
    /// position `count_from` on feed [`Client::counts`].
    pub fn new(
        farm: &'a ArrayFarm,
        pool: &'a Pool,
        stream: Stream,
        count_from: u64,
        tracer: Tracer,
    ) -> Client<'a> {
        let window = pool.workload.window();
        Client {
            farm,
            pool,
            stream,
            window,
            inflight: VecDeque::with_capacity(window),
            count_from,
            tally: Tally::default(),
            counts: Counts::default(),
            tracing: false,
            tracer,
        }
    }

    /// Serves the stream until `stop`, then drains the window.  Each
    /// job's client latency (submit to wait returning) and its completion
    /// time (ns from the call's start) go into `samples`.
    pub fn serve(&mut self, stop: Stop, samples: &mut Samples) -> WindowStats {
        let start = Instant::now();
        let mut stats = WindowStats::default();
        let more = |submitted: u64, now: Instant| match stop {
            Stop::Jobs(n) => submitted < n,
            Stop::For(d) => now.duration_since(start) < d,
        };
        while self.inflight.len() < self.window && more(stats.attempted, start) {
            stats.attempted += 1;
            self.submit();
        }
        while let Some(job) = self.inflight.pop_front() {
            let (done, ok) = self.resolve(job, &mut samples.latency_ns);
            samples
                .done_ns
                .push(done.duration_since(start).as_nanos() as u64);
            samples.verified.push(ok);
            stats.verified += u64::from(ok);
            if more(stats.attempted, done) {
                stats.attempted += 1;
                self.submit();
            }
        }
        stats.wall = start.elapsed();
        stats
    }

    /// Ends the client, handing back what it checked, counted and traced.
    pub fn finish(self) -> (Tally, Counts, Tracer) {
        (self.tally, self.counts, self.tracer)
    }

    fn fail(&mut self, what: String) {
        self.tally.failed += 1;
        self.tally.first_failure.get_or_insert(what);
    }

    fn submit(&mut self) {
        let desc = self.stream.next_desc();
        let job = self.pool.job(desc);
        self.tally.attempted += 1;
        let t0 = Instant::now();
        match self.farm.submit(job) {
            Ok(ticket) => {
                let t1 = Instant::now();
                self.inflight.push_back(InFlight {
                    ticket,
                    desc,
                    t0,
                    t1,
                });
            }
            Err(e) => self.fail(format!("job {}: submit refused: {e}", desc.index)),
        }
    }

    /// Waits for one ticket and checks its receipt; returns when the wait
    /// returned and whether the job verified.
    fn resolve(&mut self, job: InFlight, latencies: &mut Vec<u64>) -> (Instant, bool) {
        let resolution = job.ticket.wait();
        let t2 = Instant::now();
        latencies.push(t2.duration_since(job.t0).as_nanos() as u64);
        let index = job.desc.index;
        let receipt = match resolution {
            Ok(receipt) => receipt,
            Err(e) => {
                self.fail(format!("job {index}: ticket error: {e}"));
                return (t2, false);
            }
        };
        let expect = &self.pool.templates[job.desc.template].expect;
        let exact = receipt.prediction_exact() && receipt.measured_cycles == expect.cycles;
        let right = expect.matches(&receipt.output);
        let staging_ok =
            !self.pool.workload.always_cold() || receipt.staging_cycles == expect.cold_staging;
        self.tally.measured_cycles += receipt.measured_cycles as u64;
        if index >= self.count_from && index < self.count_from + COUNTED_JOBS {
            let c = &mut self.counts;
            c.jobs += 1;
            c.predicted += receipt.predicted.cycles as u64;
            c.measured += receipt.measured_cycles as u64;
            c.closed_form += expect.cycles as u64;
            if self.pool.workload.always_cold() {
                c.staging += receipt.staging_cycles as u64;
            }
        }
        if !exact {
            self.fail(format!(
                "job {index}: predicted {} cycles (exact: {}), measured {}, closed form {}",
                receipt.predicted.cycles,
                receipt.predicted.exact,
                receipt.measured_cycles,
                expect.cycles
            ));
        } else if !right {
            self.fail(format!(
                "job {index}: output differs from the direct solver call"
            ));
        } else if !staging_ok {
            self.fail(format!(
                "job {index}: staged {} cycles, cold closed form {}",
                receipt.staging_cycles, expect.cold_staging
            ));
        }
        if self.tracing {
            let tr = &mut self.tracer;
            let (n0, n1, n2) = (tr.spans.ns(job.t0), tr.spans.ns(job.t1), tr.spans.ns(t2));
            let lat = receipt.latency().as_nanos() as u64;
            let queue = receipt.queue.as_nanos() as u64;
            let root = tr.spans.push(ROOT, "job", n0, n2, index);
            if root != ROOT {
                tr.spans.push(root, "submit", n0, n1, index);
                tr.spans.push(root, "queue", n1, n1 + queue, index);
                tr.spans.push(root, "service", n1 + queue, n1 + lat, index);
                tr.spans.push(root, "deliver", n1 + lat, n2, index);
            }
            if tr.samples.len() < tr.samples.capacity() {
                tr.samples.push(JobSample {
                    submit_ns: n1 - n0,
                    queue_ns: queue,
                    service_ns: receipt.service.as_nanos() as u64,
                    deliver_ns: (n2 - n0).saturating_sub(lat),
                    operand_hit: receipt.operand_hit,
                });
            }
        }
        if self.pool.workload.recycles_outputs() {
            self.farm.recycle(receipt.output);
        }
        (t2, exact && right && staging_ok)
    }
}
