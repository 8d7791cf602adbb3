//! # sia-runtime
//!
//! A multi-tenant **array-farm scheduler** that serves mixed matrix
//! workloads on a pool of fixed-size systolic arrays, using the ISCA'86
//! paper's closed-form cycle counts as its cost model.
//!
//! The paper's central asset — for a fixed `w`-array, the exact step count
//! of *any* dense problem is a closed form of its shape
//! (`T = 2w·n̄m̄ + 2w − 3` for matrix–vector, `T = 3w·p̄n̄m̄ + 4w − 5` for
//! matrix–matrix) — is precisely what a scheduler needs: a zero-cost,
//! perfectly accurate service-time predictor that cycle-level accelerator
//! schedulers normally have to approximate with profiling.  This crate
//! turns that asset into a serving system:
//!
//! * **[`Job`]** — heterogeneous work (dense MM, dense MV, block-sparse MV,
//!   triangular solve, Gauss–Seidel) with optional priority, deadline and
//!   tenant ([`JobSpec`]);
//! * **admission** — every job is shape-validated and priced by the
//!   closed forms ([`CostModel`]) *before* anything runs; optionally, a
//!   deadline the predicted service alone cannot meet is refused right
//!   here ([`FarmConfig::shed_at_admission`]);
//! * **scheduling** — per-worker queues drained under a pluggable
//!   [`Policy`] (FIFO, shortest-predicted-job-first, deadline-aware,
//!   weighted-fair over exact predicted-cycle shares), with least-backlog
//!   routing, work stealing between idle workers, and coalescing of
//!   same-shape dense jobs into lane-parallel array passes;
//! * **lifecycle** — a [`JobTicket`] can [`JobTicket::cancel`] its queued
//!   job (the job then never occupies an array), poll with
//!   [`JobTicket::try_wait`] or bound the wait with
//!   [`JobTicket::wait_timeout`]; workers **shed** jobs whose deadline
//!   already passed at dispatch instead of running them
//!   ([`FarmError::DeadlineExceeded`]);
//! * **workers** — persistent threads, each owning a reusable
//!   [`sia_sim::ArrayStation`] (a hexagonal and a linear array plus
//!   cumulative step accounting);
//! * **operand residency** — each worker keeps a bounded
//!   [`sia_dbt::BandCache`] of transformed DBT band artifacts keyed by
//!   operand identity ([`OperandRef`]): a repeat operand skips its
//!   transformation (staging) pass, the router prefers the worker already
//!   holding an operand resident, staging is priced apart from compute
//!   (receipts carry [`JobReceipt::staging_cycles`] and
//!   [`JobReceipt::operand_hit`]), and a warm farm serves repeat-operand
//!   dense-MM traffic with zero heap allocations end-to-end (pooled reply
//!   slots and output matrices — recycle outputs via
//!   [`ArrayFarm::recycle`]);
//! * **receipts & telemetry** — every job returns a [`JobReceipt`]
//!   (result, predicted vs. measured cycles, queue/service latency), and
//!   [`ArrayFarm::shutdown`] returns farm-level [`FarmTelemetry`]
//!   (per-worker utilization, queue depth over time, predicted-cycle
//!   accounting, steal/shed/cancel counts, per-tenant shares);
//! * **live observability** — [`ArrayFarm::snapshot`] returns a
//!   [`FarmSnapshot`] *while the farm serves* (monotonic counters,
//!   log-bucketed latency histograms with p50/p95/p99 read from buckets,
//!   engine counters, per-tenant rollups); every worker records
//!   lifecycle [`JobEvent`]s into a lock-free bounded ring
//!   ([`ArrayFarm::trace_events`]), and the [`export`] module renders
//!   both as Prometheus text exposition and Chrome trace-event JSON.
//!
//! For every dense and block-sparse job the receipt's predicted and
//! measured step counts agree **exactly** — the paper's reproduction
//! property, now enforced on every request the farm serves.
//!
//! ```
//! use sia_runtime::{ArrayFarm, FarmConfig, Job, Policy};
//! use sia_matrix::gen;
//!
//! # fn main() -> Result<(), sia_runtime::FarmError> {
//! let farm = ArrayFarm::new(
//!     FarmConfig::new(4)
//!         .linear_workers(2)
//!         .policy(Policy::ShortestPredictedFirst),
//! )?;
//! let a = gen::random_dense_f64(8, 8, 1);
//! let b = gen::random_dense_f64(8, 8, 2);
//! let x = gen::random_vector_f64(8, 3);
//! let tickets = vec![
//!     farm.submit(Job::dense_mm(a.clone(), b))?,
//!     farm.submit(Job::dense_mv(a, x))?,
//! ];
//! for ticket in tickets {
//!     let receipt = ticket.wait()?;
//!     assert!(receipt.prediction_exact());
//! }
//! let telemetry = farm.shutdown();
//! assert_eq!(telemetry.completed(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod error;
pub mod export;
pub mod job;
pub mod metrics;
pub mod policy;
mod queue;
mod snapshot;
pub mod telemetry;
pub mod trace;
mod worker;

pub use cost::{CostEstimate, CostModel};
pub use error::FarmError;
pub use job::{ArrayClass, Job, JobKind, JobOutput, JobReceipt, JobSpec};
pub use metrics::{
    HistogramSnapshot, HistogramSummary, LogHistogram, SignedHistogram, SignedSnapshot,
};
pub use policy::Policy;
pub use sia_dbt::OperandRef;
pub use snapshot::{FarmSnapshot, TenantSnapshot, WorkerSnapshot};
pub use telemetry::{DepthSample, FarmTelemetry, TenantServed, TenantTelemetry, WorkerTelemetry};
pub use trace::{EventRing, JobEvent, JobEventKind};
pub use worker::{ArrayFarm, FarmConfig, JobTicket};
