//! # sia-sim
//!
//! Cycle-accurate simulators of the two Kung–Leiserson systolic arrays used
//! by *"Computing Size-Independent Matrix Problems on Systolic Array
//! Processors"* (Navarro, Llaberia, Valero — ISCA 1986):
//!
//! * [`LinearArray`] — the `w`-cell **linear contraflow array** for band
//!   matrix–vector multiplication (`y = A·x + b`).  The `x` stream flows in
//!   one direction, the `y` stream in the other; each cell performs one
//!   multiply–accumulate per firing.
//! * [`HexArray`] — the `w × w` **hexagonal array** for band matrix–matrix
//!   multiplication (`C = A·B + E`).  Three data planes (`a`, `b`, `c`) move
//!   through the array; each cell fires once every three cycles.
//!
//! Both engines are *register-transfer level* simulators: every cycle the
//! boundary tapes inject data, every cell with a complete operand set fires,
//! and every register plane shifts one position.  Nothing is computed
//! outside the array — partial results that must be reused are carried by
//! explicit **feedback** paths whose delays and storage occupancy are
//! measured and reported, because those are precisely the quantities the
//! paper reasons about.
//!
//! The engines are **tape-driven**: all boundary schedules have closed-form
//! entry cycles, so they are precomputed into dense per-cycle tapes and the
//! hot loop is pure array indexing — no hashing, no allocation.  Register
//! planes are ring buffers (values keep their slot for their whole life, so
//! nothing is ever physically shifted) stored as **struct-of-arrays**
//! (value planes + occupancy bitmask planes + index planes), the hexagonal
//! compute scan visits only the anti-diagonal wavefront that can fire (⅓ of
//! the cells per cycle), feedback values live in flat vectors indexed by
//! band offset, and the cycle loops **fast-forward** over idle stretches to
//! the next tape event.
//!
//! Every per-run buffer lives in a reusable workspace ([`HexScratch`] /
//! [`LinearScratch`]) that is cleared-not-freed between runs, so the
//! steady-state entry points [`HexArray::run_with`] /
//! [`LinearArray::run_with`] perform **zero heap allocations** once warm —
//! [`ArrayStation`] owns one workspace per array, which is how the serving
//! runtime reaches allocation-free steady-state serving.  A batch of
//! same-shape jobs is one lane-parallel pass ([`HexArray::run_lanes_with`] /
//! [`LinearArray::run_lanes_with`]); a single job is the one-lane case.
//!
//! The simulators know nothing about the paper's DBT transformation; they
//! execute whatever band problem and injection schedule they are given.  The
//! `sia-dbt` crate builds those schedules.
//!
//! ## Timing conventions
//!
//! * Linear array: `x̂_j` is latched into the rightmost cell at the start of
//!   cycle `2j`; the partial result `ŷ_i` (initialised from its injection)
//!   enters the leftmost cell at cycle `w−1+2i`, fires in cell `k` at cycle
//!   `w−1+2i+k`, and leaves the array at the end of cycle `2i+2w−2`.  The
//!   completion time is the last firing cycle plus one.
//! * Hexagonal array: the cell `(α, β)` (`α = k−i`, `β = k−j`) fires for the
//!   product `a_{ik}·b_{kj}` accumulating into `c_{ij}` at cycle
//!   `i+j+k+w−1`; completion time is the last firing cycle plus two (one
//!   extra cycle to latch the final result out of the array boundary).
//!
//! These conventions reproduce the paper's closed forms exactly
//! (`T = 2w·n̄m̄+2w−3` and `T = 3w·p̄n̄m̄+4w−5`); see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod hex;
pub mod linear;
mod plane;
pub mod report;
pub mod residency;
pub mod spiral;
pub mod station;
mod tape;

pub use error::SimError;
pub use hex::{
    CInjection, CInjectionSchedule, CellOutput, HexArray, HexJob, HexReport, HexScratch,
};
pub use linear::{LinearArray, LinearReport, LinearScratch, MvOutput, MvStream, YInjection};
pub use report::{FeedbackEvent, FeedbackSummary, Utilization};
pub use residency::{ResidencyLru, ResidencyStats};
pub use spiral::SpiralTopology;
pub use station::{ArrayStation, StationStats};
