//! # sia-dbt
//!
//! Reproduction of the core contribution of *"Computing Size-Independent
//! Matrix Problems on Systolic Array Processors"* (J. J. Navarro,
//! J. M. Llaberia, M. Valero — ISCA 1986): the **DBT** family of dense-to-band
//! matrix transformations (by *Triangular blocks partitioning*) that let a
//! fixed-size Kung–Leiserson systolic array solve matrix problems of **any**
//! size at full efficiency, with every partial result fed back *inside* the
//! array.
//!
//! ## What is here
//!
//! * [`DbtByRows`] — the DBT-by-rows transformation (paper §2) and its
//!   vector / feedback companion rules;
//! * [`DbtTransposedByRows`] — the lower-band variant used by the
//!   matrix–matrix construction (paper §2/§3);
//! * [`multiply_mv`] — size-independent `y = A·x + b` on the `w`-cell
//!   linear contraflow array, with the paper's plain and *overlapped*
//!   schedules;
//! * [`multiply_mm`] — size-independent `C = A·B + E` on the `w × w`
//!   hexagonal array with spiral-feedback accumulation (paper §3 and
//!   Appendix);
//! * [`analytic`] — every closed-form cycle-count / utilization / storage
//!   formula the paper states, for measured-vs-predicted comparisons;
//! * [`ext`] — the follow-on problems the paper's conclusions point to
//!   (triangular systems, Gauss–Seidel, LU decomposition, matrix inverse),
//!   built on the same machinery;
//! * [`sparse`] — the block-sparse variant sketched in the conclusions,
//!   which skips zero blocks to shorten the transformed band;
//! * [`resident`] — **operand identity and resident band caching**:
//!   [`OperandRef`] gives a dense operand a stable 64-bit key (named or
//!   content-hashed), and [`BandCache`] keeps the DBT transformation of an
//!   operand resident next to an array station so repeat traffic pays the
//!   transform once per `(operand, w)` instead of once per job, with the
//!   staging cost priced apart from compute by closed forms
//!   ([`mm_staging_cycles`] and friends).
//!
//! ## Quick start
//!
//! ```
//! use sia_dbt::{multiply_mv, multiply_mm, MvSchedule};
//! use sia_matrix::gen;
//!
//! # fn main() -> Result<(), sia_dbt::DbtError> {
//! // A 6x9 dense problem on a 3-cell linear array (the paper's example).
//! let a = gen::random_dense_i64(6, 9, 5, 1);
//! let x = gen::random_vector_i64(9, 5, 2);
//! let mv = multiply_mv(&a, &x, None, 3, MvSchedule::Simple)?;
//! assert_eq!(mv.y, a.matvec(&x)?);
//! assert_eq!(mv.cycles, 39); // 2·w·n̄·m̄ + 2w − 3
//!
//! // A 6x6 by 6x9 product on a 3x3 hexagonal array.
//! let b = gen::random_dense_i64(6, 9, 5, 3);
//! let a2 = gen::random_dense_i64(6, 6, 5, 4);
//! let mm = multiply_mm(&a2, &b, None, 3)?;
//! assert_eq!(mm.c, a2.matmul(&b)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod dbt_rows;
mod dbt_transposed;
mod error;
pub mod ext;
mod mm;
mod mv;
pub mod resident;
pub mod sparse;

pub use analytic::{MmShape, MvShape};
pub use dbt_rows::DbtByRows;
pub use dbt_transposed::DbtTransposedByRows;
pub use error::DbtError;
pub use mm::{
    accumulation_plan, build_a_hat, build_a_hat_with, build_b_hat, build_b_hat_with, multiply_mm,
    multiply_mm_on, validate_mm_args, AccumulationPlan, MmOutcome,
};
pub use mv::{
    multiply_mv, multiply_mv_lanes_on, multiply_mv_on, predicted_mv_cycles, validate_mv_args,
    MvOutcome, MvProblem, MvSchedule,
};
pub use resident::{
    mm_staging_cycles, multiply_mm_resident_into, multiply_mm_resident_lanes_on,
    multiply_mm_resident_on, multiply_mv_block_sparse_resident_on, multiply_mv_resident_lanes_on,
    multiply_mv_resident_on, mv_staging_cycles, sparse_staging_cycles, BandCache, BandKey,
    BandRole, MmResidentProblem, MvResidentProblem, OperandRef, StagingReport,
};

/// Maximum number of value lanes one lane-parallel array pass carries
/// (the lane entry points — [`multiply_mm_resident_lanes_on`],
/// [`multiply_mv_lanes_on`] and friends — split larger batches into passes
/// of at most this many jobs).  Sixteen `f64` lanes keep a
/// cell's lane block within four AVX2 (two AVX-512) registers while the
/// whole value plane still fits comfortably in cache for serving-sized
/// shapes.
pub const MAX_LANES: usize = 16;
