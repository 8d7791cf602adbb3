//! Size-independent **matrix–vector multiplication** `y = A·x + b` on the
//! `w`-cell linear contraflow array (paper §2).
//!
//! The solver glues together the pieces the paper describes:
//!
//! 1. transform the dense `A` with [`DbtByRows`] into a full band matrix of
//!    bandwidth `w`;
//! 2. build the transformed vectors `x̂` and the `ŷ` injection plan (fresh
//!    `b` values at the start of each original row block, feedback of the
//!    previous partial result everywhere else);
//! 3. run the linear array simulator — every operation happens inside the
//!    array, partial results travel through the `w`-register feedback path;
//! 4. read the final `y` values off the band rows that carry them.
//!
//! Every solve — fresh or resident, solo or lane-parallel — is one pass of
//! the same lane runner: the transformations come from a band cache (of
//! capacity 0 for a fresh solve), and a solo solve is a one-lane pass.
//!
//! Two schedules are provided, mirroring the paper's §2 discussion:
//! [`MvSchedule::Simple`] uses every other array cycle (utilization → ½) and
//! [`MvSchedule::Overlapped`] splits the problem into two disjoint
//! sub-problems interleaved in the idle cycles (utilization → 1; the dotted
//! line of Fig. 2b).

use crate::analytic::MvShape;
use crate::mm::lane_shape;
use crate::resident::{check_cache_w, BandCache, BandRole, StagingReport};
use crate::{DbtByRows, DbtError};
use sia_matrix::{DenseMatrix, Scalar};
use sia_sim::{ArrayStation, FeedbackSummary, LinearScratch, MvStream};

/// Which of the paper's two linear-array schedules to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MvSchedule {
    /// One stream; each cell fires at most every other cycle.
    #[default]
    Simple,
    /// The problem is partitioned into two disjoint sub-problems (split at
    /// an original block-row boundary) that are interleaved in the array,
    /// filling the idle cycles.
    Overlapped,
}

/// Result of one size-independent matrix–vector multiplication.
#[derive(Debug, Clone)]
pub struct MvOutcome<T> {
    /// The result vector `y = A·x + b` (length `n`).
    pub y: Vec<T>,
    /// Problem shape (gives access to all the closed-form predictions).
    pub shape: MvShape,
    /// Schedule that was used.
    pub schedule: MvSchedule,
    /// Measured number of array steps.
    pub cycles: usize,
    /// Measured utilization in the paper's sense, `n·m / (w·T)`.
    pub efficiency: f64,
    /// Fraction of cell-cycles that fired (includes work on zero padding).
    pub activity: f64,
    /// Feedback statistics, one summary per interleaved stream.
    pub feedback: Vec<FeedbackSummary>,
}

impl<T> MvOutcome<T> {
    /// The paper's predicted step count for the schedule that was used.
    pub fn predicted_cycles(&self) -> usize {
        match self.schedule {
            MvSchedule::Simple => self.shape.cycles(),
            MvSchedule::Overlapped => self.shape.cycles_overlapped(),
        }
    }

    /// The paper's predicted utilization for the schedule that was used.
    pub fn predicted_utilization(&self) -> f64 {
        match self.schedule {
            MvSchedule::Simple => self.shape.utilization(),
            MvSchedule::Overlapped => self.shape.utilization_overlapped(),
        }
    }
}

/// Computes `y = A·x + b` on a `w`-cell linear systolic array.
///
/// `b` may be `None`, in which case it is taken to be zero.
///
/// # Errors
///
/// Returns a [`DbtError`] when `w == 0`, when the dimensions of `A`, `x` and
/// `b` are inconsistent, or when the underlying simulator rejects the
/// generated schedule (which would indicate a bug in the transformation and
/// is covered by the test-suite).
///
/// # Example
///
/// ```
/// use sia_dbt::{multiply_mv, MvSchedule};
/// use sia_matrix::gen;
///
/// # fn main() -> Result<(), sia_dbt::DbtError> {
/// let a = gen::random_dense_i64(6, 9, 5, 1);
/// let x = gen::random_vector_i64(9, 5, 2);
/// let outcome = multiply_mv(&a, &x, None, 3, MvSchedule::Simple)?;
/// assert_eq!(outcome.y, a.matvec(&x)?);
/// assert_eq!(outcome.cycles, outcome.predicted_cycles());
/// # Ok(())
/// # }
/// ```
pub fn multiply_mv<T: Scalar>(
    a: &DenseMatrix<T>,
    x: &[T],
    b: Option<&[T]>,
    w: usize,
    schedule: MvSchedule,
) -> Result<MvOutcome<T>, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    multiply_mv_on(&mut ArrayStation::new(w)?, a, x, b, schedule)
}

/// Computes `y = A·x + b` on a **caller-owned** array station.
///
/// Identical to [`multiply_mv`] except that the array (and its persistent
/// run workspace) is provided by the caller instead of being constructed
/// per call: long-lived owners route every job through the same warm
/// [`sia_sim::LinearScratch`], so the simulation itself performs no heap
/// allocation in steady state, and the executed array steps are recorded in
/// the station's cumulative counters *structurally*.  It is the one-problem
/// case of [`multiply_mv_lanes_on`].
///
/// # Errors
///
/// Same as [`multiply_mv`], with the array size taken from `station`.
pub fn multiply_mv_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    a: &DenseMatrix<T>,
    x: &[T],
    b: Option<&[T]>,
    schedule: MvSchedule,
) -> Result<MvOutcome<T>, DbtError> {
    let mut outcomes = multiply_mv_lanes_on(station, &[MvProblem { a, x, b }], schedule)?;
    Ok(outcomes.pop().expect("one problem, one outcome"))
}

/// One matrix–vector problem of a batch, by reference.
#[derive(Debug, Clone, Copy)]
pub struct MvProblem<'a, T> {
    /// The dense matrix `A`.
    pub a: &'a DenseMatrix<T>,
    /// The vector `x`.
    pub x: &'a [T],
    /// Optional additive vector `b` of `y = A·x + b`.
    pub b: Option<&'a [T]>,
}

/// Computes a batch of **same-shape** `y = A·x + b` products on a
/// caller-owned station in lane-parallel array passes: up to
/// [`crate::MAX_LANES`] problems share each pass, one value lane per
/// problem.  The operands are transformed fresh, through a [`BandCache`] of
/// capacity 0 — the resident lane pass with nothing retained.
///
/// Outcomes are bit-identical to per-problem [`multiply_mv`] calls, in
/// problem order, with each problem billed the pass's full modeled cycle
/// count (identical to its solo cost).
///
/// # Errors
///
/// The errors of [`multiply_mv`] per problem, plus
/// [`sia_sim::SimError::LaneMismatch`] (via [`DbtError::Sim`]) if the
/// problems do not all share one shape.
pub fn multiply_mv_lanes_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    problems: &[MvProblem<'_, T>],
    schedule: MvSchedule,
) -> Result<Vec<MvOutcome<T>>, DbtError> {
    let mut cache = BandCache::new(station.size(), 0);
    Ok(mv_lanes(station, &mut cache, problems, schedule)?.0)
}

/// One problem of a matrix–vector lane pass, the matrix given as
/// `(cache key, matrix)` — see [`crate::mm::MmLane`].
#[derive(Clone, Copy)]
pub(crate) struct MvLane<'a, T> {
    pub(crate) a: (u64, &'a DenseMatrix<T>),
    pub(crate) x: &'a [T],
    pub(crate) b: Option<&'a [T]>,
}

impl<'a, T> From<MvProblem<'a, T>> for MvLane<'a, T> {
    fn from(p: MvProblem<'a, T>) -> Self {
        MvLane {
            a: (0, p.a),
            x: p.x,
            b: p.b,
        }
    }
}

/// The matrix–vector lane runner every solve goes through — the
/// counterpart of [`crate::mm::mm_pass`].  Each pass of at most
/// [`crate::MAX_LANES`] same-shape problems stages every problem's
/// [`DbtByRows`] transformation(s) through `cache`, builds its streams, runs
/// **one** lane-parallel pass on the station and extracts every lane.
/// Returns one outcome and one staging report per problem, in problem
/// order.
pub(crate) fn mv_lanes<'p, T, P>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[P],
    schedule: MvSchedule,
) -> Result<(Vec<MvOutcome<T>>, Vec<StagingReport>), DbtError>
where
    T: Scalar,
    P: Copy + Into<MvLane<'p, T>>,
{
    check_cache_w(station, cache);
    let w = station.size();
    let mut outcomes = Vec::with_capacity(problems.len());
    let mut reports = vec![StagingReport::default(); problems.len()];
    for (chunk, reports) in problems
        .chunks(crate::MAX_LANES)
        .zip(reports.chunks_mut(crate::MAX_LANES))
    {
        let shape = lane_shape(chunk.iter().map(|&p| {
            let p: MvLane<'p, T> = p.into();
            validate_mv_args(p.a.1, p.x, p.b, w)
        }))?;
        // The single-block-row fallback of the overlapped schedule is part
        // of the cache role, so a fallback serve and an overlapped serve
        // never share an artifact by accident.
        let role = if schedule == MvSchedule::Overlapped && overlap_splittable(shape) {
            BandRole::MvOverlapped
        } else {
            BandRole::MvSimple
        };
        let mut dbts = Vec::with_capacity(chunk.len());
        let mut jobs = Vec::with_capacity(chunk.len());
        for (&p, report) in chunk.iter().zip(reports.iter_mut()) {
            let p: MvLane<'p, T> = p.into();
            let lane_dbts = cache.mv_dbts(role, p.a, shape, report)?;
            jobs.push(mv_streams(&lane_dbts, p.x, p.b)?);
            dbts.push(lane_dbts);
        }
        let scratch = station.run_mv_lanes(&jobs)?;
        for (lane, lane_dbts) in dbts.iter().enumerate() {
            outcomes.push(complete_mv_lane(lane_dbts, shape, schedule, scratch, lane)?);
        }
    }
    Ok((outcomes, reports))
}

/// Builds one problem's array streams from its transformation(s): one
/// stream under the simple schedule, or the two halves of the overlapped
/// split (the dotted line of Fig. 2b), each taking its own rows of `b`.  The
/// bands go to the streams behind shared handles
/// ([`DbtByRows::band_shared`]) — no coefficient storage is cloned.
fn mv_streams<T: Scalar>(
    dbts: &[DbtByRows<T>],
    x: &[T],
    mut b: Option<&[T]>,
) -> Result<Vec<MvStream<T>>, DbtError> {
    dbts.iter()
        .map(|dbt| {
            let rows = dbt.original_shape().0;
            let part = b.map(|b| &b[..rows]);
            b = b.map(|b| &b[rows..]);
            Ok(MvStream {
                band: dbt.band_shared(),
                x: dbt.transform_x(x)?,
                y_injections: dbt.y_injections(part)?,
            })
        })
        .collect()
}

/// Checks the `A`/`x`/`b` dimension contract shared by [`multiply_mv`], the
/// block-sparse variant and the serving runtime's admission control, and
/// returns the problem shape.  Having one checker means admission can never
/// accept a job the solver would later reject.
///
/// # Errors
///
/// The same errors [`multiply_mv`] reports for malformed arguments.
pub fn validate_mv_args<T: Scalar>(
    a: &DenseMatrix<T>,
    x: &[T],
    b: Option<&[T]>,
    w: usize,
) -> Result<MvShape, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    if a.rows() == 0 || a.cols() == 0 {
        return Err(DbtError::EmptyDimension { what: "operand" });
    }
    if x.len() != a.cols() {
        return Err(DbtError::VectorLength {
            what: "x",
            expected: a.cols(),
            found: x.len(),
        });
    }
    if let Some(b) = b {
        if b.len() != a.rows() {
            return Err(DbtError::VectorLength {
                what: "b",
                expected: a.rows(),
                found: b.len(),
            });
        }
    }
    Ok(MvShape {
        w,
        n: a.rows(),
        m: a.cols(),
    })
}

/// Extracts one lane's result vector from the engine workspace, given the
/// transformation objects of the lane's streams (they know which band rows
/// carry the final values).
fn complete_mv_lane<T: Scalar>(
    dbts: &[DbtByRows<T>],
    shape: MvShape,
    schedule: MvSchedule,
    scratch: &LinearScratch<T>,
    lane: usize,
) -> Result<MvOutcome<T>, DbtError> {
    let mut y = Vec::with_capacity(shape.n);
    // One pass over the output stream per stream, indexed by band row —
    // no sort (band rows exit in increasing order, but the fill is
    // order-independent anyway).
    let mut y_hat: Vec<T> = Vec::new();
    for (stream, dbt) in dbts.iter().enumerate() {
        y_hat.clear();
        y_hat.resize(dbt.band().rows(), T::zero());
        let produced = scratch.collect_y_lane_into(stream, lane, &mut y_hat);
        // A complete run produces every band row exactly once; anything
        // else (a safety-net break on a malformed schedule) must stay a
        // loud error, not silent zeros in the result.
        if produced != dbt.band().rows() {
            return Err(DbtError::VectorLength {
                what: "y_hat",
                expected: dbt.band().rows(),
                found: produced,
            });
        }
        y.extend(dbt.extract_y(&y_hat)?);
    }
    let utilization = scratch.utilization();
    Ok(MvOutcome {
        y,
        shape,
        schedule,
        cycles: scratch.cycles(),
        efficiency: utilization.efficiency(shape.n * shape.m),
        activity: utilization.activity(),
        feedback: scratch.feedback_summaries(),
    })
}

/// Whether the overlapped schedule can actually split this problem: the
/// solver's fallback predicate (a single block row cannot be split, so the
/// simple schedule runs instead), shared with [`predicted_mv_cycles`] so
/// admission pricing cannot desync from execution.
fn overlap_splittable(shape: MvShape) -> bool {
    shape.nbar() >= 2
}

/// The closed-form step-count prediction for [`multiply_mv`] with the given
/// schedule, as `(cycles, exact)`.
///
/// It applies the solver's own fallback rule (see [`MvSchedule`]): an
/// overlapped request on a single block row runs the simple schedule, so it
/// is priced — exactly — by the simple closed form.  `exact` is `false`
/// only for overlapped runs with an odd block-row count, where the halves
/// split unevenly and `T = w·n̄m̄ + 2w − 2` assumes equal halves.
///
/// This is the cost hook the serving runtime's admission control uses for
/// dense matrix–vector jobs.
pub fn predicted_mv_cycles(shape: MvShape, schedule: MvSchedule) -> (usize, bool) {
    match schedule {
        MvSchedule::Simple => (shape.cycles(), true),
        MvSchedule::Overlapped if !overlap_splittable(shape) => (shape.cycles(), true),
        MvSchedule::Overlapped if shape.nbar().is_multiple_of(2) => {
            (shape.cycles_overlapped(), true)
        }
        MvSchedule::Overlapped => (shape.cycles_overlapped(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::{gen, vector};

    fn reference<T: Scalar>(a: &DenseMatrix<T>, x: &[T], b: Option<&[T]>) -> Vec<T> {
        let y = a.matvec(x).unwrap();
        match b {
            Some(b) => vector::add(&y, b).unwrap(),
            None => y,
        }
    }

    #[test]
    fn exact_result_for_the_paper_example_shape() {
        let a = gen::random_dense_i64(6, 9, 6, 101);
        let x = gen::random_vector_i64(9, 6, 102);
        let b = gen::random_vector_i64(6, 6, 103);
        let outcome = multiply_mv(&a, &x, Some(&b), 3, MvSchedule::Simple).unwrap();
        assert_eq!(outcome.y, reference(&a, &x, Some(&b)));
        // "the 39 required computational cycles"
        assert_eq!(outcome.cycles, 39);
        assert_eq!(outcome.cycles, outcome.predicted_cycles());
    }

    #[test]
    fn exact_results_across_shapes_and_array_sizes() {
        for (n, m, w, seed) in [
            (4usize, 4usize, 2usize, 1u64),
            (6, 9, 3, 2),
            (5, 7, 3, 3), // padding in both dimensions
            (8, 3, 4, 4), // wide array, narrow matrix
            (12, 12, 4, 5),
            (3, 11, 2, 6),
            (1, 1, 1, 7),
            (9, 2, 5, 8),
        ] {
            let a = gen::random_dense_i64(n, m, 5, seed);
            let x = gen::random_vector_i64(m, 5, seed + 10);
            let b = gen::random_vector_i64(n, 5, seed + 20);
            let outcome = multiply_mv(&a, &x, Some(&b), w, MvSchedule::Simple).unwrap();
            assert_eq!(outcome.y, reference(&a, &x, Some(&b)), "n={n} m={m} w={w}");
            assert_eq!(
                outcome.cycles,
                outcome.predicted_cycles(),
                "cycle formula n={n} m={m} w={w}"
            );
        }
    }

    #[test]
    fn missing_b_is_treated_as_zero() {
        let a = gen::random_dense_i64(5, 5, 4, 11);
        let x = gen::random_vector_i64(5, 4, 12);
        let outcome = multiply_mv(&a, &x, None, 2, MvSchedule::Simple).unwrap();
        assert_eq!(outcome.y, a.matvec(&x).unwrap());
    }

    #[test]
    fn overlapped_schedule_is_exact_and_faster() {
        for (n, m, w, seed) in [
            (8usize, 8usize, 2usize, 31u64),
            (12, 9, 3, 32),
            (10, 7, 2, 33),
        ] {
            let a = gen::random_dense_i64(n, m, 5, seed);
            let x = gen::random_vector_i64(m, 5, seed + 10);
            let b = gen::random_vector_i64(n, 5, seed + 20);
            let simple = multiply_mv(&a, &x, Some(&b), w, MvSchedule::Simple).unwrap();
            let overlapped = multiply_mv(&a, &x, Some(&b), w, MvSchedule::Overlapped).unwrap();
            assert_eq!(overlapped.y, simple.y, "n={n} m={m} w={w}");
            assert!(
                overlapped.cycles < simple.cycles,
                "overlap should reduce steps (n={n} m={m} w={w})"
            );
            assert!(overlapped.efficiency > simple.efficiency);
        }
    }

    #[test]
    fn overlapped_cycle_formula_holds_for_even_block_splits() {
        // The closed form T = w·n̄·m̄ + 2w − 2 assumes the two sub-problems
        // are equal, i.e. n̄ is even.
        for (n, m, w, seed) in [
            (8usize, 8usize, 2usize, 41u64),
            (12, 9, 3, 42),
            (16, 8, 4, 43),
        ] {
            let a = gen::random_dense_i64(n, m, 5, seed);
            let x = gen::random_vector_i64(m, 5, seed + 10);
            let outcome = multiply_mv(&a, &x, None, w, MvSchedule::Overlapped).unwrap();
            assert_eq!(
                outcome.cycles,
                outcome.predicted_cycles(),
                "n={n} m={m} w={w}"
            );
        }
    }

    #[test]
    fn single_block_row_falls_back_to_simple_schedule() {
        let a = gen::random_dense_i64(3, 9, 5, 51);
        let x = gen::random_vector_i64(9, 5, 52);
        let outcome = multiply_mv(&a, &x, None, 3, MvSchedule::Overlapped).unwrap();
        assert_eq!(outcome.y, a.matvec(&x).unwrap());
        assert_eq!(outcome.schedule, MvSchedule::Overlapped);
    }

    #[test]
    fn predicted_mv_cycles_tracks_the_solver_exactly_when_flagged_exact() {
        // Simple, even-split overlapped, and unsplittable-overlapped are all
        // exact; odd-split overlapped is flagged as an estimate.
        for (n, m, w, schedule, expect_exact) in [
            (7usize, 5usize, 3usize, MvSchedule::Simple, true),
            (12, 9, 3, MvSchedule::Overlapped, true), // n̄ = 4, even
            (3, 9, 3, MvSchedule::Overlapped, true),  // n̄ = 1, fallback
            (9, 9, 3, MvSchedule::Overlapped, false), // n̄ = 3, odd split
        ] {
            let shape = MvShape { w, n, m };
            let (cycles, exact) = predicted_mv_cycles(shape, schedule);
            assert_eq!(exact, expect_exact, "n={n} m={m} {schedule:?}");
            let a = gen::random_dense_i64(n, m, 5, (n + m) as u64);
            let x = gen::random_vector_i64(m, 5, n as u64);
            let run = multiply_mv(&a, &x, None, w, schedule).unwrap();
            if exact {
                assert_eq!(cycles, run.cycles, "n={n} m={m} {schedule:?}");
            }
        }
    }

    #[test]
    fn feedback_storage_is_exactly_w_registers() {
        let w = 4;
        let a = gen::random_dense_i64(8, 12, 5, 61);
        let x = gen::random_vector_i64(12, 5, 62);
        let outcome = multiply_mv(&a, &x, None, w, MvSchedule::Simple).unwrap();
        let summary = &outcome.feedback[0];
        assert!(!summary.is_empty());
        // Every fed-back partial result spends exactly w cycles in storage.
        assert_eq!(summary.distinct_storage_cycles(), vec![w]);
        // n̄·(m̄−1)·w values are fed back in total.
        assert_eq!(summary.len(), 2 * 2 * w);
    }

    #[test]
    fn efficiency_matches_the_closed_form_for_divisible_shapes() {
        let a = gen::random_dense_i64(12, 12, 5, 71);
        let x = gen::random_vector_i64(12, 5, 72);
        let outcome = multiply_mv(&a, &x, None, 3, MvSchedule::Simple).unwrap();
        assert!((outcome.efficiency - outcome.predicted_utilization()).abs() < 1e-12);
        let overlapped = multiply_mv(&a, &x, None, 3, MvSchedule::Overlapped).unwrap();
        assert!((overlapped.efficiency - overlapped.predicted_utilization()).abs() < 1e-12);
    }

    #[test]
    fn float_inputs_are_accurate() {
        let a = gen::random_dense_f64(10, 13, 81);
        let x = gen::random_vector_f64(13, 82);
        let b = gen::random_vector_f64(10, 83);
        let outcome = multiply_mv(&a, &x, Some(&b), 4, MvSchedule::Simple).unwrap();
        let expected = reference(&a, &x, Some(&b));
        assert!(vector::approx_eq(&outcome.y, &expected, 1e-9));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let a = gen::random_dense_i64(4, 4, 5, 91);
        let x = gen::random_vector_i64(4, 5, 92);
        assert_eq!(
            multiply_mv(&a, &x, None, 0, MvSchedule::Simple).unwrap_err(),
            DbtError::ZeroArraySize
        );
        assert!(matches!(
            multiply_mv(&a, &x[..3], None, 2, MvSchedule::Simple).unwrap_err(),
            DbtError::VectorLength { what: "x", .. }
        ));
        assert!(matches!(
            multiply_mv(&a, &x, Some(&x[..2]), 2, MvSchedule::Simple).unwrap_err(),
            DbtError::VectorLength { what: "b", .. }
        ));
    }
}
