//! Block-sparse matrix–vector multiplication (paper conclusions).
//!
//! "In the case of computing with matrices of a known degree of sparsity,
//! transformation algorithms can be devised and developed, to exclude the
//! need of zero-valued elements sub-matrices.  A reduction of computational
//! time would be the consequence of using such algorithms."
//!
//! This module implements that variant for *block* sparsity: when a whole
//! `w × w` block of `A` is zero it is simply not appended to the transformed
//! band, so the band gets shorter and the array finishes earlier.  The
//! feedback chain between the surviving blocks of a row group is preserved,
//! so the result is still accumulated entirely inside the array.

use crate::{DbtError, MvOutcome, MvSchedule};
use sia_matrix::{triangular, vector, BandMatrix, BlockGrid, DenseMatrix, Scalar};
use sia_sim::{ArrayStation, MvStream, YInjection};
use std::sync::Arc;

/// Result of a block-sparse matrix–vector multiplication, with the block
/// statistics needed by the sparsity experiment.
#[derive(Debug, Clone)]
pub struct SparseMvOutcome<T> {
    /// The dense outcome fields (result vector, cycle counts, utilization).
    pub outcome: MvOutcome<T>,
    /// Number of `w × w` blocks of the original matrix that are non-zero.
    pub nonzero_blocks: usize,
    /// Number of blocks actually appended to the band (the non-zero ones
    /// plus the leading block of every block row, which anchors the `b`
    /// injection and the wrap-around of the `x̂` stream).
    pub appended_blocks: usize,
    /// Total number of `w × w` blocks (`n̄ · m̄`).
    pub total_blocks: usize,
}

impl<T> SparseMvOutcome<T> {
    /// Fraction of blocks that are non-zero.
    pub fn block_density(&self) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        self.nonzero_blocks as f64 / self.total_blocks as f64
    }

    /// Predicted step count when only [`SparseMvOutcome::appended_blocks`]
    /// blocks enter the band: the `n̄·m̄` factor of the dense formula shrinks
    /// to that count.
    pub fn predicted_cycles(&self) -> usize {
        2 * self.outcome.shape.w * self.appended_blocks + 2 * self.outcome.shape.w - 3
    }
}

/// The block-survival plan of a block-sparse problem: which `w × w` blocks
/// of each block row are appended to the shortened band.
///
/// This is the *cost hook* of the sparse path: building the plan only scans
/// the matrix for non-zero blocks (no band construction, no simulation), so
/// a scheduler can predict the exact cycle count of a sparse job before
/// committing an array to it.
#[derive(Debug, Clone)]
pub struct SparsePlan {
    /// Array size the plan was built for.
    pub w: usize,
    /// Surviving column indices per block row (column 0 is always kept to
    /// anchor the `b` injection and the `x̂` wrap-around).
    pub kept: Vec<Vec<usize>>,
    /// Number of `w × w` blocks of the original matrix that are non-zero.
    pub nonzero_blocks: usize,
    /// Total number of `w × w` blocks (`n̄ · m̄`).
    pub total_blocks: usize,
}

impl SparsePlan {
    /// Number of blocks that will be appended to the band.
    pub fn appended_blocks(&self) -> usize {
        self.kept.iter().map(Vec::len).sum()
    }

    /// Exact step count of the shortened run: the `n̄·m̄` factor of the dense
    /// closed form `2w·n̄m̄ + 2w − 3` shrinks to the appended-block count.
    pub fn predicted_cycles(&self) -> usize {
        2 * self.w * self.appended_blocks() + 2 * self.w - 3
    }
}

/// Scans `A` for non-zero `w × w` blocks and returns the survival plan,
/// without building the band or running anything.
///
/// # Errors
///
/// Returns [`DbtError::ZeroArraySize`] when `w == 0` and the substrate's
/// errors for empty matrices.
pub fn plan_block_sparse<T: Scalar>(a: &DenseMatrix<T>, w: usize) -> Result<SparsePlan, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    let grid = BlockGrid::new(a.rows(), a.cols(), w)?;
    Ok(plan_with_grid(a, &grid, w))
}

/// The scan behind [`plan_block_sparse`], reusing a grid the caller already
/// built (the solver path constructs one grid and plans with it).  The
/// occupancy test reads the matrix in place — no block is copied out just
/// to be counted.
fn plan_with_grid<T: Scalar>(a: &DenseMatrix<T>, grid: &BlockGrid, w: usize) -> SparsePlan {
    let (nbar, mbar) = (grid.block_rows(), grid.block_cols());
    // A padded block is non-zero iff its intersection with the real matrix
    // holds a non-zero element.
    let block_nonzero = |r: usize, s: usize| {
        crate::ext::strip_has_nonzero(
            a,
            r * w,
            ((r + 1) * w).min(a.rows()),
            s * w,
            ((s + 1) * w).min(a.cols()),
        )
    };
    // Column 0 is always kept: every block row must start at the same column
    // so that the wrap-around of the x̂ stream (the last L block of one row
    // group pairing with the first x̂ chunk of the next) stays correct,
    // exactly as in the dense scheme.
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(nbar);
    let mut nonzero_blocks = 0usize;
    for r in 0..nbar {
        let mut cols: Vec<usize> = Vec::new();
        for s in 0..mbar {
            let nonzero = block_nonzero(r, s);
            if nonzero {
                nonzero_blocks += 1;
            }
            if s == 0 || nonzero {
                cols.push(s);
            }
        }
        kept.push(cols);
    }
    SparsePlan {
        w,
        kept,
        nonzero_blocks,
        total_blocks: nbar * mbar,
    }
}

/// Computes `y = A·x + b` skipping the all-zero `w × w` blocks of `A`.
///
/// Rows whose entire block row is zero still produce `y_i = b_i`.
///
/// # Errors
///
/// Returns the same errors as [`crate::multiply_mv`].
pub fn multiply_mv_block_sparse<T: Scalar>(
    a: &DenseMatrix<T>,
    x: &[T],
    b: Option<&[T]>,
    w: usize,
) -> Result<SparseMvOutcome<T>, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    multiply_mv_block_sparse_on(&mut ArrayStation::new(w)?, a, x, b)
}

/// Computes `y = A·x + b` skipping all-zero blocks, on a **caller-owned**
/// array station (the serving runtime keeps one station per worker; the
/// run reuses its warm workspace and records its steps structurally).
///
/// # Errors
///
/// Same as [`multiply_mv_block_sparse`], with the array size taken from
/// `station`.
pub fn multiply_mv_block_sparse_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    a: &DenseMatrix<T>,
    x: &[T],
    b: Option<&[T]>,
) -> Result<SparseMvOutcome<T>, DbtError> {
    let w = station.size();
    let shape = crate::validate_mv_args(a, x, b, w)?;
    let resident = build_sparse_resident(a, w)?;
    serve_sparse_resident(station, &resident, x, b, shape)
}

/// The operand-only half of a block-sparse problem: the shortened band, the
/// survival plan and the extraction/injection recipes.  Nothing here depends
/// on `x` or `b`, so one of these can be built once per `(A, w)` and reused
/// — this is the artifact [`crate::resident::BandCache`] keeps resident.
#[derive(Debug, Clone)]
pub(crate) struct SparseResident<T> {
    /// The shortened band, shared with the stream at O(1) cost per serve.
    pub(crate) band: Arc<BandMatrix<T>>,
    /// The survival plan (exposes the exact cycle prediction).
    pub(crate) plan: SparsePlan,
    /// For each appended band block `t`, the original column block whose
    /// `x` chunk it consumes.
    pub(crate) x_order: Vec<usize>,
    /// For each appended band block `t`: `Some(r)` when it opens block row
    /// `r` (fresh `b` injection), `None` when it chains feedback from block
    /// `t − 1`.
    pub(crate) b_anchor: Vec<Option<usize>>,
    /// `result_rows[i]` = band row carrying `y[i]`.
    pub(crate) result_rows: Vec<usize>,
    /// Block-row count `n̄` of the original matrix.
    pub(crate) nbar: usize,
    /// Block-column count `m̄` of the original matrix.
    pub(crate) mbar: usize,
}

/// Builds the operand-only artifacts of a block-sparse problem: block
/// row `t` of the shortened band corresponds to the `t`-th surviving
/// `(r, s)` pair in by-rows order.  Within one original block row the L
/// part of each kept block is paired with the *next kept* block of the same
/// row (cyclically), so the row sum is still complete.
pub(crate) fn build_sparse_resident<T: Scalar>(
    a: &DenseMatrix<T>,
    w: usize,
) -> Result<SparseResident<T>, DbtError> {
    let grid = BlockGrid::new(a.rows(), a.cols(), w)?;
    let (nbar, mbar) = (grid.block_rows(), grid.block_cols());
    let plan = plan_with_grid(a, &grid, w);
    let total_kept = plan.appended_blocks();

    let rows = total_kept * w;
    let cols = rows + w - 1;
    let mut band = BandMatrix::new(rows, cols, 0, w - 1)?;
    let mut x_order: Vec<usize> = Vec::with_capacity(total_kept);
    let mut b_anchor: Vec<Option<usize>> = Vec::with_capacity(total_kept);
    let mut result_rows: Vec<usize> = vec![0; a.rows()];

    let mut t = 0usize;
    for r in 0..nbar {
        let cols_kept = &plan.kept[r];
        for (pos, &s) in cols_kept.iter().enumerate() {
            let next_s = cols_kept[(pos + 1) % cols_kept.len()];
            let block = grid.block(a, r, s)?;
            let (u, _) = triangular::split(&block);
            let next_block = grid.block(a, r, next_s)?;
            let (_, l) = triangular::split(&next_block);
            for xx in 0..w {
                for yy in 0..w {
                    if yy >= xx {
                        band.set(t * w + xx, t * w + yy, u.at(xx, yy))?;
                    } else {
                        let col = (t + 1) * w + yy;
                        if col < cols {
                            band.set(t * w + xx, col, l.at(xx, yy))?;
                        }
                    }
                }
            }
            x_order.push(s);
            b_anchor.push(if pos == 0 { Some(r) } else { None });
            if pos == cols_kept.len() - 1 {
                for local in 0..w {
                    let original = r * w + local;
                    if original < a.rows() {
                        result_rows[original] = t * w + local;
                    }
                }
            }
            t += 1;
        }
    }

    Ok(SparseResident {
        band: Arc::new(band),
        plan,
        x_order,
        b_anchor,
        result_rows,
        nbar,
        mbar,
    })
}

/// Serves one `(x, b)` pair against prebuilt block-sparse artifacts.  The
/// fresh path above routes through here too, so cached serving is
/// structurally bit-identical to fresh serving.
pub(crate) fn serve_sparse_resident<T: Scalar>(
    station: &mut ArrayStation<T>,
    resident: &SparseResident<T>,
    x: &[T],
    b: Option<&[T]>,
    shape: crate::analytic::MvShape,
) -> Result<SparseMvOutcome<T>, DbtError> {
    let w = resident.plan.w;
    let rows = resident.band.rows();
    let cols = resident.band.cols();
    let x_blocks = vector::split_blocks(x, w, resident.mbar);
    let zero_b = vec![T::zero(); shape.n];
    let b_full = b.unwrap_or(&zero_b);
    let b_blocks = vector::split_blocks(b_full, w, resident.nbar);
    let mut x_hat: Vec<T> = Vec::with_capacity(cols);
    let mut injections: Vec<YInjection<T>> = Vec::with_capacity(rows);
    for (t, &s) in resident.x_order.iter().enumerate() {
        x_hat.extend_from_slice(&x_blocks[s]);
        match resident.b_anchor[t] {
            Some(r) => {
                for &value in b_blocks[r].iter().take(w) {
                    injections.push(YInjection::Value(value));
                }
            }
            None => {
                for local in 0..w {
                    injections.push(YInjection::Feedback {
                        producer_row: (t - 1) * w + local,
                    });
                }
            }
        }
    }
    // Trailing w-1 elements: every row group starts at column 0, so the last
    // band block's L part wraps onto the first w-1 entries of x_0 — the same
    // rule as the dense transformation.
    x_hat.extend_from_slice(&x_blocks[0][..w - 1]);

    let stream = MvStream {
        band: Arc::clone(&resident.band),
        x: x_hat,
        y_injections: injections,
    };
    let scratch = station.run_mv_lanes(&[[stream]])?;
    let mut y_hat = vec![T::zero(); rows];
    let produced = scratch.collect_y_into(0, &mut y_hat);
    // Same guard as the dense path: an incomplete run must error loudly,
    // never read as zeros.
    if produced != rows {
        return Err(DbtError::VectorLength {
            what: "y_hat",
            expected: rows,
            found: produced,
        });
    }
    let y: Vec<T> = resident.result_rows.iter().map(|&row| y_hat[row]).collect();
    let utilization = scratch.utilization();

    Ok(SparseMvOutcome {
        outcome: MvOutcome {
            y,
            shape,
            schedule: MvSchedule::Simple,
            cycles: scratch.cycles(),
            efficiency: utilization.efficiency(shape.n * shape.m),
            activity: utilization.activity(),
            feedback: scratch.feedback_summaries(),
        },
        nonzero_blocks: resident.plan.nonzero_blocks,
        appended_blocks: resident.plan.appended_blocks(),
        total_blocks: resident.nbar * resident.mbar,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    #[test]
    fn sparse_result_matches_dense_reference() {
        for density in [0.2, 0.5, 0.8] {
            let a = gen::block_sparse_f64(12, 12, 3, density, 7);
            let x = gen::random_vector_f64(12, 8);
            let b = gen::random_vector_f64(12, 9);
            let sparse = multiply_mv_block_sparse(&a, &x, Some(&b), 3).unwrap();
            let expected = vector::add(&a.matvec(&x).unwrap(), &b).unwrap();
            assert!(
                vector::approx_eq(&sparse.outcome.y, &expected, 1e-9),
                "density {density}"
            );
        }
    }

    #[test]
    fn all_zero_matrix_returns_b() {
        let a = DenseMatrix::<i64>::zeros(6, 6);
        let x = vec![1; 6];
        let b: Vec<i64> = (0..6).collect();
        let sparse = multiply_mv_block_sparse(&a, &x, Some(&b), 2).unwrap();
        assert_eq!(sparse.outcome.y, b);
        assert_eq!(sparse.nonzero_blocks, 0);
    }

    #[test]
    fn skipping_blocks_shortens_the_run() {
        let dense = gen::random_dense_i64(12, 12, 5, 21);
        let sparse_matrix = gen::block_sparse_f64(12, 12, 3, 0.3, 22);
        // Map the sparse pattern onto integers for an exact comparison of cycles.
        let a_sparse = DenseMatrix::from_fn(12, 12, |i, j| {
            if sparse_matrix.at(i, j) == 0.0 {
                0i64
            } else {
                dense.at(i, j)
            }
        });
        let x = gen::random_vector_i64(12, 5, 23);
        let full = crate::multiply_mv(&a_sparse, &x, None, 3, MvSchedule::Simple).unwrap();
        let skipped = multiply_mv_block_sparse(&a_sparse, &x, None, 3).unwrap();
        assert_eq!(skipped.outcome.y, full.y);
        assert!(skipped.outcome.cycles <= full.cycles);
        assert!(skipped.block_density() < 1.0);
        assert_eq!(skipped.outcome.cycles, skipped.predicted_cycles());
    }

    #[test]
    fn dense_input_degenerates_to_the_ordinary_transformation() {
        let a = gen::random_dense_i64(6, 9, 5, 31);
        let x = gen::random_vector_i64(9, 5, 32);
        let plain = crate::multiply_mv(&a, &x, None, 3, MvSchedule::Simple).unwrap();
        let sparse = multiply_mv_block_sparse(&a, &x, None, 3).unwrap();
        assert_eq!(sparse.outcome.y, plain.y);
        assert_eq!(sparse.outcome.cycles, plain.cycles);
        assert_eq!(sparse.nonzero_blocks, sparse.total_blocks);
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let a = gen::random_dense_i64(4, 4, 3, 41);
        let x = vec![1i64; 4];
        assert_eq!(
            multiply_mv_block_sparse(&a, &x, None, 0).unwrap_err(),
            DbtError::ZeroArraySize
        );
        assert!(multiply_mv_block_sparse(&a, &x[..2], None, 2).is_err());
        assert!(multiply_mv_block_sparse(&a, &x, Some(&x[..2]), 2).is_err());
        assert_eq!(
            plan_block_sparse(&a, 0).unwrap_err(),
            DbtError::ZeroArraySize
        );
    }

    #[test]
    fn plan_predicts_the_measured_cycle_count_without_running() {
        for density in [0.0, 0.2, 0.6, 1.0] {
            let a = gen::block_sparse_f64(15, 12, 3, density, 17);
            let x = gen::random_vector_f64(12, 18);
            let plan = plan_block_sparse(&a, 3).unwrap();
            let run = multiply_mv_block_sparse(&a, &x, None, 3).unwrap();
            assert_eq!(plan.appended_blocks(), run.appended_blocks);
            assert_eq!(plan.nonzero_blocks, run.nonzero_blocks);
            assert_eq!(plan.total_blocks, run.total_blocks);
            assert_eq!(
                plan.predicted_cycles(),
                run.outcome.cycles,
                "density {density}"
            );
        }
    }
}
