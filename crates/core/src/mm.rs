//! Size-independent **matrix–matrix multiplication** `C = A·B + E` on the
//! `w × w` hexagonal array with spiral feedback (paper §3 and Appendix).
//!
//! The transformed operands are built exactly as the paper prescribes:
//!
//! * `Â` is the juxtaposition along the band of `m̄` copies of
//!   `DBT-by-rows(A)` plus the closing triangular block `U′` (the leading
//!   `(w−1)×(w−1)` corner of the first copy);
//! * `B̂` juxtaposes, for every column block `B_i` of `B`, the
//!   `DBT-transposed-by-rows` band of `B_i` repeated `n̄` times, and closes
//!   with the triangular block `L′`.
//!
//! Both are square of dimension `w·p̄·n̄·m̄ + w − 1`; `Â` is an upper band
//! and `B̂` a lower band of bandwidth `w`, so their product fits the
//! `2w − 1` wide result band of the hexagonal array.
//!
//! Every element of the true product `C_{IJ}` is scattered over several
//! partial results inside the result band: `p̄` of them on one spiral
//! diagonal and (for off-diagonal elements of the block) another `p̄` on the
//! paired diagonal `d ∓ w`.  The solver chains those partial results through
//! the array's spiral feedback — each one is re-injected as the starting
//! value of the next — so the complete value emerges from the last element
//! of the chain with **no computation outside the array**, which is the
//! paper's central claim.

use crate::analytic::MmShape;
use crate::resident::{check_cache_w, BandCache, BandRole, StagingReport};
use crate::DbtError;
use sia_matrix::{BandMatrix, BlockGrid, DenseMatrix, Scalar};
use sia_sim::{
    ArrayStation, CInjection, CInjectionSchedule, FeedbackSummary, HexJob, HexScratch, SimError,
};
use std::slice;
use std::sync::Arc;

/// Result of one size-independent matrix–matrix multiplication.
#[derive(Debug, Clone)]
pub struct MmOutcome<T> {
    /// The result matrix `C = A·B + E` (shape `n × m`).
    pub c: DenseMatrix<T>,
    /// Problem shape (gives access to all the closed-form predictions).
    pub shape: MmShape,
    /// Measured number of array steps.
    pub cycles: usize,
    /// Measured utilization in the paper's sense, `n·m·p / (w²·T)`.
    pub efficiency: f64,
    /// Fraction of cell-cycles that fired (includes work on zero padding).
    pub activity: f64,
    /// Feedback statistics of the spiral accumulation chains.
    pub feedback: FeedbackSummary,
}

impl<T> MmOutcome<T> {
    /// The paper's predicted step count `3·w·p̄n̄m̄ + 4w − 5`.
    pub fn predicted_cycles(&self) -> usize {
        self.shape.cycles()
    }

    /// The paper's predicted utilization (→ ⅓ for large problems).
    pub fn predicted_utilization(&self) -> f64 {
        self.shape.utilization()
    }
}

/// Builds the transformed operand `Â` (upper band, dimension
/// `w·p̄·n̄·m̄ + w − 1`) from the dense `A`.
///
/// The band juxtaposes `m̄` identical copies of the DBT-by-rows pattern, so
/// only the first copy is read out of `A` (in place, zero-padded); the
/// remaining copies are single row-block `memmove`s into the preallocated
/// band storage ([`BandMatrix::copy_row_block`]), its only allocation.
///
/// Exposed for the structural tests and the experiment harness; most users
/// call [`multiply_mm`] instead.
///
/// # Errors
///
/// Returns [`DbtError`] for a zero array size or empty matrices.
pub fn build_a_hat<T: Scalar>(
    a: &DenseMatrix<T>,
    mbar: usize,
    w: usize,
) -> Result<BandMatrix<T>, DbtError> {
    build_a_hat_with(a, mbar, w, Vec::new())
}

/// [`build_a_hat`] with caller-provided backing storage for the band — the
/// slab-recycling entry point of the resident operand cache
/// ([`crate::resident`]): same-shape bands have identical layouts, so an
/// evicted band's storage backs its replacement without a free/alloc pair.
/// Passing `Vec::new()` is equivalent to [`build_a_hat`].
///
/// # Errors
///
/// The errors of [`build_a_hat`].
pub fn build_a_hat_with<T: Scalar>(
    a: &DenseMatrix<T>,
    mbar: usize,
    w: usize,
    storage: Vec<T>,
) -> Result<BandMatrix<T>, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    if mbar == 0 {
        return Err(DbtError::EmptyDimension { what: "mbar" });
    }
    let grid = BlockGrid::new(a.rows(), a.cols(), w)?;
    let nbar = grid.block_rows();
    let pbar = grid.block_cols();
    let per_copy = nbar * pbar;
    let g = mbar * per_copy;
    let n_dim = g * w + w - 1;
    let mut band = BandMatrix::with_storage(n_dim, n_dim, 0, w - 1, storage)?;
    // Row x of block row q (r = q / p̄ within its copy, u = q mod p̄): slot
    // o holds column qw + x + o, i.e. U = A_{r,u} at y = x + o < w, then
    // the strictly-lower L = A_{r,(u+1) mod p̄} at y = x + o − w.
    let mut fill_row = |row: usize| {
        let (q, x) = (row / w, row % w);
        let (ar, u) = ((q % per_copy) / pbar * w + x, q % pbar);
        let l = (u + 1) % pbar;
        let len = w.min(n_dim - row);
        for (o, slot) in band.row_slice_mut(row)[..len].iter_mut().enumerate() {
            let y = x + o;
            *slot = if y < w {
                a.at_padded(ar, u * w + y)
            } else {
                a.at_padded(ar, l * w + y - w)
            };
        }
    };
    // The reference copy, then the closing block U' (the leading corner of
    // U_{0,0}: the same formula at q = g, cut short by the matrix edge).
    let copy_rows = per_copy * w;
    (0..copy_rows).chain(g * w..n_dim).for_each(&mut fill_row);
    // Copies 1..m̄: identical content relative to their own rows (the stored
    // slots are diagonal-offset addressed), so each is one row-block copy.
    for c in 1..mbar {
        band.copy_row_block(0, c * copy_rows, copy_rows);
    }
    Ok(band)
}

/// Builds the transformed operand `B̂` (lower band, dimension
/// `w·p̄·n̄·m̄ + w − 1`) from the dense `B`.
///
/// Like [`build_a_hat`], it reads `B` in place and `memmove`s repeated
/// copies; the band's storage is its only allocation.
///
/// # Errors
///
/// Returns [`DbtError`] for a zero array size or empty matrices.
pub fn build_b_hat<T: Scalar>(
    b: &DenseMatrix<T>,
    nbar: usize,
    w: usize,
) -> Result<BandMatrix<T>, DbtError> {
    build_b_hat_with(b, nbar, w, Vec::new())
}

/// [`build_b_hat`] with caller-provided backing storage for the band — see
/// [`build_a_hat_with`].
///
/// # Errors
///
/// The errors of [`build_b_hat`].
pub fn build_b_hat_with<T: Scalar>(
    b: &DenseMatrix<T>,
    nbar: usize,
    w: usize,
    storage: Vec<T>,
) -> Result<BandMatrix<T>, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    if nbar == 0 {
        return Err(DbtError::EmptyDimension { what: "nbar" });
    }
    let grid = BlockGrid::new(b.rows(), b.cols(), w)?;
    let pbar = grid.block_rows();
    let mbar = grid.block_cols();
    let per_copy = nbar * pbar;
    let g = mbar * per_copy;
    let n_dim = g * w + w - 1;
    let mut band = BandMatrix::with_storage(n_dim, n_dim, w - 1, 0, storage)?;
    // Block row q holds D = B_{u,i} (u = q mod p̄, i = q / per_copy) on and
    // below its diagonal, and one block row down E, the strictly-upper part
    // of B_{(u+1) mod p̄, i}.  So row x of block row q reads row uw + x of
    // B: slot o < w − 1 − x is E of block row q − 1 (y = x + o + 1, block
    // column (q − 1) / per_copy), the rest is D (y = o − (w − 1 − x)).  The
    // closing block L' is the same formula at q = g (block column 0).
    let fill_row = |band: &mut BandMatrix<T>, row: usize| {
        let (q, x) = (row / w, row % w);
        let br = (q % pbar) * w + x;
        let d_col = (q / per_copy) % mbar * w;
        let split = w - 1 - x;
        let slots = band.row_slice_mut(row);
        if q > 0 {
            let e_col = (q - 1) / per_copy * w + x + 1;
            for (o, slot) in slots[..split].iter_mut().enumerate() {
                *slot = b.at_padded(br, e_col + o);
            }
        }
        for (y, slot) in slots[split..].iter_mut().enumerate() {
            *slot = b.at_padded(br, d_col + y);
        }
    };
    // Within block column i the p̄-block-row pattern repeats n̄ times, and
    // only the first copy's E comes from the previous block column: copies
    // 0 and 1 are read out of B, copies 2.. are row-block copies of 1.
    let copy_rows = pbar * w;
    for i in 0..mbar {
        let base = i * per_copy * w;
        for row in base..base + nbar.min(2) * copy_rows {
            fill_row(&mut band, row);
        }
        for c in 2..nbar {
            band.copy_row_block(base + copy_rows, base + c * copy_rows, copy_rows);
        }
    }
    for row in g * w..n_dim {
        fill_row(&mut band, row);
    }
    Ok(band)
}

/// One accumulation chain: the target element of the (padded) result `C`
/// paired with the ordered band positions whose partial values chain
/// through the spiral feedback.
pub type AccumulationChain = ((usize, usize), Vec<(usize, usize)>);

/// The accumulation chains of the transformed problem: for every element of
/// the (padded) result `C`, the ordered list of result-band positions whose
/// partial values must be chained through the spiral feedback, the last of
/// which carries the final value.
pub struct AccumulationPlan {
    /// `(target element of the padded C, ordered chain of band positions)`.
    pub chains: Vec<AccumulationChain>,
    /// Dimension of the transformed operands.
    pub transformed_dim: usize,
}

/// Builds the accumulation plan for a problem of the given shape.
///
/// # Errors
///
/// Returns [`DbtError::ZeroArraySize`] when `w == 0`.
pub fn accumulation_plan(shape: MmShape) -> Result<AccumulationPlan, DbtError> {
    let w = shape.w;
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    let (nbar, pbar, mbar) = (shape.nbar(), shape.pbar(), shape.mbar());
    let per_copy = nbar * pbar;
    let g = mbar * per_copy;
    let n_dim = g * w + w - 1;
    let inject_time = |i: usize, j: usize| i + j + i.max(j) + w - 1;

    let mut chains = Vec::with_capacity(nbar * mbar * w * w);
    for r in 0..nbar {
        for i in 0..mbar {
            for x in 0..w {
                for y in 0..w {
                    let mut members: Vec<(usize, usize)> = Vec::with_capacity(3 * pbar);
                    // Partial results on the block diagonal of the result.
                    for u in 0..pbar {
                        let q = i * per_copy + r * pbar + u;
                        members.push((q * w + x, q * w + y));
                    }
                    if y > x {
                        // Strictly-upper element: the remaining terms live on
                        // the block sub-diagonal (spiral partner d - w).
                        for s in 0..pbar {
                            let q = if s >= 1 {
                                i * per_copy + r * pbar + (s - 1)
                            } else if r >= 1 {
                                i * per_copy + (r - 1) * pbar + (pbar - 1)
                            } else {
                                (i + 1) * per_copy - 1
                            };
                            let row = (q + 1) * w + x;
                            let col = q * w + y;
                            if row < n_dim {
                                members.push((row, col));
                            }
                        }
                    } else if y < x {
                        // Strictly-lower element: remaining terms on the
                        // block super-diagonal (spiral partner d + w).
                        for s in 0..pbar {
                            let q = if s >= 1 {
                                i * per_copy + r * pbar + (s - 1)
                            } else if r + 1 < nbar {
                                i * per_copy + r * pbar + (pbar - 1)
                            } else if i >= 1 {
                                i * per_copy - 1
                            } else {
                                g - 1
                            };
                            let row = q * w + x;
                            let col = (q + 1) * w + y;
                            if col < n_dim {
                                members.push((row, col));
                            }
                        }
                    }
                    members.sort_by_key(|&(bi, bj)| inject_time(bi, bj));
                    chains.push(((r * w + x, i * w + y), members));
                }
            }
        }
    }
    Ok(AccumulationPlan {
        chains,
        transformed_dim: n_dim,
    })
}

/// Computes `C = A·B + E` on a `w × w` hexagonal systolic array.
///
/// `e` may be `None`, in which case it is taken to be zero.
///
/// # Errors
///
/// Returns a [`DbtError`] when `w == 0`, when the operand dimensions are
/// inconsistent, or when the simulator rejects the generated schedule.
///
/// # Example
///
/// ```
/// use sia_dbt::multiply_mm;
/// use sia_matrix::gen;
///
/// # fn main() -> Result<(), sia_dbt::DbtError> {
/// let a = gen::random_dense_i64(4, 6, 3, 1);
/// let b = gen::random_dense_i64(6, 4, 3, 2);
/// let outcome = multiply_mm(&a, &b, None, 2)?;
/// assert_eq!(outcome.c, a.matmul(&b)?);
/// assert_eq!(outcome.cycles, outcome.predicted_cycles());
/// # Ok(())
/// # }
/// ```
pub fn multiply_mm<T: Scalar>(
    a: &DenseMatrix<T>,
    b: &DenseMatrix<T>,
    e: Option<&DenseMatrix<T>>,
    w: usize,
) -> Result<MmOutcome<T>, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    multiply_mm_on(&mut ArrayStation::new(w)?, a, b, e)
}

/// Computes `C = A·B + E` on a **caller-owned** array station.
///
/// Identical to [`multiply_mm`] except that the array (and its persistent
/// run workspace) is provided by the caller instead of being constructed
/// per call: long-lived owners route every job through the same warm
/// [`sia_sim::HexScratch`], so the simulation itself performs no heap
/// allocation in steady state, and the executed array steps are recorded in
/// the station's cumulative counters *structurally* (by the run itself, not
/// by caller-side back-attribution).
///
/// A fresh solve is the one-lane case of the resident lane pass, served
/// through a [`BandCache`] of capacity 0: the operands are transformed by
/// the very code a resident serve uses, and nothing is retained.
///
/// # Errors
///
/// Same as [`multiply_mm`], with the array size taken from `station`.
pub fn multiply_mm_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    a: &DenseMatrix<T>,
    b: &DenseMatrix<T>,
    e: Option<&DenseMatrix<T>>,
) -> Result<MmOutcome<T>, DbtError> {
    let mut cache = BandCache::new(station.size(), 0);
    let problem = MmLane {
        a: (0, a),
        b: (0, b),
        e,
    };
    let mut report = StagingReport::default();
    let (schedule, scratch) = mm_pass(
        station,
        &mut cache,
        &[problem],
        slice::from_mut(&mut report),
    )?;
    let outcome = schedule.complete(scratch).next();
    Ok(outcome.expect("a one-problem pass has one lane"))
}

/// One problem of a matrix–matrix lane pass, each operand given as
/// `(cache key, matrix)`.  A fresh solve passes plain matrices under any key
/// (its capacity-0 cache retains nothing), so it copies no operand to give
/// it an identity; resident problems convert from
/// [`crate::MmResidentProblem`].
#[derive(Clone, Copy)]
pub(crate) struct MmLane<'a, T> {
    pub(crate) a: (u64, &'a DenseMatrix<T>),
    pub(crate) b: (u64, &'a DenseMatrix<T>),
    pub(crate) e: Option<&'a DenseMatrix<T>>,
}

/// The one problem shape of a lane pass: every problem must be valid and
/// share lane 0's shape, because lane mates replay one injection tape.
pub(crate) fn lane_shape<S: Copy + PartialEq>(
    shapes: impl IntoIterator<Item = Result<S, DbtError>>,
) -> Result<S, DbtError> {
    let mut common = None;
    for (lane, shape) in shapes.into_iter().enumerate() {
        let shape = shape?;
        if *common.get_or_insert(shape) != shape {
            return Err(DbtError::Sim(SimError::LaneMismatch {
                lane,
                what: "problem shape",
            }));
        }
    }
    common.ok_or(DbtError::Sim(SimError::LaneMismatch {
        lane: 0,
        what: "empty lane batch",
    }))
}

/// The matrix–matrix lane pass every solve goes through: stages each
/// problem's operand bands through `cache` (reporting into the matching
/// `reports` slot), runs **one** lane-parallel pass of at most
/// [`crate::MAX_LANES`] same-shape problems on the station, and returns the
/// shape's schedule together with the run workspace, from which the caller
/// extracts each lane.  A solo solve is a one-problem pass; a fresh one uses
/// a capacity-0 cache.
///
/// The shape-only work — accumulation plan, injection schedule, extraction
/// map — comes from the cache's schedule memo, once per pass; the jobs are
/// assembled in the cache's reusable buffer, so a pass whose bands are all
/// resident (and which has no additive term) allocates nothing.
///
/// # Errors
///
/// The errors of [`multiply_mm`] per problem, plus
/// [`sia_sim::SimError::LaneMismatch`] (via [`DbtError::Sim`]) if the
/// problems do not all share one shape.
pub(crate) fn mm_pass<'s, 'p, T, P>(
    station: &'s mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[P],
    reports: &mut [StagingReport],
) -> Result<(Arc<MmSchedule<T>>, &'s HexScratch<T>), DbtError>
where
    T: Scalar,
    P: Copy + Into<MmLane<'p, T>>,
{
    check_cache_w(station, cache);
    debug_assert_eq!(problems.len(), reports.len());
    let w = station.size();
    let shape = lane_shape(problems.iter().map(|&p| {
        let p = p.into();
        validate_mm_args(p.a.1, p.b.1, p.e, w)
    }))?;
    let schedule = cache.mm_schedule(shape)?;
    let mut jobs = std::mem::take(&mut cache.lane_jobs);
    let staged = problems
        .iter()
        .zip(reports.iter_mut())
        .try_for_each(|(&p, report)| {
            let p = p.into();
            *report = StagingReport::default();
            jobs.push(HexJob {
                a: cache.mm_band(BandRole::MmLeft, p.a, shape, report)?,
                b: cache.mm_band(BandRole::MmRight, p.b, shape, report)?,
                c_injections: schedule.injections_for(p.e),
            });
            Ok::<_, DbtError>(())
        });
    let run = staged.and_then(|()| Ok(station.run_hex_lanes(&jobs)?));
    // Emptied before it goes back: a leftover job would pin its bands and
    // keep an evicted band's storage out of the slab pool.
    jobs.clear();
    cache.lane_jobs = jobs;
    Ok((schedule, run?))
}

/// The **shape-only** half of a matrix–matrix job: the flattened injection
/// schedule (chain-opening literals zeroed), the slots an additive term
/// patches, and the extraction map.  None of it depends on operand values,
/// so one schedule serves every lane of a lane pass, and the band cache
/// (see [`crate::resident`]) keeps one per shape and reuses it across every
/// pass that touches the shape.
#[derive(Debug)]
pub(crate) struct MmSchedule<T> {
    pub(crate) shape: MmShape,
    /// Injection schedule with every chain-opening literal set to zero
    /// (the `E = None` case verbatim), behind an [`Arc`]: problems without
    /// an additive term share it with the engine at O(1) cost, which also
    /// lets the lane runner skip per-lane schedule re-validation
    /// (`Arc::ptr_eq`).
    injections: CInjectionSchedule<T>,
    /// `(index into injections, global target)` of each chain-opening
    /// literal: a problem with an additive term `E` overwrites exactly
    /// these slots with `E`'s entries.
    value_slots: Vec<(usize, (usize, usize))>,
    /// `final_position[gi * m + gj]` = band position carrying `c_{gi,gj}`
    /// (`None` would mean the plan failed to cover that element, which the
    /// extraction treats as a bug, not a zero).
    final_position: Vec<Option<(usize, usize)>>,
}

/// Checks the `A`/`B`/`E` dimension contract shared by [`multiply_mm`] and
/// the serving runtime's admission control, and returns the problem shape.
/// Having one checker means admission can never accept a job the solver
/// would later reject.
///
/// # Errors
///
/// The same errors [`multiply_mm`] reports for malformed arguments.
pub fn validate_mm_args<T: Scalar>(
    a: &DenseMatrix<T>,
    b: &DenseMatrix<T>,
    e: Option<&DenseMatrix<T>>,
    w: usize,
) -> Result<MmShape, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    if a.cols() != b.rows() {
        return Err(DbtError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matrix multiply",
        });
    }
    if a.rows() == 0 || a.cols() == 0 || b.cols() == 0 {
        return Err(DbtError::EmptyDimension { what: "operand" });
    }
    if let Some(e) = e {
        if e.shape() != (a.rows(), b.cols()) {
            return Err(DbtError::ShapeMismatch {
                left: e.shape(),
                right: (a.rows(), b.cols()),
                op: "additive term e",
            });
        }
    }
    Ok(MmShape {
        w,
        n: a.rows(),
        p: a.cols(),
        m: b.cols(),
    })
}

impl<T: Scalar> MmSchedule<T> {
    /// Builds the schedule of a shape from its accumulation plan.
    pub(crate) fn new(shape: MmShape) -> Result<Self, DbtError> {
        let plan = accumulation_plan(shape)?;
        let chain_members: usize = plan.chains.iter().map(|(_, m)| m.len()).sum();
        // Chain members are disjoint across targets, so the flat injection
        // list never carries duplicates — and costs no hashing to build,
        // which matters: large problems stage thousands of injections per
        // job.
        let mut injections: Vec<((usize, usize), CInjection<T>)> =
            Vec::with_capacity(chain_members);
        let mut value_slots: Vec<(usize, (usize, usize))> = Vec::with_capacity(plan.chains.len());
        let mut final_position: Vec<Option<(usize, usize)>> = vec![None; shape.n * shape.m];
        for (target, members) in &plan.chains {
            let mut previous: Option<(usize, usize)> = None;
            for &pos in members {
                let injection = match previous {
                    None => {
                        value_slots.push((injections.len(), *target));
                        CInjection::Value(T::zero())
                    }
                    Some(prev) => CInjection::Feedback { producer: prev },
                };
                injections.push((pos, injection));
                previous = Some(pos);
            }
            if let (Some(last), true) = (previous, target.0 < shape.n && target.1 < shape.m) {
                final_position[target.0 * shape.m + target.1] = Some(last);
            }
        }
        Ok(MmSchedule {
            shape,
            injections: Arc::new(injections),
            value_slots,
            final_position,
        })
    }

    /// The injection list of one problem: the shared schedule itself when
    /// there is no additive term (an `Arc` clone — free, and it marks the
    /// job a schedule-mate of its lane siblings), or a copy with the
    /// chain-opening literals patched to `E`'s entries otherwise.
    pub(crate) fn injections_for(&self, e: Option<&DenseMatrix<T>>) -> CInjectionSchedule<T> {
        match e {
            None => Arc::clone(&self.injections),
            Some(e) => {
                let mut injections = (*self.injections).clone();
                for &(idx, (gi, gj)) in &self.value_slots {
                    injections[idx].1 = CInjection::Value(e.at_padded(gi, gj));
                }
                Arc::new(injections)
            }
        }
    }

    /// One outcome per lane of the run in `scratch`, in lane order: every
    /// lane's result is extracted in one sweep ([`MmSchedule::extract`]),
    /// and the lanes share one feedback summary (its event list is behind
    /// an `Arc`, so each copy is O(1)).
    pub(crate) fn complete(&self, scratch: &HexScratch<T>) -> impl Iterator<Item = MmOutcome<T>> {
        let lanes = scratch.lanes();
        let mut cs: [DenseMatrix<T>; crate::MAX_LANES] =
            std::array::from_fn(|_| DenseMatrix::zeros(0, 0));
        self.extract(scratch, &mut cs[..lanes]);
        let (shape, cycles, utilization) = (self.shape, scratch.cycles(), scratch.utilization());
        let feedback = scratch.feedback_summary();
        cs.into_iter().take(lanes).map(move |c| MmOutcome {
            c,
            shape,
            cycles,
            efficiency: utilization.efficiency(shape.n * shape.m * shape.p),
            activity: utilization.activity(),
            feedback: feedback.clone(),
        })
    }

    /// Reshapes `outs[l]` to `n × m` in place ([`DenseMatrix::reset`]
    /// reuses its storage) and fills it with lane `l`'s result, for every
    /// lane of the run in `scratch` at once: one sweep over the final chain
    /// positions, each an O(1) [`HexScratch::lane_values`] lookup of the
    /// whole lane block in the engine's flat feedback store.  Allocates
    /// nothing when the matrices already have the capacity, and
    /// materializes no feedback summary (building one clones the engine's
    /// event list).
    pub(crate) fn extract(&self, scratch: &HexScratch<T>, outs: &mut [DenseMatrix<T>]) {
        let (n, m) = (self.shape.n, self.shape.m);
        debug_assert_eq!(outs.len(), scratch.lanes());
        for c in outs.iter_mut() {
            c.reset(n, m);
        }
        for (gi, row) in self.final_position.chunks_exact(m).enumerate() {
            for (gj, position) in row.iter().enumerate() {
                let (bi, bj) = position.expect("every result element has an accumulation chain");
                let values = scratch
                    .lane_values(bi, bj)
                    .expect("the final chain member is produced by the array");
                for (c, &value) in outs.iter_mut().zip(values) {
                    c[(gi, gj)] = value;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    fn reference<T: Scalar>(
        a: &DenseMatrix<T>,
        b: &DenseMatrix<T>,
        e: Option<&DenseMatrix<T>>,
    ) -> DenseMatrix<T> {
        let c = a.matmul(b).unwrap();
        match e {
            Some(e) => c.add(e).unwrap(),
            None => c,
        }
    }

    #[test]
    fn exact_result_for_the_paper_figure_shape() {
        // Fig. 4 of the paper uses n̄ = 2, p̄ = 2, m̄ = 3 blocks.
        let w = 3;
        let a = gen::random_dense_i64(6, 6, 4, 201);
        let b = gen::random_dense_i64(6, 9, 4, 202);
        let outcome = multiply_mm(&a, &b, None, w).unwrap();
        assert_eq!(outcome.c, reference(&a, &b, None));
        assert_eq!(outcome.cycles, outcome.predicted_cycles());
    }

    #[test]
    fn exact_results_across_shapes_and_array_sizes() {
        for (n, p, m, w, seed) in [
            (2usize, 2usize, 2usize, 2usize, 1u64),
            (4, 4, 4, 2, 2),
            (4, 6, 4, 2, 3),
            (6, 6, 9, 3, 4),
            (5, 7, 4, 3, 5), // padding in every dimension
            (3, 3, 3, 3, 6), // single block (n̄ = p̄ = m̄ = 1)
            (8, 4, 6, 4, 7),
            (2, 2, 2, 1, 8), // single-cell array
        ] {
            let a = gen::random_dense_i64(n, p, 4, seed);
            let b = gen::random_dense_i64(p, m, 4, seed + 10);
            let outcome = multiply_mm(&a, &b, None, w).unwrap();
            assert_eq!(
                outcome.c,
                reference(&a, &b, None),
                "n={n} p={p} m={m} w={w}"
            );
            assert_eq!(
                outcome.cycles,
                outcome.predicted_cycles(),
                "cycle formula n={n} p={p} m={m} w={w}"
            );
        }
    }

    #[test]
    fn additive_term_is_injected_through_the_array() {
        let w = 2;
        let a = gen::random_dense_i64(4, 4, 4, 31);
        let b = gen::random_dense_i64(4, 4, 4, 32);
        let e = gen::random_dense_i64(4, 4, 4, 33);
        let outcome = multiply_mm(&a, &b, Some(&e), w).unwrap();
        assert_eq!(outcome.c, reference(&a, &b, Some(&e)));
    }

    #[test]
    fn float_inputs_are_accurate() {
        let a = gen::random_dense_f64(5, 6, 41);
        let b = gen::random_dense_f64(6, 7, 42);
        let outcome = multiply_mm(&a, &b, None, 3).unwrap();
        assert!(outcome.c.approx_eq(&reference(&a, &b, None), 1e-9));
    }

    #[test]
    fn feedback_delays_include_the_regular_values_w_and_2w() {
        // Paper §3: sub-diagonal partial results wait w cycles, main-diagonal
        // ones 2w cycles; a few irregular (longer) delays also occur.
        let w = 3;
        let a = gen::random_dense_i64(6, 6, 4, 51);
        let b = gen::random_dense_i64(6, 6, 4, 52);
        let outcome = multiply_mm(&a, &b, None, w).unwrap();
        let delays = outcome.feedback.distinct_storage_cycles();
        assert!(delays.contains(&w), "delays {delays:?} should contain w");
        assert!(
            delays.contains(&(2 * w)),
            "delays {delays:?} should contain 2w"
        );
        assert!(delays.iter().all(|&d| d >= w));
    }

    #[test]
    fn transformed_operands_have_the_paper_dimensions_and_full_bands() {
        let w = 3;
        let a = gen::random_dense_i64(6, 6, 9, 61);
        let b = gen::random_dense_i64(6, 9, 9, 62);
        let shape = MmShape {
            w,
            n: 6,
            p: 6,
            m: 9,
        };
        let a_hat = build_a_hat(&a, shape.mbar(), w).unwrap();
        let b_hat = build_b_hat(&b, shape.nbar(), w).unwrap();
        assert_eq!(a_hat.rows(), shape.transformed_dim());
        assert_eq!(a_hat.cols(), shape.transformed_dim());
        assert_eq!(b_hat.rows(), shape.transformed_dim());
        assert_eq!(a_hat.lower(), 0);
        assert_eq!(b_hat.upper(), 0);
    }

    #[test]
    fn accumulation_plan_covers_every_result_element() {
        let shape = MmShape {
            w: 3,
            n: 6,
            p: 6,
            m: 9,
        };
        let plan = accumulation_plan(shape).unwrap();
        assert_eq!(plan.chains.len(), 2 * 3 * 9);
        for (target, members) in &plan.chains {
            assert!(!members.is_empty(), "target {target:?} has no chain");
            // Diagonal elements have p̄ members, off-diagonal up to 2p̄.
            assert!(members.len() <= 2 * shape.pbar());
            // Members must lie inside the transformed band.
            for &(i, j) in members {
                assert!(i < plan.transformed_dim && j < plan.transformed_dim);
                assert!(i.abs_diff(j) < shape.w);
            }
        }
    }

    #[test]
    fn chain_members_are_disjoint_across_targets() {
        let shape = MmShape {
            w: 2,
            n: 4,
            p: 4,
            m: 4,
        };
        let plan = accumulation_plan(shape).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (_, members) in &plan.chains {
            for &pos in members {
                assert!(seen.insert(pos), "band position {pos:?} used twice");
            }
        }
    }

    #[test]
    fn a_hat_juxtaposed_copies_are_bitwise_identical() {
        // The row-block copies must reproduce the reference copy exactly,
        // including the padded shapes where blocks carry zero fill.
        let w = 3;
        let a = gen::random_dense_i64(7, 8, 5, 91);
        let mbar = 3;
        let a_hat = build_a_hat(&a, mbar, w).unwrap();
        let per_copy = 7usize.div_ceil(w) * 8usize.div_ceil(w);
        let copy_rows = per_copy * w;
        for c in 1..mbar {
            for row in 0..copy_rows {
                assert_eq!(
                    a_hat.row_slice(row),
                    a_hat.row_slice(c * copy_rows + row),
                    "copy {c}, row {row}"
                );
            }
        }
    }

    #[test]
    fn batch_solver_matches_sequential_outcomes() {
        // A batch is one lane pass through a cache that retains nothing.
        use crate::{multiply_mm_resident_lanes_on, MmResidentProblem, OperandRef};
        let w = 2;
        let mats: Vec<_> = (0..5u64)
            .map(|s| {
                (
                    OperandRef::named(2 * s, gen::random_dense_i64(4, 5, 4, 300 + s)),
                    OperandRef::named(2 * s + 1, gen::random_dense_i64(5, 3, 4, 400 + s)),
                )
            })
            .collect();
        let problems: Vec<_> = mats
            .iter()
            .map(|(a, b)| MmResidentProblem { a, b, e: None })
            .collect();
        let mut station = ArrayStation::new(w).unwrap();
        let mut cache = BandCache::new(w, 0);
        let (batch, _) =
            multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems).unwrap();
        assert_eq!(station.stats().hex_runs, problems.len());
        for (p, outcome) in problems.iter().zip(&batch) {
            let solo = multiply_mm(p.a, p.b, None, w).unwrap();
            assert_eq!(outcome.c, solo.c);
            assert_eq!(outcome.cycles, solo.cycles);
            assert_eq!(outcome.feedback, solo.feedback);
        }
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let a = gen::random_dense_i64(4, 4, 3, 71);
        let b = gen::random_dense_i64(4, 4, 3, 72);
        assert_eq!(
            multiply_mm(&a, &b, None, 0).unwrap_err(),
            DbtError::ZeroArraySize
        );
        let wrong = gen::random_dense_i64(5, 4, 3, 73);
        assert!(matches!(
            multiply_mm(&a, &wrong, None, 2).unwrap_err(),
            DbtError::ShapeMismatch { .. }
        ));
        let bad_e = gen::random_dense_i64(3, 3, 3, 74);
        assert!(matches!(
            multiply_mm(&a, &b, Some(&bad_e), 2).unwrap_err(),
            DbtError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn efficiency_matches_the_closed_form_for_divisible_shapes() {
        let w = 2;
        let a = gen::random_dense_i64(4, 4, 3, 81);
        let b = gen::random_dense_i64(4, 4, 3, 82);
        let outcome = multiply_mm(&a, &b, None, w).unwrap();
        assert!((outcome.efficiency - outcome.predicted_utilization()).abs() < 1e-12);
    }
}
