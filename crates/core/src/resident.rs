//! Operand identity and **resident DBT band caching**.
//!
//! Production traffic against an array farm is repetitive: one model matrix
//! is served against millions of small queries.  The DBT transformation of
//! an operand depends only on `(operand, w)` — nothing in `Â`, `B̂`, a
//! [`DbtByRows`] band or a block-sparse survival plan depends on the *other*
//! operand's values — so the transform cost can be paid **once per operand**
//! instead of once per job.  This module gives operands the identity that
//! makes that safe:
//!
//! * [`OperandRef`] — a dense matrix behind an [`Arc`] plus a stable 64-bit
//!   key (caller-supplied for named model operands, content-hashed
//!   otherwise).  Cloning one is an `Arc` bump; submitting the same operand
//!   twice presents the same key twice.
//! * [`BandKey`] / [`BandRole`] — the cache identity of one transformed
//!   artifact: operand key, role in the computation (the MM left and right
//!   bands differ, and each also depends on the *repetition count* taken
//!   from the other operand's shape), and the array size `w`.
//! * [`BandCache`] — a bounded LRU of resident-band artifacts
//!   backed by a slab pool: same-shape bands have identical storage
//!   layouts, so an evicted band's buffer backs its replacement without a
//!   free/alloc pair ([`build_a_hat_with`]).  MM injection-schedule
//!   templates (shape-only) are kept in a small side table.
//! * `multiply_*_resident_*` — serve entry points that are **bit-identical**
//!   to their fresh-transform counterparts and report what they staged via
//!   [`StagingReport`].  They are not a separate path: every solve in this
//!   crate is a lane pass through a `BandCache`, and a fresh solve is the
//!   capacity-0 case.
//!
//! Staging is priced apart from compute: a staged band costs one cycle per
//! stored band position (`rows × bandwidth` — the bytes that move) and the
//! closed forms [`mm_staging_cycles`] / [`mv_staging_cycles`] /
//! [`sparse_staging_cycles`] predict that cost exactly without building
//! anything, so an admission controller can price a cold operand placement
//! the same way the paper prices compute.  The warm path — every band
//! resident, no additive term — performs **no heap allocation** from lookup
//! through result extraction ([`multiply_mm_resident_into`]), solo or
//! lane-parallel.
//!
//! [`build_a_hat_with`]: crate::build_a_hat_with

use crate::analytic::{MmShape, MvShape};
use crate::mm::{mm_pass, MmLane, MmSchedule};
use crate::mv::{mv_lanes, MvLane};
use crate::sparse::{
    build_sparse_resident, serve_sparse_resident, SparseMvOutcome, SparsePlan, SparseResident,
};
use crate::{
    build_a_hat_with, build_b_hat_with, validate_mv_args, DbtByRows, DbtError, MmOutcome,
    MvOutcome, MvSchedule,
};
use sia_matrix::{BandMatrix, DenseMatrix, Scalar};
use sia_sim::{ArrayStation, HexJob, ResidencyLru, ResidencyStats};
use std::ops::Deref;
use std::slice;
use std::sync::Arc;

/// Maximum number of shape-keyed MM injection-schedule templates a
/// [`BandCache`] keeps (serving traffic uses a handful of shapes).
const PLAN_CAP: usize = 8;

/// Maximum number of evicted band buffers the slab pool retains.
const SLAB_CAP: usize = 8;

/// A dense operand with **identity**: the matrix behind an [`Arc`] plus a
/// stable 64-bit key.
///
/// Two constructors, mirroring the two ways serving traffic names data:
///
/// * [`OperandRef::named`] — the caller supplies the key (a model id, a
///   tenant-scoped handle).  Cheap, and the idiom for "one model matrix,
///   millions of queries".
/// * [`OperandRef::content_hashed`] (also `From<DenseMatrix>`) — the key is
///   a deterministic FNV-1a fingerprint of the dimensions and element bits,
///   so structurally equal matrices converge on the same cache entries with
///   no caller cooperation.
///
/// Cloning is an `Arc` bump; [`OperandRef`] dereferences to its matrix.
/// Keys only establish *cache identity* — the resident serve paths never
/// trust a key beyond co-locating artifacts, so a key collision can cost
/// correctness only if the caller names two different matrices identically.
#[derive(Debug, Clone)]
pub struct OperandRef<T: Scalar = f64> {
    key: u64,
    data: Arc<DenseMatrix<T>>,
}

impl<T: Scalar> OperandRef<T> {
    /// Wraps `data` under a caller-supplied key.
    pub fn named(key: u64, data: impl Into<Arc<DenseMatrix<T>>>) -> Self {
        OperandRef {
            key,
            data: data.into(),
        }
    }

    /// Wraps `data` under a deterministic content fingerprint (FNV-1a over
    /// the dimensions and every element's [`Scalar::key_bits`]).
    pub fn content_hashed(data: impl Into<Arc<DenseMatrix<T>>>) -> Self {
        let data = data.into();
        let key = content_key(&data);
        OperandRef { key, data }
    }

    /// The operand's cache key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The matrix itself.
    pub fn matrix(&self) -> &DenseMatrix<T> {
        &self.data
    }

    /// The shared handle to the matrix.
    pub fn shared(&self) -> &Arc<DenseMatrix<T>> {
        &self.data
    }
}

impl<T: Scalar> Deref for OperandRef<T> {
    type Target = DenseMatrix<T>;

    fn deref(&self) -> &DenseMatrix<T> {
        &self.data
    }
}

impl<T: Scalar> From<DenseMatrix<T>> for OperandRef<T> {
    fn from(m: DenseMatrix<T>) -> Self {
        OperandRef::content_hashed(m)
    }
}

impl<T: Scalar> From<Arc<DenseMatrix<T>>> for OperandRef<T> {
    fn from(m: Arc<DenseMatrix<T>>) -> Self {
        OperandRef::content_hashed(m)
    }
}

/// Deterministic FNV-1a fingerprint of a matrix's shape and element bits.
fn content_key<T: Scalar>(m: &DenseMatrix<T>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h = (h ^ m.rows() as u64).wrapping_mul(PRIME);
    h = (h ^ m.cols() as u64).wrapping_mul(PRIME);
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            h = (h ^ m.at(i, j).key_bits()).wrapping_mul(PRIME);
        }
    }
    h
}

/// The role a transformed artifact plays — part of its cache identity,
/// because the same operand transforms differently per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandRole {
    /// MM left operand band `Â` (repetition count `m̄` comes from `B`).
    MmLeft,
    /// MM right operand band `B̂` (repetition count `n̄` comes from `A`).
    MmRight,
    /// MV band under the simple schedule (one [`DbtByRows`]).
    MvSimple,
    /// MV bands under the overlapped schedule (two [`DbtByRows`] halves).
    MvOverlapped,
    /// Block-sparse shortened band plus survival plan.
    Sparse,
}

/// Cache identity of one resident artifact: which operand, in which role,
/// repeated how often, for which array size.
///
/// `rep` carries the part of the identity that comes from the *other*
/// operand: `Â` juxtaposes `m̄ = ⌈m/w⌉` copies (a property of `B`), `B̂`
/// repeats `n̄` times (a property of `A`).  Two jobs pairing one operand
/// with differently-shaped partners therefore occupy distinct entries, and
/// a hit is guaranteed layout-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandKey {
    /// The operand's [`OperandRef::key`].
    pub operand: u64,
    /// The artifact's role.
    pub role: BandRole,
    /// Role-specific repetition count (`m̄` for [`BandRole::MmLeft`], `n̄`
    /// for [`BandRole::MmRight`], `0` for the rest).
    pub rep: u32,
    /// Array size the artifact was transformed for.
    pub w: u32,
}

/// One resident artifact (crate-internal: callers go through the
/// `multiply_*_resident_*` entry points).
#[derive(Debug, Clone)]
pub(crate) enum ResidentBand<T: Scalar> {
    /// An MM operand band (`Â` or `B̂`, per the key's role).
    Hat(Arc<BandMatrix<T>>),
    /// The [`DbtByRows`] transformation(s) of an MV operand (one for the
    /// simple schedule, two halves for the overlapped one).
    Mv(Arc<Vec<DbtByRows<T>>>),
    /// The operand-only artifacts of a block-sparse problem.
    Sparse(Arc<SparseResident<T>>),
}

/// What one resident serve staged, hit and displaced — the receipt-level
/// residency accounting.
///
/// `staging_cycles` is the *measured* staging cost of this serve (zero on a
/// full hit); the closed forms below predict the cold cost without building
/// anything.  The fixed-size key arrays exist so the zero-allocation warm
/// path can report without touching the heap (a serve stages at most two
/// bands, hence at most two evictions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingReport {
    /// Operand artifacts found resident.
    pub hits: u32,
    /// Operand artifacts that had to be staged.
    pub misses: u32,
    /// Artifacts evicted to make room.
    pub evictions: u32,
    /// Modeled cycles spent staging (one per stored band position moved).
    pub staging_cycles: usize,
    /// Operand keys staged by this serve.
    pub staged: [Option<u64>; 2],
    /// Operand keys whose artifacts were evicted by this serve.
    pub evicted: [Option<u64>; 2],
}

impl StagingReport {
    /// `true` when every operand lookup of the serve hit.
    pub fn operand_hit(&self) -> bool {
        self.misses == 0 && self.hits > 0
    }

    /// Records `key` in the first free slot of `slots`.
    fn note(slots: &mut [Option<u64>; 2], key: u64) {
        if let Some(slot) = slots.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(key);
        }
    }
}

/// A bounded per-station cache of resident DBT artifacts with slab-recycled
/// band storage.
///
/// One of these lives next to each [`ArrayStation`] of a serving runtime;
/// capacity `0` disables residency entirely (every serve stages fresh and
/// nothing is retained), which is the control arm of the residency
/// experiment and the cache every fresh solve runs through.
#[derive(Debug)]
pub struct BandCache<T: Scalar = f64> {
    w: usize,
    lru: ResidencyLru<BandKey, ResidentBand<T>>,
    /// Shape-keyed MM injection-schedule templates (shape-only, so they are
    /// not operand residency — just memoized schedule construction).
    plans: Vec<(MmShape, Arc<MmSchedule<T>>)>,
    /// Storage buffers of evicted MM bands, recycled into replacements.
    slabs: Vec<Vec<T>>,
    /// The MM lane pass assembles its jobs here, so a warm pass allocates
    /// nothing; always empty between passes.
    pub(crate) lane_jobs: Vec<HexJob<T>>,
}

impl<T: Scalar> BandCache<T> {
    /// Creates a cache for stations of size `w` holding at most `capacity`
    /// resident artifacts.
    pub fn new(w: usize, capacity: usize) -> Self {
        // Long-lived caches reserve their side tables up front so a warm
        // serve never grows them; the throwaway capacity-0 cache of a fresh
        // solve reserves nothing.
        let reserve = |cap: usize| if capacity == 0 { 0 } else { cap };
        BandCache {
            w,
            lru: ResidencyLru::new(capacity),
            plans: Vec::with_capacity(reserve(PLAN_CAP)),
            slabs: Vec::with_capacity(reserve(SLAB_CAP)),
            lane_jobs: Vec::new(),
        }
    }

    /// Array size the cache transforms for.
    pub fn array_size(&self) -> usize {
        self.w
    }

    /// Number of resident artifacts.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Configured capacity (`0` = residency disabled).
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Cumulative hit/miss/eviction/staging counters.
    pub fn stats(&self) -> ResidencyStats {
        self.lru.stats()
    }

    /// Number of recycled storage buffers currently pooled.
    pub fn pooled_slabs(&self) -> usize {
        self.slabs.len()
    }

    fn insert(&mut self, key: BandKey, band: ResidentBand<T>, report: &mut StagingReport) {
        if let Some((evicted_key, evicted)) = self.lru.insert(key, band) {
            if evicted_key == key {
                // Same-key replacement (or capacity 0 bounce) — not an
                // eviction; recycle the storage silently.
                self.reclaim(evicted);
                return;
            }
            report.evictions += 1;
            StagingReport::note(&mut report.evicted, evicted_key.operand);
            self.reclaim(evicted);
        }
    }

    /// Recycles an evicted artifact's storage into the slab pool when this
    /// cache held the last reference.
    fn reclaim(&mut self, band: ResidentBand<T>) {
        if let ResidentBand::Hat(arc) = band {
            if self.slabs.len() < SLAB_CAP {
                if let Ok(owned) = Arc::try_unwrap(arc) {
                    self.slabs.push(owned.into_storage());
                }
            }
        }
    }

    /// Looks up (or stages) the MM band of `operand` — `(cache key, matrix)`
    /// — in `role` for `shape`.
    pub(crate) fn mm_band(
        &mut self,
        role: BandRole,
        (operand, matrix): (u64, &DenseMatrix<T>),
        shape: MmShape,
        report: &mut StagingReport,
    ) -> Result<Arc<BandMatrix<T>>, DbtError> {
        let rep = match role {
            BandRole::MmLeft => shape.mbar(),
            BandRole::MmRight => shape.nbar(),
            _ => unreachable!("mm_band is only called with MM roles"),
        };
        let key = BandKey {
            operand,
            role,
            rep: rep as u32,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Hat(band)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(band));
        }
        report.misses += 1;
        let storage = self.slabs.pop().unwrap_or_default();
        let band = match role {
            BandRole::MmLeft => build_a_hat_with(matrix, rep, self.w, storage)?,
            BandRole::MmRight => build_b_hat_with(matrix, rep, self.w, storage)?,
            _ => unreachable!("mm_band is only called with MM roles"),
        };
        let cycles = band.rows() * band.bandwidth();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        StagingReport::note(&mut report.staged, operand);
        let arc = Arc::new(band);
        self.insert(key, ResidentBand::Hat(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// Looks up (or stages) the [`DbtByRows`] transformation(s) of an MV
    /// operand — `(cache key, matrix)` — for the given effective schedule
    /// role.
    pub(crate) fn mv_dbts(
        &mut self,
        role: BandRole,
        (operand, a): (u64, &DenseMatrix<T>),
        shape: MvShape,
        report: &mut StagingReport,
    ) -> Result<Arc<Vec<DbtByRows<T>>>, DbtError> {
        let key = BandKey {
            operand,
            role,
            rep: 0,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Mv(dbts)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(dbts));
        }
        report.misses += 1;
        let dbts = if role == BandRole::MvOverlapped {
            // Split at an original block-row boundary (the dotted line of
            // Fig. 2b): the first ⌊n̄/2⌋ block rows form one sub-problem,
            // the rest the other, interleaved in the array's idle cycles.
            let split_rows = (shape.nbar() / 2) * self.w;
            let top = a.submatrix(0, 0, split_rows, a.cols());
            let bottom = a.submatrix(split_rows, 0, a.rows() - split_rows, a.cols());
            vec![
                DbtByRows::new(&top, self.w)?,
                DbtByRows::new(&bottom, self.w)?,
            ]
        } else {
            vec![DbtByRows::new(a, self.w)?]
        };
        let cycles: usize = dbts
            .iter()
            .map(|d| d.band().rows() * d.band().bandwidth())
            .sum();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        StagingReport::note(&mut report.staged, operand);
        let arc = Arc::new(dbts);
        self.insert(key, ResidentBand::Mv(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// Looks up (or stages) the block-sparse artifacts of an operand.
    fn sparse(
        &mut self,
        operand: &OperandRef<T>,
        report: &mut StagingReport,
    ) -> Result<Arc<SparseResident<T>>, DbtError> {
        let key = BandKey {
            operand: operand.key(),
            role: BandRole::Sparse,
            rep: 0,
            w: self.w as u32,
        };
        if let Some(ResidentBand::Sparse(resident)) = self.lru.get(key) {
            report.hits += 1;
            return Ok(Arc::clone(resident));
        }
        report.misses += 1;
        let resident = build_sparse_resident(operand.matrix(), self.w)?;
        let cycles = resident.band.rows() * resident.band.bandwidth();
        self.lru.note_staged(cycles);
        report.staging_cycles += cycles;
        StagingReport::note(&mut report.staged, operand.key());
        let arc = Arc::new(resident);
        self.insert(key, ResidentBand::Sparse(Arc::clone(&arc)), report);
        Ok(arc)
    }

    /// The memoized MM injection-schedule template of a shape.
    pub(crate) fn mm_schedule(&mut self, shape: MmShape) -> Result<Arc<MmSchedule<T>>, DbtError> {
        if let Some((_, schedule)) = self.plans.iter().find(|(s, _)| *s == shape) {
            return Ok(Arc::clone(schedule));
        }
        let schedule = Arc::new(MmSchedule::new(shape)?);
        if self.plans.len() >= PLAN_CAP {
            self.plans.remove(0);
        }
        self.plans.push((shape, Arc::clone(&schedule)));
        Ok(schedule)
    }
}

/// Cold staging cost of one MM job's operands: both transformed bands, one
/// cycle per stored position (`2 · (w·p̄n̄m̄ + w − 1) · w`).  A serve that
/// finds one band resident pays half of this; a full hit pays zero.
pub fn mm_staging_cycles(shape: MmShape) -> usize {
    2 * shape.transformed_dim() * shape.w
}

/// Cold staging cost of an MV operand's band(s): `n̄·m̄·w²` stored positions
/// under either schedule (the overlapped halves partition the same rows).
pub fn mv_staging_cycles(shape: MvShape) -> usize {
    shape.nbar() * shape.mbar() * shape.w * shape.w
}

/// Cold staging cost of a block-sparse operand's shortened band:
/// `appended_blocks · w²` stored positions.
pub fn sparse_staging_cycles(plan: &SparsePlan) -> usize {
    plan.appended_blocks() * plan.w * plan.w
}

/// Panics unless `cache` was built for `station`'s array size.
pub(crate) fn check_cache_w<T: Scalar>(station: &ArrayStation<T>, cache: &BandCache<T>) {
    assert_eq!(
        station.size(),
        cache.array_size(),
        "BandCache was built for a different array size than this station"
    );
}

/// One matrix–matrix problem of a resident batch, by reference.
#[derive(Debug, Clone, Copy)]
pub struct MmResidentProblem<'a, T: Scalar> {
    /// Left operand.
    pub a: &'a OperandRef<T>,
    /// Right operand.
    pub b: &'a OperandRef<T>,
    /// Optional additive term `E` of `C = A·B + E`.
    pub e: Option<&'a DenseMatrix<T>>,
}

impl<'a, T: Scalar> From<MmResidentProblem<'a, T>> for MmLane<'a, T> {
    fn from(p: MmResidentProblem<'a, T>) -> Self {
        MmLane {
            a: (p.a.key(), p.a.matrix()),
            b: (p.b.key(), p.b.matrix()),
            e: p.e,
        }
    }
}

/// Computes `C = A·B + E` through the station's resident band cache,
/// returning the full outcome plus what the serve staged.
///
/// Bit-identical to [`crate::multiply_mm_on`]: both are the same lane pass,
/// a staged band is built by the same constructors, and a resident band
/// *is* the band a previous serve built.
///
/// # Errors
///
/// The errors of [`crate::multiply_mm`].
pub fn multiply_mm_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    b: &OperandRef<T>,
    e: Option<&DenseMatrix<T>>,
) -> Result<(MmOutcome<T>, StagingReport), DbtError> {
    let mut report = StagingReport::default();
    let problem = [MmResidentProblem { a, b, e }];
    let (schedule, scratch) = mm_pass(station, cache, &problem, slice::from_mut(&mut report))?;
    let outcome = schedule.complete(scratch).next();
    Ok((outcome.expect("a one-problem pass has one lane"), report))
}

/// Computes up to [`crate::MAX_LANES`] same-shape `C = A·B + E` products
/// in **one** lane pass through the resident cache, into caller-provided
/// result matrices, writing one staging report per problem and returning
/// the modeled cycle count each problem is billed.  A solo serve passes
/// one-element slices.
///
/// This is the **zero-allocation** serve path: when every band is resident
/// and no problem has an additive term, no heap allocation happens between
/// entry and return — each job is three `Arc` bumps assembled in the
/// cache's reusable buffer, the simulator runs in the station's warm
/// workspace, each output is reshaped in place ([`DenseMatrix::reset`]
/// reuses its storage), and no feedback summary is materialized.
///
/// # Errors
///
/// The errors of [`multiply_mm_resident_lanes_on`].
///
/// # Panics
///
/// Panics on more than [`crate::MAX_LANES`] problems, or unless `outs` and
/// `reports` have one slot per problem.
pub fn multiply_mm_resident_into<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[MmResidentProblem<'_, T>],
    outs: &mut [DenseMatrix<T>],
    reports: &mut [StagingReport],
) -> Result<usize, DbtError> {
    assert!(problems.len() <= crate::MAX_LANES, "one lane pass at most");
    assert!(
        outs.len() == problems.len() && reports.len() == problems.len(),
        "one output and one report per problem"
    );
    let (schedule, scratch) = mm_pass(station, cache, problems, reports)?;
    schedule.extract(scratch, outs);
    Ok(scratch.cycles())
}

/// Computes a batch of **same-shape** `C = A·B + E` products through the
/// resident cache in lane-parallel array passes: up to
/// [`crate::MAX_LANES`] problems share each pass, one value lane per
/// problem, so the pass costs one tape replay instead of `L`.  Returns one
/// [`StagingReport`] per problem (lane mates sharing an operand hit what
/// their predecessor lane staged).
///
/// Outcomes are bit-identical to per-problem [`crate::multiply_mm`] calls,
/// in problem order, and each problem is billed the pass's full modeled
/// cycle count — identical to its solo cost, so closed-form predictions are
/// unchanged.  A cache of capacity 0 makes this a fresh batch solve.
///
/// # Errors
///
/// The errors of [`crate::multiply_mm`] per problem, plus
/// [`sia_sim::SimError::LaneMismatch`] (via [`DbtError::Sim`]) if the
/// problems of a pass do not all share one shape.
pub fn multiply_mm_resident_lanes_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[MmResidentProblem<'_, T>],
) -> Result<(Vec<MmOutcome<T>>, Vec<StagingReport>), DbtError> {
    let mut outcomes = Vec::with_capacity(problems.len());
    let mut reports = vec![StagingReport::default(); problems.len()];
    for (chunk, reports) in problems
        .chunks(crate::MAX_LANES)
        .zip(reports.chunks_mut(crate::MAX_LANES))
    {
        let (schedule, scratch) = mm_pass(station, cache, chunk, reports)?;
        outcomes.extend(schedule.complete(scratch));
    }
    Ok((outcomes, reports))
}

/// One matrix–vector problem of a resident batch, by reference.
#[derive(Debug, Clone, Copy)]
pub struct MvResidentProblem<'a, T: Scalar> {
    /// The matrix `A`.
    pub a: &'a OperandRef<T>,
    /// The vector `x`.
    pub x: &'a [T],
    /// Optional additive vector `b` of `y = A·x + b`.
    pub b: Option<&'a [T]>,
}

impl<'a, T: Scalar> From<MvResidentProblem<'a, T>> for MvLane<'a, T> {
    fn from(p: MvResidentProblem<'a, T>) -> Self {
        MvLane {
            a: (p.a.key(), p.a.matrix()),
            x: p.x,
            b: p.b,
        }
    }
}

/// Computes `y = A·x + b` through the station's resident band cache.
///
/// Bit-identical to [`crate::multiply_mv_on`] for both schedules, including
/// the overlapped schedule's single-block-row fallback (the fallback rule
/// is part of the cache role, so a fallback serve and an overlapped serve
/// never share an artifact by accident).
///
/// # Errors
///
/// The errors of [`crate::multiply_mv`].
pub fn multiply_mv_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    x: &[T],
    b: Option<&[T]>,
    schedule: MvSchedule,
) -> Result<(MvOutcome<T>, StagingReport), DbtError> {
    let problem = MvResidentProblem { a, x, b };
    let (mut outcomes, reports) = mv_lanes(station, cache, &[problem], schedule)?;
    Ok((
        outcomes.pop().expect("one problem, one outcome"),
        reports[0],
    ))
}

/// Computes a batch of **same-shape** `y = A·x + b` products through the
/// resident cache in lane-parallel array passes — the matrix–vector
/// counterpart of [`multiply_mm_resident_lanes_on`], with one
/// [`StagingReport`] per problem.
///
/// # Errors
///
/// The errors of [`crate::multiply_mv_lanes_on`].
pub fn multiply_mv_resident_lanes_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    problems: &[MvResidentProblem<'_, T>],
    schedule: MvSchedule,
) -> Result<(Vec<MvOutcome<T>>, Vec<StagingReport>), DbtError> {
    mv_lanes(station, cache, problems, schedule)
}

/// Computes block-sparse `y = A·x + b` through the station's resident band
/// cache.  Bit-identical to [`crate::sparse::multiply_mv_block_sparse_on`]:
/// the fresh path builds the same artifacts and serves through the same
/// code.
///
/// # Errors
///
/// The errors of [`crate::sparse::multiply_mv_block_sparse`].
pub fn multiply_mv_block_sparse_resident_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    cache: &mut BandCache<T>,
    a: &OperandRef<T>,
    x: &[T],
    b: Option<&[T]>,
) -> Result<(SparseMvOutcome<T>, StagingReport), DbtError> {
    check_cache_w(station, cache);
    let shape = validate_mv_args(a.matrix(), x, b, station.size())?;
    let mut report = StagingReport::default();
    let resident = cache.sparse(a, &mut report)?;
    let outcome = serve_sparse_resident(station, &resident, x, b, shape)?;
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{multiply_mv_block_sparse_on, plan_block_sparse};
    use crate::{multiply_mm_on, multiply_mv_on, validate_mm_args};
    use sia_matrix::gen;

    #[test]
    fn named_and_content_hashed_keys_behave() {
        let m = gen::random_dense_f64(4, 6, 1);
        let named = OperandRef::named(42, m.clone());
        assert_eq!(named.key(), 42);
        assert_eq!(named.matrix(), &m);
        let h1 = OperandRef::content_hashed(m.clone());
        let h2: OperandRef = m.clone().into();
        assert_eq!(h1.key(), h2.key());
        let other = gen::random_dense_f64(4, 6, 2);
        assert_ne!(h1.key(), OperandRef::content_hashed(other).key());
        // Cloning shares the payload.
        let c = named.clone();
        assert!(Arc::ptr_eq(c.shared(), named.shared()));
        assert_eq!(c.rows(), 4); // Deref
    }

    #[test]
    fn resident_mm_serving_is_bit_identical_and_hits_warm() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 6, 4, 11));
        let b = OperandRef::named(2, gen::random_dense_i64(6, 4, 4, 12));
        let fresh = multiply_mm_on(&mut station, a.matrix(), b.matrix(), None).unwrap();
        let (cold, cold_report) = multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None)
            .expect("cold resident serve");
        assert_eq!(cold.c, fresh.c);
        assert_eq!(cold.cycles, fresh.cycles);
        assert_eq!(cold.feedback, fresh.feedback);
        assert_eq!(cold_report.misses, 2);
        assert_eq!(cold_report.hits, 0);
        assert!(!cold_report.operand_hit());
        let shape = validate_mm_args(a.matrix(), b.matrix(), None, w).unwrap();
        assert_eq!(cold_report.staging_cycles, mm_staging_cycles(shape));
        let (warm, warm_report) = multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None)
            .expect("warm resident serve");
        assert_eq!(warm.c, fresh.c);
        assert_eq!(warm.cycles, fresh.cycles);
        assert_eq!(warm_report.hits, 2);
        assert_eq!(warm_report.misses, 0);
        assert_eq!(warm_report.staging_cycles, 0);
        assert!(warm_report.operand_hit());
    }

    #[test]
    fn resident_into_matches_and_reuses_the_output() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 21));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 22));
        let fresh = multiply_mm_on(&mut station, a.matrix(), b.matrix(), None).unwrap();
        let problems = [MmResidentProblem {
            a: &a,
            b: &b,
            e: None,
        }; 3];
        let mut outs: [DenseMatrix<i64>; 3] = std::array::from_fn(|_| DenseMatrix::zeros(1, 1));
        let mut reports = [StagingReport::default(); 3];
        // A cold solo serve, a warm one into the now right-sized output,
        // then a warm three-lane pass.
        for (lanes, misses) in [(1, 2), (1, 0), (3, 0)] {
            let cycles = multiply_mm_resident_into(
                &mut station,
                &mut cache,
                &problems[..lanes],
                &mut outs[..lanes],
                &mut reports[..lanes],
            )
            .unwrap();
            assert_eq!(cycles, fresh.cycles);
            assert!(outs[..lanes].iter().all(|out| *out == fresh.c));
            assert_eq!(reports[0].misses, misses);
        }
        assert!(reports.iter().all(StagingReport::operand_hit));
    }

    #[test]
    fn eviction_recycles_slabs_and_refaults_identically() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        // Capacity 2: each MM pair fills the cache, so alternating pairs
        // evict each other.
        let mut cache = BandCache::new(w, 2);
        let a1 = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 31));
        let b1 = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 32));
        let a2 = OperandRef::named(3, gen::random_dense_i64(4, 4, 4, 33));
        let b2 = OperandRef::named(4, gen::random_dense_i64(4, 4, 4, 34));
        let first = multiply_mm_resident_on(&mut station, &mut cache, &a1, &b1, None)
            .unwrap()
            .0;
        let (_, evict_report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a2, &b2, None).unwrap();
        assert_eq!(evict_report.evictions, 2);
        assert!(evict_report.evicted.contains(&Some(1)));
        assert!(evict_report.evicted.contains(&Some(2)));
        // The evicted bands' storage is pooled and backs the refault.
        assert!(cache.pooled_slabs() > 0);
        let (refault, refault_report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a1, &b1, None).unwrap();
        assert_eq!(refault_report.misses, 2);
        assert_eq!(refault.c, first.c);
        assert_eq!(refault.cycles, first.cycles);
        assert_eq!(refault.feedback, first.feedback);
    }

    #[test]
    fn resident_mv_serving_is_bit_identical_for_both_schedules() {
        let w = 3;
        for schedule in [MvSchedule::Simple, MvSchedule::Overlapped] {
            let mut station = ArrayStation::<i64>::new(w).unwrap();
            let mut cache = BandCache::new(w, 4);
            let a = OperandRef::named(7, gen::random_dense_i64(12, 9, 5, 41));
            let x = gen::random_vector_i64(9, 5, 42);
            let b = gen::random_vector_i64(12, 5, 43);
            let fresh = multiply_mv_on(&mut station, a.matrix(), &x, Some(&b), schedule).unwrap();
            let (cold, cold_report) =
                multiply_mv_resident_on(&mut station, &mut cache, &a, &x, Some(&b), schedule)
                    .unwrap();
            assert_eq!(cold.y, fresh.y, "{schedule:?}");
            assert_eq!(cold.cycles, fresh.cycles, "{schedule:?}");
            assert_eq!(cold.feedback, fresh.feedback, "{schedule:?}");
            let shape = validate_mv_args(a.matrix(), &x, Some(&b), w).unwrap();
            assert_eq!(cold_report.staging_cycles, mv_staging_cycles(shape));
            let (warm, warm_report) =
                multiply_mv_resident_on(&mut station, &mut cache, &a, &x, Some(&b), schedule)
                    .unwrap();
            assert_eq!(warm.y, fresh.y, "{schedule:?}");
            assert_eq!(warm.cycles, fresh.cycles, "{schedule:?}");
            assert!(warm_report.operand_hit(), "{schedule:?}");
        }
    }

    #[test]
    fn resident_sparse_serving_is_bit_identical() {
        let w = 3;
        let mut station = ArrayStation::<f64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 4);
        let matrix = gen::block_sparse_f64(12, 12, w, 0.4, 51);
        let a = OperandRef::named(9, matrix.clone());
        let x = gen::random_vector_f64(12, 52);
        let b = gen::random_vector_f64(12, 53);
        let fresh = multiply_mv_block_sparse_on(&mut station, &matrix, &x, Some(&b)).unwrap();
        let (cold, cold_report) =
            multiply_mv_block_sparse_resident_on(&mut station, &mut cache, &a, &x, Some(&b))
                .unwrap();
        assert_eq!(cold.outcome.y, fresh.outcome.y);
        assert_eq!(cold.outcome.cycles, fresh.outcome.cycles);
        assert_eq!(cold.appended_blocks, fresh.appended_blocks);
        let plan = plan_block_sparse(&matrix, w).unwrap();
        assert_eq!(cold_report.staging_cycles, sparse_staging_cycles(&plan));
        let (warm, warm_report) =
            multiply_mv_block_sparse_resident_on(&mut station, &mut cache, &a, &x, Some(&b))
                .unwrap();
        assert_eq!(warm.outcome.y, fresh.outcome.y);
        assert_eq!(warm.outcome.cycles, fresh.outcome.cycles);
        assert!(warm_report.operand_hit());
    }

    #[test]
    fn disabled_cache_serves_correctly_and_retains_nothing() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 0);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 61));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 62));
        let fresh = multiply_mm_on(&mut station, a.matrix(), b.matrix(), None).unwrap();
        for _ in 0..2 {
            let (outcome, report) =
                multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None).unwrap();
            assert_eq!(outcome.c, fresh.c);
            assert_eq!(report.misses, 2);
            assert_eq!(report.evictions, 0);
            assert!(!report.operand_hit());
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn lanes_resident_serving_matches_solo_and_shares_staging() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let mut cache = BandCache::new(w, 8);
        let a = OperandRef::named(1, gen::random_dense_i64(4, 4, 4, 71));
        let b = OperandRef::named(2, gen::random_dense_i64(4, 4, 4, 72));
        let solo = multiply_mm_on(&mut station, a.matrix(), b.matrix(), None).unwrap();
        let problems = vec![
            MmResidentProblem {
                a: &a,
                b: &b,
                e: None
            };
            3
        ];
        let (outcomes, reports) =
            multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(reports.len(), 3);
        for outcome in &outcomes {
            assert_eq!(outcome.c, solo.c);
            assert_eq!(outcome.cycles, solo.cycles);
        }
        // Lane 0 stages; lanes 1-2 hit what it staged.
        assert_eq!(reports[0].misses, 2);
        assert!(reports[1].operand_hit());
        assert!(reports[2].operand_hit());
    }
}
