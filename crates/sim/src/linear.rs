//! The Kung–Leiserson **linear contraflow array** for band matrix–vector
//! multiplication, simulated cycle by cycle.
//!
//! The array has `w` cells in a row.  The `x` stream enters at the right end
//! and moves left; the `y` stream (each value initialised from its
//! injection — either an element of `b` or a fed-back partial result) enters
//! at the left end and moves right.  Cell `k` holds the coefficient tape of
//! band diagonal `k` (offset `j − i = k`) and fires a multiply–accumulate
//! whenever an `x` value, a `y` value and a coefficient are present
//! simultaneously.  Because the two streams flow against each other, any
//! given cell fires at most every other cycle — the ½ utilization ceiling
//! that the paper's *overlapping* schedule recovers by interleaving a second
//! problem in the idle phase.
//!
//! # Engine architecture
//!
//! The coefficient tapes are never materialised: cell `k` fires for stream
//! `phase`, row `i` exactly at cycle `phase + (w−1) + 2i + k`, so when an
//! `x`/`y` pair meets in a cell the coefficient is read straight out of the
//! band row storage (`BandMatrix::row_slice`) — zero-copy, no per-cycle
//! hashing, no allocation.  Fed-back partial results live in a flat vector
//! indexed by band row.
//!
//! Since the zero-allocation rework the register files are **ring
//! buffers**: an `x` value entering the right end at cycle `τ` keeps slot
//! `τ mod w` for its whole life (it is in cell `w−1−(t−τ)` at cycle `t`),
//! and a `y` value entering the left end at cycle `τ` keeps slot `τ mod w`
//! of the `y` plane (cell `t−τ`), so the per-cycle shift of both streams
//! disappears.  The planes are **struct-of-arrays** (value, occupancy
//! bitmask and index planes); all per-run buffers live in a reusable
//! [`LinearScratch`] that is cleared-not-freed, making
//! [`LinearArray::run_with`] allocation-free once warm; and the cycle loop
//! **fast-forwards** over stretches where both planes are empty straight to
//! the next scheduled injection.  The observable behaviour is bit-identical
//! to the original shift-everything engine.

use crate::plane::{reset_vec, BitPlane};
use crate::report::{FeedbackEvent, FeedbackSummary, Utilization};
use crate::SimError;
use sia_matrix::{BandMatrix, Scalar};
use std::sync::Arc;

/// How one `ŷ` partial result is initialised when it enters the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YInjection<T> {
    /// Start from a literal value (an element of the `b` vector, or zero).
    Value(T),
    /// Start from the partial result produced earlier for `producer_row`,
    /// taken from the array's own feedback path.
    Feedback {
        /// Row index (within the same stream) whose output is re-used.
        producer_row: usize,
    },
}

/// One band matrix–vector problem to be run through the array.
///
/// The band matrix must be an *upper* band (`lower == 0`) with exactly `w`
/// stored diagonals; that is the shape produced by the paper's DBT-by-rows
/// transformation, and also the natural shape for plain upper-band problems.
///
/// The band is shared ([`Arc`]) so streams can be built without cloning the
/// coefficient storage (lane mates and cached bands share it); owned
/// matrices convert with `.into()`.
#[derive(Clone)]
pub struct MvStream<T> {
    /// The band coefficient matrix `Â` (R rows, up to `R + w − 1` columns).
    pub band: Arc<BandMatrix<T>>,
    /// The `x̂` vector; its length must equal `band.cols()`.
    pub x: Vec<T>,
    /// One injection per band row: the initial value of each `ŷ_i`.
    pub y_injections: Vec<YInjection<T>>,
}

impl<T: Scalar> std::fmt::Debug for MvStream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStream")
            .field("band", &self.band)
            .field("x_len", &self.x.len())
            .field("rows", &self.y_injections.len())
            .finish()
    }
}

/// One completed output value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvOutput<T> {
    /// Index of the stream the value belongs to.
    pub stream: usize,
    /// Band row index of the result.
    pub row: usize,
    /// The accumulated value.
    pub value: T,
    /// Cycle at whose end the value left the array.
    pub cycle: usize,
}

/// Result of a linear-array run.
#[derive(Debug, Clone)]
pub struct LinearReport<T> {
    /// All outputs in the order they left the array.
    pub outputs: Vec<MvOutput<T>>,
    /// Cycle in which the final multiply–accumulate fired.
    pub last_fire_cycle: usize,
    /// Total number of array steps, `last_fire_cycle + 1` (the final result
    /// is produced in the boundary cell, so no extra drain cycle is needed).
    pub cycles: usize,
    /// Activity accounting.
    pub utilization: Utilization,
    /// Feedback statistics, one summary per stream.
    pub feedback: Vec<FeedbackSummary>,
}

impl<T: Scalar> LinearReport<T> {
    /// The `ŷ` vector of one stream, ordered by band row.
    pub fn y(&self, stream: usize) -> Vec<T> {
        let mut rows: Vec<(usize, T)> = self
            .outputs
            .iter()
            .filter(|o| o.stream == stream)
            .map(|o| (o.row, o.value))
            .collect();
        rows.sort_by_key(|&(r, _)| r);
        rows.into_iter().map(|(_, v)| v).collect()
    }
}

/// The linear contraflow array itself: `w` identical multiply–accumulate
/// cells.
///
/// # Example
///
/// Running a plain upper-band problem with no feedback:
///
/// ```
/// use sia_matrix::BandMatrix;
/// use sia_sim::{LinearArray, MvStream, YInjection};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = 2;
/// // A 3x4 upper-band matrix with diagonals 0 and 1.
/// let mut band = BandMatrix::<i64>::new(3, 4, 0, 1)?;
/// for i in 0..3 {
///     band.set(i, i, 1)?;
///     band.set(i, i + 1, 2)?;
/// }
/// let x = vec![1, 1, 1, 1];
/// let stream = MvStream {
///     band: band.into(),
///     x,
///     y_injections: vec![YInjection::Value(0); 3],
/// };
/// let report = LinearArray::new(w)?.run(&[stream])?;
/// assert_eq!(report.y(0), vec![3, 3, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearArray {
    w: usize,
}

/// Maximum number of interleaved streams the contraflow timing admits: the
/// base schedule uses every other cycle, so exactly one extra stream fits in
/// the idle phase.
pub const MAX_STREAMS: usize = 2;

/// The reusable per-run workspace of one [`LinearArray`]: the two
/// struct-of-arrays register files (value + occupancy bitmask + index +
/// stream planes), the flat per-stream feedback store and the event/output
/// vectors of the most recent run.
///
/// Buffers are **cleared, not freed**, between runs: after a warm-up run of
/// a given shape, [`LinearArray::run_with`] on the same scratch performs
/// zero heap allocations (asserted by the counting-allocator test in
/// `tests/allocations.rs`).  One scratch lives inside every
/// [`crate::ArrayStation`].
///
/// As in [`crate::HexScratch`], the **value** planes carry a lane
/// dimension (slot `idx` of lane `l` at `idx * lanes + l`) so that
/// [`LinearArray::run_lanes_with`] can execute L same-shape jobs in one
/// pass; all structural planes are shared across lanes and a plain run is
/// the `lanes == 1` case of the same engine.
#[derive(Debug, Clone)]
pub struct LinearScratch<T> {
    // x plane, SoA (ring-addressed, see module docs).  Value planes are
    // lane-strided; occupancy, index and stream planes are shared.
    x_val: Vec<T>,
    x_idx: Vec<u32>,
    x_stream: Vec<u8>,
    x_occ: BitPlane,
    // y plane, SoA.
    y_val: Vec<T>,
    y_idx: Vec<u32>,
    y_stream: Vec<u8>,
    y_occ: BitPlane,
    // Flat feedback store, one slot per band row per stream, SoA, value
    // plane lane-strided.
    fb_val: Vec<T>,
    fb_cycle: Vec<usize>,
    fb_occ: BitPlane,
    fb_base: Vec<usize>,
    fb_events: [Vec<FeedbackEvent>; MAX_STREAMS],
    outputs: Vec<MvOutput<T>>,
    /// Output streams of lanes `1..` (lane 0 uses `outputs`), cleared not
    /// freed.
    extra_outputs: Vec<Vec<MvOutput<T>>>,
    // Results of the last run.
    w: usize,
    n_streams: usize,
    lanes: usize,
    fired: usize,
    last_fire_cycle: usize,
    skipped_cycles: usize,
}

impl<T: Scalar> Default for LinearScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> LinearScratch<T> {
    /// An empty workspace; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        LinearScratch {
            x_val: Vec::new(),
            x_idx: Vec::new(),
            x_stream: Vec::new(),
            x_occ: BitPlane::new(),
            y_val: Vec::new(),
            y_idx: Vec::new(),
            y_stream: Vec::new(),
            y_occ: BitPlane::new(),
            fb_val: Vec::new(),
            fb_cycle: Vec::new(),
            fb_occ: BitPlane::new(),
            fb_base: Vec::new(),
            fb_events: [Vec::new(), Vec::new()],
            outputs: Vec::new(),
            extra_outputs: Vec::new(),
            w: 0,
            n_streams: 0,
            lanes: 1,
            fired: 0,
            last_fire_cycle: 0,
            skipped_cycles: 0,
        }
    }

    /// All outputs of the last run's lane 0, in the order they left the
    /// array.
    pub fn outputs(&self) -> &[MvOutput<T>] {
        &self.outputs
    }

    /// The outputs of lane `lane` of the last run, in the order they left
    /// the array.  `outputs_of(0)` is [`LinearScratch::outputs`]; all lanes
    /// exit in lockstep and share output ordering and cycles.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn outputs_of(&self, lane: usize) -> &[MvOutput<T>] {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        if lane == 0 {
            &self.outputs
        } else {
            &self.extra_outputs[lane - 1]
        }
    }

    /// Number of value lanes of the last run (1 for a plain run).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycle in which the last multiply–accumulate of the last run fired.
    pub fn last_fire_cycle(&self) -> usize {
        self.last_fire_cycle
    }

    /// Total array steps of the last run, `last_fire_cycle + 1`.
    pub fn cycles(&self) -> usize {
        self.last_fire_cycle + 1
    }

    /// Number of multiply–accumulates the last run fired.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Idle cycles the last run fast-forwarded over instead of simulating
    /// (event-driven cycle skipping): prologue, epilogue and gap cycles in
    /// which both register files were empty.  A measure of how much
    /// simulation work the tape-driven engine saved over a naive
    /// cycle-by-cycle scan.
    pub fn skipped_cycles(&self) -> usize {
        self.skipped_cycles
    }

    /// Number of interleaved streams of the last run.
    pub fn streams(&self) -> usize {
        self.n_streams
    }

    /// Activity accounting of the last run.
    pub fn utilization(&self) -> Utilization {
        Utilization {
            pe_count: self.w,
            cycles: self.cycles(),
            fired: self.fired,
        }
    }

    /// The feedback events of stream `stream`, in consumption order.
    pub fn feedback_events(&self, stream: usize) -> &[FeedbackEvent] {
        &self.fb_events[stream]
    }

    /// Builds the per-stream feedback summaries of the last run (clones the
    /// events).
    pub fn feedback_summaries(&self) -> Vec<FeedbackSummary> {
        self.fb_events[..self.n_streams]
            .iter()
            .map(|events| FeedbackSummary::from_events(events.clone()))
            .collect()
    }

    /// Writes the `ŷ` values of `stream` into `out`, indexed by band row,
    /// and returns how many outputs were written.  Rows the run never
    /// produced are left untouched — callers that pre-fill `out` must
    /// check the returned count against the expected row count, or an
    /// incomplete run would read as silent zeros.  This is the
    /// allocation-free counterpart of [`LinearReport::y`] — a single pass
    /// over the output stream, no sort.
    pub fn collect_y_into(&self, stream: usize, out: &mut [T]) -> usize {
        self.collect_y_lane_into(stream, 0, out)
    }

    /// Lane-aware [`LinearScratch::collect_y_into`]: writes the `ŷ` values
    /// of `stream` on lane `lane` into `out` and returns the written count.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn collect_y_lane_into(&self, stream: usize, lane: usize, out: &mut [T]) -> usize {
        let mut written = 0usize;
        for o in self.outputs_of(lane) {
            if o.stream == stream && o.row < out.len() {
                out[o.row] = o.value;
                written += 1;
            }
        }
        written
    }

    /// Copies the last run's results out into an owned [`LinearReport`].
    pub fn report(&self) -> LinearReport<T> {
        LinearReport {
            outputs: self.outputs.clone(),
            last_fire_cycle: self.last_fire_cycle,
            cycles: self.cycles(),
            utilization: self.utilization(),
            feedback: self.feedback_summaries(),
        }
    }
}

impl LinearArray {
    /// Creates an array of `w` cells.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroArraySize`] if `w == 0`.
    pub fn new(w: usize) -> Result<Self, SimError> {
        if w == 0 {
            return Err(SimError::ZeroArraySize);
        }
        Ok(LinearArray { w })
    }

    /// Number of processing elements (`w`).
    pub fn size(&self) -> usize {
        self.w
    }

    fn validate<T: Scalar>(&self, streams: &[MvStream<T>]) -> Result<(), SimError> {
        if streams.len() > MAX_STREAMS {
            return Err(SimError::TooManyStreams {
                max: MAX_STREAMS,
                found: streams.len(),
            });
        }
        for s in streams {
            if s.band.lower() != 0 {
                return Err(SimError::BandProfile {
                    expected: "upper band (no sub-diagonals)",
                    found: (s.band.lower(), s.band.upper()),
                });
            }
            if s.band.bandwidth() != self.w {
                return Err(SimError::BandwidthMismatch {
                    array: self.w,
                    bandwidth: s.band.bandwidth(),
                });
            }
            if s.x.len() != s.band.cols() {
                return Err(SimError::VectorLength {
                    what: "x",
                    expected: s.band.cols(),
                    found: s.x.len(),
                });
            }
            if s.y_injections.len() != s.band.rows() {
                return Err(SimError::VectorLength {
                    what: "y injections",
                    expected: s.band.rows(),
                    found: s.y_injections.len(),
                });
            }
            for inj in &s.y_injections {
                if let YInjection::Feedback { producer_row } = inj {
                    if *producer_row >= s.band.rows() {
                        return Err(SimError::UnknownProducer {
                            producer: (*producer_row, 0),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one or two interleaved streams through the array with a freshly
    /// allocated workspace.
    ///
    /// With two streams, the second is phase-shifted by one cycle and uses
    /// the cell-cycles the first leaves idle — the paper's *overlapping*
    /// schedule.  Steady-state callers reuse a persistent workspace through
    /// [`LinearArray::run_with`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the job is malformed (wrong band profile,
    /// wrong vector lengths, more than [`MAX_STREAMS`] streams) or if a
    /// feedback injection needs a value the array has not produced yet.
    pub fn run<T: Scalar>(&self, streams: &[MvStream<T>]) -> Result<LinearReport<T>, SimError> {
        let mut scratch = LinearScratch::new();
        self.run_with(streams, &mut scratch)?;
        Ok(scratch.report())
    }

    /// Runs one or two interleaved streams, reusing the caller's workspace.
    ///
    /// All per-run buffers live in `scratch` and are cleared-not-freed, so
    /// repeated runs of same-shaped jobs perform **no heap allocation**
    /// after the first.  The results stay readable on the scratch
    /// ([`LinearScratch::outputs`] and friends) until the next run; they are
    /// bit-identical to what [`LinearArray::run`] reports for the same
    /// streams.
    ///
    /// # Errors
    ///
    /// Same as [`LinearArray::run`].  After an error the scratch holds no
    /// meaningful results but stays valid for the next run.
    pub fn run_with<T: Scalar>(
        &self,
        streams: &[MvStream<T>],
        scratch: &mut LinearScratch<T>,
    ) -> Result<(), SimError> {
        self.run_lanes_with(std::slice::from_ref(&streams), scratch)
    }

    /// Checks that a lane batch is well-formed: every job (stream set)
    /// valid on its own, and every job a *shape-mate* of lane 0 — same
    /// stream count, identical band shapes and structurally identical
    /// injection schedules (the injected and streamed *values* are the one
    /// thing allowed to differ between lanes).
    fn validate_lanes<T: Scalar, S: AsRef<[MvStream<T>]>>(
        &self,
        jobs: &[S],
    ) -> Result<(), SimError> {
        let first = jobs
            .first()
            .ok_or(SimError::LaneMismatch {
                lane: 0,
                what: "empty lane batch",
            })?
            .as_ref();
        for (lane, job) in jobs.iter().enumerate() {
            let job = job.as_ref();
            self.validate(job)?;
            if lane == 0 {
                continue;
            }
            if job.len() != first.len() {
                return Err(SimError::LaneMismatch {
                    lane,
                    what: "stream count",
                });
            }
            for (mine, lane0) in job.iter().zip(first) {
                if mine.band.band_shape() != lane0.band.band_shape() {
                    return Err(SimError::LaneMismatch {
                        lane,
                        what: "band shape",
                    });
                }
                let schedule_matches =
                    mine.y_injections
                        .iter()
                        .zip(&lane0.y_injections)
                        .all(|(a, b)| match (a, b) {
                            (YInjection::Value(_), YInjection::Value(_)) => true,
                            (
                                YInjection::Feedback { producer_row: p },
                                YInjection::Feedback { producer_row: q },
                            ) => p == q,
                            _ => false,
                        });
                if !schedule_matches {
                    return Err(SimError::LaneMismatch {
                        lane,
                        what: "y injection schedule",
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs L **same-shape** jobs (each a set of one or two interleaved
    /// streams) through the array in a single lane-parallel pass, reusing
    /// the caller's workspace.
    ///
    /// The injection schedules, occupancy planes, index planes and ring
    /// cursors depend only on the job *shape*, so L shape-mates share one
    /// set; only the value planes carry a lane dimension and every cell
    /// firing updates L accumulators at once.  Lane `l`'s outputs
    /// ([`LinearScratch::outputs_of`]) are **bit-identical** to a solo
    /// [`LinearArray::run_with`] of `jobs[l]`, and the modeled cycle count
    /// (shared by all lanes) is the closed-form count of the common shape.
    ///
    /// # Errors
    ///
    /// Same as [`LinearArray::run`], plus [`SimError::LaneMismatch`] when
    /// the batch is empty or a job is not a shape-mate of lane 0.
    pub fn run_lanes_with<T: Scalar, S: AsRef<[MvStream<T>]>>(
        &self,
        jobs: &[S],
        scratch: &mut LinearScratch<T>,
    ) -> Result<(), SimError> {
        self.validate_lanes(jobs)?;
        let lanes = jobs.len();
        let streams = jobs[0].as_ref();
        let w = self.w;

        // Closed-form coefficient schedule: cell k fires for stream `phase`,
        // band row i, at exactly cycle  phase + (w-1) + 2i + k, and the
        // coefficient is band element (i, i + k) read straight from the row
        // storage — the tape never needs to be materialised.  The last cycle
        // at which any cell could fire bounds the safety net.
        let mut last_fire_possible = 0usize;
        for (phase, s) in streams.iter().enumerate() {
            let rows = s.band.rows();
            let cols = s.band.cols();
            for k in 0..w {
                if k >= cols {
                    continue;
                }
                let i_max = (cols - 1 - k).min(rows - 1);
                last_fire_possible = last_fire_possible.max(phase + (w - 1) + 2 * i_max + k);
            }
        }

        // ---- SoA register files (ring-addressed, cleared not freed) ---------
        reset_vec(&mut scratch.x_val, w * lanes, T::zero());
        reset_vec(&mut scratch.x_idx, w, 0);
        reset_vec(&mut scratch.x_stream, w, 0);
        scratch.x_occ.reset(w);
        reset_vec(&mut scratch.y_val, w * lanes, T::zero());
        reset_vec(&mut scratch.y_idx, w, 0);
        reset_vec(&mut scratch.y_stream, w, 0);
        scratch.y_occ.reset(w);

        // ---- flat feedback store: one slot per band row per stream ----------
        scratch.fb_base.clear();
        let mut total_rows = 0usize;
        for s in streams {
            scratch.fb_base.push(total_rows);
            total_rows += s.band.rows();
        }
        reset_vec(&mut scratch.fb_val, total_rows * lanes, T::zero());
        reset_vec(&mut scratch.fb_cycle, total_rows, 0);
        scratch.fb_occ.reset(total_rows);
        for events in &mut scratch.fb_events {
            events.clear();
        }
        scratch.outputs.clear();
        scratch.outputs.reserve(total_rows);
        if scratch.extra_outputs.len() < lanes - 1 {
            scratch.extra_outputs.resize_with(lanes - 1, Vec::new);
        }
        for extra in &mut scratch.extra_outputs {
            extra.clear();
        }
        for extra in scratch.extra_outputs.iter_mut().take(lanes - 1) {
            extra.reserve(total_rows);
        }
        scratch.w = w;
        scratch.n_streams = streams.len();
        scratch.lanes = lanes;

        let mut x_count = 0usize;
        let mut y_count = 0usize;
        let mut fired = 0usize;
        let mut last_fire_cycle = 0usize;
        let mut skipped = 0usize;
        let mut t = 0usize;

        // The earliest cycle >= t of the arithmetic schedule base + 2i,
        // i < count (the x and y boundary schedules are both of this form).
        let next_in_schedule = |base: usize, count: usize, t: usize| -> Option<usize> {
            if count == 0 {
                return None;
            }
            if t <= base {
                return Some(base);
            }
            let i = (t - base).div_ceil(2);
            (i < count).then_some(base + 2 * i)
        };

        let LinearScratch {
            x_val,
            x_idx,
            x_stream,
            x_occ,
            y_val,
            y_idx,
            y_stream,
            y_occ,
            fb_val,
            fb_cycle,
            fb_occ,
            fb_base,
            fb_events,
            outputs,
            extra_outputs,
            ..
        } = scratch;

        // Ring cursor: tm = t mod w, maintained incrementally so the hot
        // loop never divides (a division only happens after a skip jump).
        let mut tm = 0usize;
        let wrap_w = |x: usize| if x >= w { x - w } else { x };

        while outputs.len() < total_rows {
            // 0. Event-driven cycle skipping: with both register files empty
            //    nothing can fire or exit, so fast-forward to the next
            //    scheduled boundary injection (idle prologue/epilogue/gap
            //    cycles cost nothing; step accounting derives from the last
            //    firing cycle, which idle cycles do not move).
            if x_count == 0 && y_count == 0 {
                let next = streams
                    .iter()
                    .enumerate()
                    .flat_map(|(phase, s)| {
                        [
                            next_in_schedule(phase, s.x.len(), t),
                            next_in_schedule(phase + w - 1, s.band.rows(), t),
                        ]
                    })
                    .flatten()
                    .min();
                match next {
                    Some(next_t) => {
                        if next_t != t {
                            skipped += next_t - t;
                            t = next_t;
                            tm = t % w;
                        }
                    }
                    // No further injection is scheduled and nothing is in
                    // flight: no output can ever appear.
                    None => break,
                }
            }

            // 1. Injections at the array boundaries.  Ring addressing puts
            //    both entry cells on slot t mod w; the x slot being recycled
            //    is exactly the slot whose occupant fell off the left end.
            let slot = tm;
            if x_occ.take(slot) {
                x_count -= 1;
            }
            for (phase, s) in streams.iter().enumerate() {
                // x_j enters the rightmost cell at cycle  phase + 2 j.
                if t >= phase && (t - phase).is_multiple_of(2) {
                    let j = (t - phase) / 2;
                    if j < s.x.len() {
                        let base = slot * lanes;
                        x_val[base] = s.x[j];
                        for (lane, mate) in jobs.iter().enumerate().skip(1) {
                            x_val[base + lane] = mate.as_ref()[phase].x[j];
                        }
                        x_idx[slot] = j as u32;
                        x_stream[slot] = phase as u8;
                        if !x_occ.set(slot) {
                            x_count += 1;
                        }
                    }
                }
                // ŷ_i enters the leftmost cell at cycle  phase + (w-1) + 2 i.
                // Every lane resolves from the same source kind (a literal
                // of its own schedule, or the shared-position feedback
                // store) at its own lane offset.
                if t >= phase + w - 1 && (t - phase - (w - 1)).is_multiple_of(2) {
                    let i = (t - phase - (w - 1)) / 2;
                    if i < s.band.rows() {
                        let base = slot * lanes;
                        match s.y_injections[i] {
                            YInjection::Value(_) => {
                                for (lane, mate) in jobs.iter().enumerate() {
                                    if let YInjection::Value(v) =
                                        mate.as_ref()[phase].y_injections[i]
                                    {
                                        y_val[base + lane] = v;
                                    }
                                }
                            }
                            YInjection::Feedback { producer_row } => {
                                let pidx = fb_base[phase] + producer_row;
                                if !fb_occ.get(pidx) {
                                    return Err(SimError::FeedbackNotReady {
                                        producer: (producer_row, 0),
                                        needed_at: t,
                                    });
                                }
                                let produced_at = fb_cycle[pidx];
                                if produced_at >= t {
                                    return Err(SimError::FeedbackNotReady {
                                        producer: (producer_row, 0),
                                        needed_at: t,
                                    });
                                }
                                fb_events[phase].push(FeedbackEvent {
                                    producer: (producer_row, 0),
                                    consumer: (i, 0),
                                    produced_at,
                                    consumed_at: t,
                                });
                                y_val[base..base + lanes]
                                    .copy_from_slice(&fb_val[pidx * lanes..(pidx + 1) * lanes]);
                            }
                        }
                        y_idx[slot] = i as u32;
                        y_stream[slot] = phase as u8;
                        if !y_occ.set(slot) {
                            y_count += 1;
                        }
                    }
                }
            }

            // 2. Compute: each cell with x, y and a coefficient fires.  The
            //    x value of cell k lives in ring slot (t+k+1) mod w, the y
            //    value in slot (t-k) mod w; a y value in cell k at cycle t is
            //    there exactly at its firing cycle, so the coefficient exists
            //    iff column i + k is inside the band row — read zero-copy
            //    from the row slice.  The scan walks the occupied y slots a
            //    `u64` word at a time and recovers the cell from the slot:
            //    ys = (t - k) mod w  ⇒  k = (tm - ys) mod w.
            for ys in y_occ.ones_in_range(0, w) {
                let k = if tm >= ys { tm - ys } else { tm + w - ys };
                let xs = wrap_w(wrap_w(tm + 1) + k);
                if x_occ.get(xs) {
                    let phase = y_stream[ys] as usize;
                    let s = &streams[phase];
                    let i = y_idx[ys] as usize;
                    if i + k < s.band.cols() {
                        debug_assert_eq!(
                            x_stream[xs], y_stream[ys],
                            "streams must not mix inside a cell"
                        );
                        debug_assert_eq!(
                            x_idx[xs] as usize,
                            i + k,
                            "contraflow schedule must pair x_(i+k) with y_i in cell k"
                        );
                        if lanes == 1 {
                            y_val[ys] += s.band.row_slice(i)[k] * x_val[xs];
                        } else {
                            // Coefficients are gathered per lane (each job
                            // owns its own band storage), so the multiply
                            // stays scalar here; the accumulate below is
                            // still one contiguous lane block per cell.
                            for (lane, mate) in jobs.iter().enumerate() {
                                let a = mate.as_ref()[phase].band.row_slice(i)[k];
                                y_val[ys * lanes + lane] += a * x_val[xs * lanes + lane];
                            }
                        }
                        fired += 1;
                        last_fire_cycle = t;
                    }
                }
            }

            // 3. Shift: the rings absorb the movement; only the y exit at
            //    the right end needs work (x values are recycled by the
            //    injection step when their slot comes round again).
            //    (t - (w - 1)) mod w == (tm + 1) mod w.
            let exit = wrap_w(tm + 1);
            if y_occ.take(exit) {
                y_count -= 1;
                let stream = y_stream[exit] as usize;
                let row = y_idx[exit] as usize;
                let base = exit * lanes;
                outputs.push(MvOutput {
                    stream,
                    row,
                    value: y_val[base],
                    cycle: t,
                });
                for (lane, extra) in extra_outputs.iter_mut().take(lanes - 1).enumerate() {
                    extra.push(MvOutput {
                        stream,
                        row,
                        value: y_val[base + 1 + lane],
                        cycle: t,
                    });
                }
                let fidx = fb_base[stream] + row;
                fb_val[fidx * lanes..(fidx + 1) * lanes]
                    .copy_from_slice(&y_val[base..base + lanes]);
                fb_cycle[fidx] = t;
                fb_occ.set(fidx);
            }

            t += 1;
            tm = wrap_w(tm + 1);
            // Safety net: a malformed schedule must not loop forever.
            if t > 4 * (last_fire_possible + 2 * w + 4) {
                break;
            }
        }

        scratch.fired = fired;
        scratch.last_fire_cycle = last_fire_cycle;
        scratch.skipped_cycles = skipped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::{gen, DenseMatrix};

    /// Builds an upper-band matrix of width `w` from a dense matrix that is
    /// already banded, plus the x vector, and runs it without feedback.
    fn run_plain(dense: &DenseMatrix<i64>, w: usize, x: &[i64]) -> LinearReport<i64> {
        let band = BandMatrix::try_from_dense(dense, 0, w - 1).unwrap();
        let stream = MvStream {
            band: band.into(),
            x: x.to_vec(),
            y_injections: vec![YInjection::Value(0); dense.rows()],
        };
        LinearArray::new(w).unwrap().run(&[stream]).unwrap()
    }

    fn upper_band_dense(rows: usize, cols: usize, w: usize, seed: u64) -> DenseMatrix<i64> {
        let full = gen::random_dense_i64(rows, cols, 5, seed);
        DenseMatrix::from_fn(rows, cols, |i, j| {
            if j >= i && j < i + w {
                full.at(i, j)
            } else {
                0
            }
        })
    }

    #[test]
    fn rejects_zero_size() {
        assert_eq!(LinearArray::new(0).unwrap_err(), SimError::ZeroArraySize);
    }

    #[test]
    fn plain_band_mv_matches_dense_reference() {
        for (rows, w, seed) in [(4usize, 2usize, 1u64), (6, 3, 2), (9, 4, 3), (5, 1, 4)] {
            let cols = rows + w - 1;
            let dense = upper_band_dense(rows, cols, w, seed);
            let x = gen::random_vector_i64(cols, 4, seed + 100);
            let report = run_plain(&dense, w, &x);
            assert_eq!(report.y(0), dense.matvec(&x).unwrap(), "rows={rows} w={w}");
        }
    }

    #[test]
    fn square_band_matrix_is_supported() {
        // cols == rows (no trailing partial columns) must also work.
        let w = 3;
        let dense = upper_band_dense(7, 7, w, 9);
        let x = gen::random_vector_i64(7, 3, 11);
        let report = run_plain(&dense, w, &x);
        assert_eq!(report.y(0), dense.matvec(&x).unwrap());
    }

    #[test]
    fn cycle_count_matches_contraflow_formula() {
        // For a full upper band with R rows and R+w-1 columns the run takes
        // exactly 2R + 2w - 3 steps.
        for (rows, w) in [(6usize, 3usize), (8, 2), (12, 4), (3, 3), (10, 1)] {
            let cols = rows + w - 1;
            let dense =
                DenseMatrix::from_fn(rows, cols, |i, j| if j >= i && j < i + w { 1 } else { 0 });
            let x = vec![1i64; cols];
            let report = run_plain(&dense, w, &x);
            assert_eq!(report.cycles, 2 * rows + 2 * w - 3, "rows={rows} w={w}");
            assert_eq!(report.utilization.fired, rows * w);
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_runs() {
        let w = 3;
        let array = LinearArray::new(w).unwrap();
        let mut scratch = LinearScratch::new();
        for seed in 0..6u64 {
            let rows = 3 + seed as usize % 4;
            let cols = rows + w - 1;
            let dense = upper_band_dense(rows, cols, w, 500 + seed);
            let x = gen::random_vector_i64(cols, 4, 600 + seed);
            let mut injections = vec![YInjection::Value(seed as i64); rows];
            if rows > 3 {
                injections[3] = YInjection::Feedback { producer_row: 0 };
            }
            let stream = MvStream {
                band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
                x,
                y_injections: injections,
            };
            let streams = vec![stream];
            let fresh = array.run(&streams).unwrap();
            array.run_with(&streams, &mut scratch).unwrap();
            assert_eq!(scratch.outputs(), &fresh.outputs[..], "seed {seed}");
            assert_eq!(scratch.cycles(), fresh.cycles);
            assert_eq!(scratch.utilization(), fresh.utilization);
            assert_eq!(scratch.feedback_summaries(), fresh.feedback);
            let mut y = vec![0i64; rows];
            scratch.collect_y_into(0, &mut y);
            assert_eq!(y, fresh.y(0));
        }
    }

    #[test]
    fn b_vector_injections_are_added() {
        let w = 2;
        let dense = upper_band_dense(4, 5, w, 21);
        let x = gen::random_vector_i64(5, 3, 22);
        let b = gen::random_vector_i64(4, 3, 23);
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        let stream = MvStream {
            band: band.into(),
            x: x.clone(),
            y_injections: b.iter().map(|&v| YInjection::Value(v)).collect(),
        };
        let report = LinearArray::new(w).unwrap().run(&[stream]).unwrap();
        let expected: Vec<i64> = dense
            .matvec(&x)
            .unwrap()
            .iter()
            .zip(&b)
            .map(|(&y, &bv)| y + bv)
            .collect();
        assert_eq!(report.y(0), expected);
    }

    #[test]
    fn feedback_chains_partial_results() {
        // Row 3 continues the accumulation started by row 0 (producer) —
        // the same pattern DBT-by-rows uses between consecutive row blocks.
        let w = 3;
        let rows = 6;
        let cols = rows + w - 1;
        let dense = upper_band_dense(rows, cols, w, 31);
        let x = gen::random_vector_i64(cols, 3, 32);
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        let mut injections = vec![YInjection::Value(0); rows];
        injections[3] = YInjection::Feedback { producer_row: 0 };
        let stream = MvStream {
            band: band.into(),
            x: x.clone(),
            y_injections: injections,
        };
        let report = LinearArray::new(w).unwrap().run(&[stream]).unwrap();
        let plain = dense.matvec(&x).unwrap();
        let y = report.y(0);
        assert_eq!(y[0], plain[0]);
        assert_eq!(y[3], plain[3] + plain[0]);
        assert_eq!(y[5], plain[5]);
        // The feedback value for row r+w is stored for exactly w cycles.
        let summary = &report.feedback[0];
        assert_eq!(summary.len(), 1);
        assert_eq!(summary.events[0].storage_cycles(), w);
        assert_eq!(summary.max_in_flight, 1);
    }

    #[test]
    fn feedback_from_a_later_row_is_rejected() {
        let w = 2;
        let dense = upper_band_dense(4, 5, w, 41);
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        let mut injections = vec![YInjection::Value(0); 4];
        injections[1] = YInjection::Feedback { producer_row: 3 };
        let stream = MvStream {
            band: band.into(),
            x: vec![1; 5],
            y_injections: injections,
        };
        let err = LinearArray::new(w).unwrap().run(&[stream]).unwrap_err();
        assert!(matches!(err, SimError::FeedbackNotReady { .. }));
    }

    #[test]
    fn unknown_feedback_producer_is_rejected() {
        let w = 2;
        let dense = upper_band_dense(3, 4, w, 43);
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        let stream = MvStream {
            band: band.into(),
            x: vec![1; 4],
            y_injections: vec![
                YInjection::Value(0),
                YInjection::Feedback { producer_row: 99 },
                YInjection::Value(0),
            ],
        };
        let err = LinearArray::new(w).unwrap().run(&[stream]).unwrap_err();
        assert!(matches!(err, SimError::UnknownProducer { .. }));
    }

    #[test]
    fn malformed_jobs_are_rejected() {
        let w = 3;
        let dense = upper_band_dense(4, 6, w, 44);
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        let good = MvStream {
            band: band.into(),
            x: vec![1; 6],
            y_injections: vec![YInjection::Value(0); 4],
        };
        let array = LinearArray::new(w).unwrap();

        // Wrong bandwidth.
        let err = LinearArray::new(w + 1)
            .unwrap()
            .run(std::slice::from_ref(&good))
            .unwrap_err();
        assert!(matches!(err, SimError::BandwidthMismatch { .. }));

        // Lower band instead of upper.
        let lower = BandMatrix::<i64>::new(4, 4, w - 1, 0).unwrap();
        let err = array
            .run(&[MvStream {
                band: lower.into(),
                x: vec![1; 4],
                y_injections: vec![YInjection::Value(0); 4],
            }])
            .unwrap_err();
        assert!(matches!(err, SimError::BandProfile { .. }));

        // Wrong x length.
        let err = array
            .run(&[MvStream {
                x: vec![1; 3],
                ..good.clone()
            }])
            .unwrap_err();
        assert!(matches!(err, SimError::VectorLength { what: "x", .. }));

        // Wrong injection count.
        let err = array
            .run(&[MvStream {
                y_injections: vec![YInjection::Value(0); 2],
                ..good.clone()
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::VectorLength {
                what: "y injections",
                ..
            }
        ));

        // Too many streams.
        let err = array.run(&[good.clone(), good.clone(), good]).unwrap_err();
        assert!(matches!(err, SimError::TooManyStreams { .. }));
    }

    #[test]
    fn two_streams_share_the_array_without_interference() {
        let w = 3;
        let rows = 6;
        let cols = rows + w - 1;
        let d0 = upper_band_dense(rows, cols, w, 51);
        let d1 = upper_band_dense(rows, cols, w, 52);
        let x0 = gen::random_vector_i64(cols, 3, 53);
        let x1 = gen::random_vector_i64(cols, 3, 54);
        let mk = |d: &DenseMatrix<i64>, x: &Vec<i64>| MvStream {
            band: BandMatrix::try_from_dense(d, 0, w - 1).unwrap().into(),
            x: x.clone(),
            y_injections: vec![YInjection::Value(0); rows],
        };
        let report = LinearArray::new(w)
            .unwrap()
            .run(&[mk(&d0, &x0), mk(&d1, &x1)])
            .unwrap();
        assert_eq!(report.y(0), d0.matvec(&x0).unwrap());
        assert_eq!(report.y(1), d1.matvec(&x1).unwrap());
        // Overlapping doubles the work done in (almost) the same time:
        // one stream alone takes 2R+2w-3; two interleaved take one more.
        assert_eq!(report.cycles, 2 * rows + 2 * w - 3 + 1);
        assert_eq!(report.utilization.fired, 2 * rows * w);
    }

    #[test]
    fn single_cell_array_behaves_like_a_scalar_pipeline() {
        // w = 1: the "band" is just the main diagonal.
        let dense = DenseMatrix::from_fn(4, 4, |i, j| if i == j { (i + 2) as i64 } else { 0 });
        let x = vec![1, 2, 3, 4];
        let report = run_plain(&dense, 1, &x);
        assert_eq!(report.y(0), vec![2, 6, 12, 20]);
        assert_eq!(report.cycles, 2 * 4 + 2 - 3);
    }

    #[test]
    fn utilization_activity_approaches_one_half() {
        let w = 4;
        let rows = 64;
        let cols = rows + w - 1;
        let dense =
            DenseMatrix::from_fn(rows, cols, |i, j| if j >= i && j < i + w { 1 } else { 0 });
        let report = run_plain(&dense, w, &vec![1i64; cols]);
        let activity = report.utilization.activity();
        assert!(activity > 0.45 && activity <= 0.5, "activity = {activity}");
    }

    #[test]
    fn lane_parallel_runs_are_bit_identical_to_solo_runs() {
        let w = 3;
        let rows = 6;
        let cols = rows + w - 1;
        let array = LinearArray::new(w).unwrap();
        // Two interleaved streams per job; stream 0 carries a feedback
        // injection so lanes exercise the lane-strided feedback store too.
        let mk_job = |seed: u64| -> Vec<MvStream<i64>> {
            (0..2u64)
                .map(|phase| {
                    let dense = upper_band_dense(rows, cols, w, 300 + 10 * seed + phase);
                    let x = gen::random_vector_i64(cols, 3, 400 + 10 * seed + phase);
                    let mut injections: Vec<YInjection<i64>> = (0..rows)
                        .map(|i| YInjection::Value(seed as i64 + i as i64))
                        .collect();
                    if phase == 0 {
                        injections[3] = YInjection::Feedback { producer_row: 0 };
                    }
                    MvStream {
                        band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
                        x,
                        y_injections: injections,
                    }
                })
                .collect()
        };
        let mut scratch = LinearScratch::new();
        for lanes in [1usize, 2, 3, 5, 8] {
            let jobs: Vec<Vec<MvStream<i64>>> = (0..lanes as u64).map(mk_job).collect();
            array.run_lanes_with(&jobs, &mut scratch).unwrap();
            assert_eq!(scratch.lanes(), lanes);
            for (lane, job) in jobs.iter().enumerate() {
                let solo = array.run(job).unwrap();
                assert_eq!(
                    scratch.outputs_of(lane),
                    &solo.outputs[..],
                    "lanes={lanes} lane={lane}"
                );
                assert_eq!(scratch.cycles(), solo.cycles);
                assert_eq!(scratch.utilization(), solo.utilization);
                let mut y = vec![0i64; rows];
                scratch.collect_y_lane_into(0, lane, &mut y);
                assert_eq!(y, solo.y(0));
            }
        }
    }

    #[test]
    fn mismatched_lane_batches_are_rejected() {
        let w = 3;
        let rows = 6;
        let cols = rows + w - 1;
        let array = LinearArray::new(w).unwrap();
        let mut scratch = LinearScratch::new();
        let mk = |seed: u64, rows: usize, cols: usize| -> Vec<MvStream<i64>> {
            let dense = upper_band_dense(rows, cols, w, seed);
            vec![MvStream {
                band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
                x: gen::random_vector_i64(cols, 3, seed + 1),
                y_injections: vec![YInjection::Value(0); rows],
            }]
        };

        let empty: Vec<Vec<MvStream<i64>>> = Vec::new();
        assert_eq!(
            array.run_lanes_with(&empty, &mut scratch).unwrap_err(),
            SimError::LaneMismatch {
                lane: 0,
                what: "empty lane batch"
            }
        );

        // Shape mismatch against lane 0.
        let err = array
            .run_lanes_with(
                &[mk(80, rows, cols), mk(81, rows + 1, cols + 1)],
                &mut scratch,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::LaneMismatch {
                lane: 1,
                what: "band shape"
            }
        );

        // Same shape but a diverging injection schedule.
        let mut odd = mk(82, rows, cols);
        odd[0].y_injections[2] = YInjection::Feedback { producer_row: 0 };
        let err = array
            .run_lanes_with(&[mk(83, rows, cols), odd], &mut scratch)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::LaneMismatch {
                lane: 1,
                what: "y injection schedule"
            }
        );

        // A well-formed pair still runs, and literal payloads may differ.
        array
            .run_lanes_with(&[mk(84, rows, cols), mk(85, rows, cols)], &mut scratch)
            .unwrap();
        assert_eq!(scratch.outputs(), scratch.outputs_of(0));
    }
}
