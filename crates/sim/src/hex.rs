//! The Kung–Leiserson **hexagonal array** for band matrix–matrix
//! multiplication, simulated cycle by cycle.
//!
//! The array is a `w × w` rhombus of cells indexed `(α, β)`.  Cell `(α, β)`
//! is responsible for the products `a_{ik} · b_{kj}` with `α = k − i` and
//! `β = k − j`; the result element `c_{ij}` therefore accumulates along the
//! diagonal `α − β = j − i` of the grid.  Three data planes move through the
//! array every cycle:
//!
//! * the `a` plane enters at the `β = w−1` edge and moves toward `β = 0`,
//! * the `b` plane enters at the `α = w−1` edge and moves toward `α = 0`,
//! * the `c` plane enters at the `α = 0` / `β = 0` edges and moves toward
//!   `(α+1, β+1)`, leaving at the opposite edges.
//!
//! Consecutive elements of any one stream are three cycles apart, so each
//! cell fires at most once every three cycles — the ⅓ utilization ceiling
//! of the paper's matrix–matrix analysis.
//!
//! Result values that must be accumulated further (the partial results of
//! the paper's transformed problem) are re-injected through the spiral
//! feedback: a [`CInjection::Feedback`] entry names the earlier output the
//! new value continues from, and the engine records the delay and storage
//! the wiring would need.
//!
//! # Engine architecture
//!
//! The engine is **tape-driven**: every boundary schedule has closed-form
//! entry cycles (`a_{ik}` at `i + 2k`, `b_{kj}` at `j + 2k`, `c_{ij}` at
//! `i + j + max(i, j) + w − 1`), so injections are precomputed into dense
//! per-cycle tapes (`crate::tape`) — the per-cycle work is a slice walk,
//! never a hash lookup.  The tapes carry **no values**: an `a`/`b` entry
//! names the band-storage slot of its element ([`BandMatrix::storage`]) and
//! a literal `c` entry names the schedule entry it starts from, so each lane
//! reads its value straight from its own band or schedule at the entry
//! cycle.  The tapes are therefore a function of the job *structure* alone
//! (`w`, both band shapes, the schedule up to its literal values), and a
//! scratch that runs the same structure again reuses the tapes of its last
//! run instead of rebuilding them.
//!
//! The array is data-oblivious, so the exit order and the feedback events
//! follow from the tapes too: the first successful run on a set of tapes
//! **records** them, later runs on those tapes keep them, and a rebuild or a
//! failed run discards them.  Every pass still runs the whole cycle loop.
//!
//! The three register planes are stored as **ring buffers** whose
//! addressing absorbs the dataflow: a value keeps its slot for its whole
//! life (`a`/`b`: slot `(edge + t) mod w` per lane; `c`: one ring per
//! result diagonal), so the per-cycle plane shift of a naive RTL simulator
//! disappears entirely.  The compute scan visits only the
//! **anti-diagonal wavefront**: cell `(α, β)` can fire at cycle `t` only
//! when `3 | (t − w + 1 + α + β)`, so for each `α` the scan steps `β` by 3
//! and two thirds of the cells are skipped without being touched.  Exits
//! park their lane blocks in a flat store indexed by result-band offset.
//!
//! Since the zero-allocation rework, every per-run buffer lives in a
//! reusable [`HexScratch`] workspace that is **cleared, not freed**, between
//! runs (the feedback store's value planes only grow; its occupancy plane is
//! cleared): [`HexArray::run_with`] performs no heap allocation once the
//! scratch is warm.  The register planes are **struct-of-arrays** (value planes,
//! occupancy bitmask planes and index planes, see `crate::plane`) so the
//! wavefront scan tests one occupancy bit per cell instead of matching
//! `Option` discriminants, and the cycle loop **fast-forwards** over idle
//! stretches: whenever all three planes are empty, `t` jumps straight to the
//! next tape event.  The observable behaviour — outputs, ordering, cycle
//! counts, utilization and feedback statistics — is bit-identical to the
//! original shift-everything engine; the equivalence suite in
//! `tests/properties.rs` holds it to the paper's closed forms.

use crate::plane::{mac_lanes, reset_vec, BitPlane};
use crate::report::{FeedbackEvent, FeedbackSummary, Utilization};
use crate::tape::Tape;
use crate::SimError;
use sia_matrix::{BandMatrix, BandShape, DenseMatrix, Scalar};
use std::sync::Arc;

/// How one result element is initialised when it enters the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CInjection<T> {
    /// Start from a literal value (an element of `E` in `C = A·B + E`,
    /// or zero).
    Value(T),
    /// Continue the accumulation of the output previously produced at
    /// `producer` (a `(row, col)` position of the result band).
    Feedback {
        /// Position whose output value is re-used.
        producer: (usize, usize),
    },
}

/// A shared `(position, injection)` schedule: how each result position is
/// initialised.  Behind an [`Arc`] so lane-parallel schedule mates can
/// share one list — the engine and the validators shortcut on pointer
/// equality.
pub type CInjectionSchedule<T> = Arc<Vec<InjectionEntry<T>>>;

/// One entry of a [`CInjectionSchedule`]: a result position and how it
/// starts.
type InjectionEntry<T> = ((usize, usize), CInjection<T>);

/// One band matrix–matrix multiplication job.
///
/// The operands are shared ([`Arc`]) so that jobs can be constructed without
/// cloning band storage (lane mates and cached bands share them); owned
/// matrices convert implicitly through [`HexJob::product`] or `.into()`.
#[derive(Clone)]
pub struct HexJob<T> {
    /// Left operand: an upper band matrix (`lower == 0`, bandwidth ≤ `w`).
    pub a: Arc<BandMatrix<T>>,
    /// Right operand: a lower band matrix (`upper == 0`, bandwidth ≤ `w`).
    pub b: Arc<BandMatrix<T>>,
    /// Initial values for result positions, as a flat `(position, injection)`
    /// list.  Positions not mentioned start from zero; when a position
    /// appears more than once the **last** entry wins (the list replaces the
    /// `HashMap` of earlier versions, whose insert had the same semantics —
    /// a flat list costs no hashing when the solvers build thousands of
    /// injections per job).  It is walked when the injection tape is built
    /// (or compared with the schedule of the scratch's tapes); inside the
    /// cycle loop only a literal's own entry is read, at its entry cycle.
    pub c_injections: CInjectionSchedule<T>,
}

impl<T: Scalar> std::fmt::Debug for HexJob<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HexJob")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("c_injections", &self.c_injections.len())
            .finish()
    }
}

impl<T: Scalar> HexJob<T> {
    /// Convenience constructor for a plain `C = A·B` job (all result
    /// positions start from zero).
    pub fn product(a: impl Into<Arc<BandMatrix<T>>>, b: impl Into<Arc<BandMatrix<T>>>) -> Self {
        HexJob {
            a: a.into(),
            b: b.into(),
            c_injections: Arc::new(Vec::new()),
        }
    }
}

/// One completed result element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutput<T> {
    /// Row of the result element.
    pub row: usize,
    /// Column of the result element.
    pub col: usize,
    /// Accumulated value (injection plus all products).
    pub value: T,
    /// Cycle at whose end the value left the array.
    pub cycle: usize,
}

/// Result of a hexagonal-array run.
#[derive(Debug, Clone)]
pub struct HexReport<T> {
    /// All outputs in the order they left the array.
    pub outputs: Vec<CellOutput<T>>,
    /// Cycle in which the final multiply–accumulate fired.
    pub last_fire_cycle: usize,
    /// Total number of array steps: `last_fire_cycle + 2` (one extra cycle
    /// latches the final value out of the array boundary).
    pub cycles: usize,
    /// Activity accounting.
    pub utilization: Utilization,
    /// Feedback statistics.
    pub feedback: FeedbackSummary,
}

impl<T: Scalar> HexReport<T> {
    /// Looks up the output value at result position `(i, j)`, if that
    /// position was produced.
    ///
    /// This is a linear scan; callers that read many positions should read
    /// [`HexScratch::lane_values`] instead (the `sia-dbt` solvers do).
    pub fn value(&self, i: usize, j: usize) -> Option<T> {
        self.outputs
            .iter()
            .find(|o| o.row == i && o.col == j)
            .map(|o| o.value)
    }

    /// Assembles the raw output stream into a dense matrix of the given
    /// shape (positions never produced stay zero).
    ///
    /// Note that when feedback is used the value at a position is the
    /// *accumulated partial result* as it left the array — the caller
    /// decides which positions carry final results.
    pub fn to_dense(&self, rows: usize, cols: usize) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(rows, cols);
        for o in &self.outputs {
            if o.row < rows && o.col < cols {
                m[(o.row, o.col)] = o.value;
            }
        }
        m
    }
}

/// How a `c` entry on the tape starts.  The tape carries no values: at the
/// entry cycle every lane resolves the same source — zero, the literal of
/// schedule entry `idx` in its own schedule (the position's last entry, so
/// later duplicates win), or its own output of the producer `(row, col)`.
/// Narrow fields keep the tape, which is read afresh every pass, compact.
#[derive(Debug, Clone, Copy)]
enum PendingC {
    Zero,
    Literal(u32),
    Feedback(u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct CEntry {
    i: u32,
    j: u32,
    pending: PendingC,
}

/// An `a`- or `b`-plane tape entry: element `(row, col)` of its band and
/// its slot in the band's storage ([`BandMatrix::storage`]), which is the
/// same in every band of one shape.
#[derive(Debug, Clone, Copy)]
struct OperandTag {
    row: u32,
    col: u32,
    slot: u32,
}

/// One recorded exit: result position `(row, col)` left the array at the
/// end of `cycle`.  Its value stays in the feedback store.
#[derive(Debug, Clone, Copy)]
struct Exit {
    row: u32,
    col: u32,
    cycle: u32,
}

/// The structure a scratch's tapes were built for.
#[derive(Debug, Clone)]
struct TapeKey<T> {
    w: usize,
    a: BandShape,
    b: BandShape,
    /// Held, not just compared: while the scratch owns a reference, no
    /// other list can take its address and `Arc::make_mut` on a caller's
    /// copy clones it, so pointer equality proves an identical schedule.
    schedule: CInjectionSchedule<T>,
}

/// The reusable per-run workspace of one [`HexArray`]: injection tapes,
/// struct-of-arrays register planes (value + occupancy bitmask + index
/// planes), the flat feedback store, and the structural records (exit list
/// and feedback events) of the tapes.
///
/// Buffers are **cleared, not freed**, between runs (the feedback store's
/// value planes only grow, guarded by its occupancy plane): after a warm-up
/// run of a given shape, [`HexArray::run_with`] on the same scratch
/// performs zero heap allocations (asserted by the counting-allocator test
/// in `tests/allocations.rs`).  One scratch lives inside every
/// [`crate::ArrayStation`], which is how the serving runtime reaches the
/// allocation-free steady state.
///
/// The value-free tapes are **kept across runs**: a run with the last run's
/// structure (`w`, both band shapes, the injection schedule up to its
/// literal values) reuses them, any other run rebuilds them in place; the
/// exit and feedback records of the tapes are kept with them.
///
/// The **value** planes carry a lane dimension (slot `idx` of lane `l`
/// lives at `idx * lanes + l`): a lane-parallel run
/// ([`HexArray::run_lanes_with`]) executes L same-shape jobs in one array
/// pass, sharing every structural plane (tapes, occupancy, indices,
/// cursors, records) across the lanes.  An operand band or schedule that
/// every lane holds (one `Arc`) is read once per injection and filled
/// across the lane block.  A plain [`HexArray::run_with`] is the
/// `lanes == 1` special case of the same engine.
///
/// The results of the last successful run stay readable on the scratch
/// ([`HexScratch::outputs`], [`HexScratch::outputs_of`],
/// [`HexScratch::lane_values`], [`HexScratch::cycles`], …) until the next
/// run overwrites them.
#[derive(Debug, Clone)]
pub struct HexScratch<T> {
    a_tape: Tape<OperandTag>,
    b_tape: Tape<OperandTag>,
    c_tape: Tape<CEntry>,
    /// The structure of the tapes; `None` until built.
    tape_key: Option<TapeKey<T>>,
    /// Tape-build buffer: per result-band position, the index of its last
    /// schedule entry (`u32::MAX` for none).
    winner_at: Vec<u32>,
    // a plane, SoA: value / occupancy / (i, k) index planes.  Value planes
    // are lane-strided; occupancy and index planes are shared across lanes.
    a_val: Vec<T>,
    a_i: Vec<u32>,
    a_k: Vec<u32>,
    a_occ: BitPlane,
    // b plane, SoA.
    b_val: Vec<T>,
    b_k: Vec<u32>,
    b_j: Vec<u32>,
    b_occ: BitPlane,
    // c plane, SoA: one ring per result diagonal, rings packed by `c_off`.
    c_val: Vec<T>,
    c_row: Vec<u32>,
    c_col: Vec<u32>,
    c_occ: BitPlane,
    c_off: Vec<usize>,
    /// Per-diagonal ring cursor: the exit slot of diagonal `di` at the
    /// current cycle, maintained incrementally so the hot loop never
    /// divides (every other ring slot is an offset from it).
    c_exit: Vec<u32>,
    // Flat feedback store, SoA: one slot per result-band position, value
    // plane lane-strided.  The value and cycle planes only grow: `fb_occ`,
    // cleared every run, guards every read.
    fb_val: Vec<T>,
    fb_cycle: Vec<u32>,
    fb_occ: BitPlane,
    // The records of the tapes: exits in exit order, feedback events in
    // consumption order, and whether both are complete for the held tapes.
    exits: Vec<Exit>,
    fb_events: Vec<FeedbackEvent>,
    recorded: bool,
    // Results of the last run.
    w: usize,
    lanes: usize,
    fired: usize,
    last_fire_cycle: usize,
    skipped_cycles: usize,
}

impl<T: Scalar> Default for HexScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> HexScratch<T> {
    /// An empty workspace; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        HexScratch {
            a_tape: Tape::new(),
            b_tape: Tape::new(),
            c_tape: Tape::new(),
            tape_key: None,
            winner_at: Vec::new(),
            a_val: Vec::new(),
            a_i: Vec::new(),
            a_k: Vec::new(),
            a_occ: BitPlane::new(),
            b_val: Vec::new(),
            b_k: Vec::new(),
            b_j: Vec::new(),
            b_occ: BitPlane::new(),
            c_val: Vec::new(),
            c_row: Vec::new(),
            c_col: Vec::new(),
            c_occ: BitPlane::new(),
            c_off: Vec::new(),
            c_exit: Vec::new(),
            fb_val: Vec::new(),
            fb_cycle: Vec::new(),
            fb_occ: BitPlane::new(),
            exits: Vec::new(),
            fb_events: Vec::new(),
            recorded: false,
            w: 0,
            lanes: 1,
            fired: 0,
            last_fire_cycle: 0,
            skipped_cycles: 0,
        }
    }

    /// Whether the tapes fit `job` on a `w`-wide array: the same band shapes
    /// and either the very schedule they hold or a structurally equal one.
    fn tapes_fit(&self, w: usize, job: &HexJob<T>) -> bool {
        self.tape_key.as_ref().is_some_and(|key| {
            key.w == w
                && key.a == job.a.band_shape()
                && key.b == job.b.band_shape()
                && (Arc::ptr_eq(&key.schedule, &job.c_injections)
                    || same_structure(&key.schedule, &job.c_injections))
        })
    }

    /// Rebuilds the three tapes in place for `job` on a `w`-wide array,
    /// sealed at `horizon + 1` cycles.
    fn build_tapes(&mut self, w: usize, job: &HexJob<T>, horizon: usize) {
        self.tape_key = None;
        // a_{ik} enters cell (k-i, w-1) at cycle i + 2k, b_{kj} enters cell
        // (w-1, k-j) at cycle j + 2k.
        operand_tape(&mut self.a_tape, &job.a, |i, k| i + 2 * k, horizon);
        operand_tape(&mut self.b_tape, &job.b, |k, j| j + 2 * k, horizon);
        // c_{ij} enters the boundary cell of its diagonal at cycle
        // i + j + max(i, j) + w - 1; every band position gets one entry,
        // resolved to its winning (last) schedule entry.
        let (n_rows, n_cols) = (job.a.rows(), job.b.cols());
        let band_width = 2 * w - 1;
        let fb_idx = |i: usize, j: usize| i * band_width + (j + w - 1 - i);
        reset_vec(&mut self.winner_at, n_rows * band_width, u32::MAX);
        for (idx, &((i, j), _)) in job.c_injections.iter().enumerate() {
            self.winner_at[fb_idx(i, j)] = idx as u32;
        }
        self.c_tape.begin(n_rows * band_width);
        for i in 0..n_rows {
            let j_lo = i.saturating_sub(w - 1);
            let j_hi = (i + w).min(n_cols);
            for j in j_lo..j_hi {
                let t0 = i + j + i.max(j) + w - 1;
                let pending = match self.winner_at[fb_idx(i, j)] {
                    u32::MAX => PendingC::Zero,
                    idx => match job.c_injections[idx as usize].1 {
                        CInjection::Value(_) => PendingC::Literal(idx),
                        CInjection::Feedback { producer: (r, c) } => {
                            PendingC::Feedback(r as u32, c as u32)
                        }
                    },
                };
                let entry = CEntry {
                    i: i as u32,
                    j: j as u32,
                    pending,
                };
                self.c_tape.push(t0, entry);
            }
        }
        self.c_tape.seal(horizon + 1);
        self.tape_key = Some(TapeKey {
            w,
            a: job.a.band_shape(),
            b: job.b.band_shape(),
            schedule: Arc::clone(&job.c_injections),
        });
    }

    /// All outputs of the last run's lane 0, in the order they left the
    /// array: `outputs_of(0)`.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = CellOutput<T>> + '_ {
        self.outputs_of(0)
    }

    /// The outputs of lane `lane` of the last run, in the order they left
    /// the array.  Every lane exits in lockstep, so all lanes share output
    /// ordering and cycles (the recorded exit list) and differ only in the
    /// value, which is read back from the lane-strided flat feedback store
    /// (every exit parks its whole lane block there), so no output stream
    /// is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn outputs_of(&self, lane: usize) -> impl ExactSizeIterator<Item = CellOutput<T>> + '_ {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.exits.iter().map(move |e| {
            let (row, col) = (e.row as usize, e.col as usize);
            let values = self
                .lane_values(row, col)
                .expect("every recorded exit parked its lane block");
            CellOutput {
                row,
                col,
                value: values[lane],
                cycle: e.cycle as usize,
            }
        })
    }

    /// Every lane's value at result-band position `(row, col)` in the last
    /// run (one per lane, in lane order), read straight from the
    /// lane-strided flat feedback store; `None` when the array never emitted
    /// that position.  One occupancy test serves the whole lane block, which
    /// is how result assembly extracts every lane in one sweep.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` lies outside the result band of the last run.
    pub fn lane_values(&self, row: usize, col: usize) -> Option<&[T]> {
        let fidx = row * (2 * self.w - 1) + (col + self.w - 1 - row);
        let block = fidx * self.lanes..(fidx + 1) * self.lanes;
        self.fb_occ.get(fidx).then(|| &self.fb_val[block])
    }

    /// Number of value lanes of the last run (1 for a plain run).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycle in which the last multiply–accumulate of the last run fired.
    pub fn last_fire_cycle(&self) -> usize {
        self.last_fire_cycle
    }

    /// Total array steps of the last run, `last_fire_cycle + 2`.
    pub fn cycles(&self) -> usize {
        self.last_fire_cycle + 2
    }

    /// Number of multiply–accumulates the last run fired.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Idle cycles the last run fast-forwarded over instead of simulating
    /// (event-driven cycle skipping): prologue, epilogue and gap cycles in
    /// which every plane was empty.  A measure of how much simulation work
    /// the tape-driven engine saved over a naive cycle-by-cycle scan.
    pub fn skipped_cycles(&self) -> usize {
        self.skipped_cycles
    }

    /// Activity accounting of the last run.
    pub fn utilization(&self) -> Utilization {
        Utilization {
            pe_count: self.w * self.w,
            cycles: self.cycles(),
            fired: self.fired,
        }
    }

    /// The feedback events of the last run, in consumption order.
    pub fn feedback_events(&self) -> &[FeedbackEvent] {
        &self.fb_events
    }

    /// Builds the feedback summary of the last run (clones the events).
    pub fn feedback_summary(&self) -> FeedbackSummary {
        FeedbackSummary::from_events(self.fb_events.clone())
    }

    /// Copies the last run's results out into an owned [`HexReport`].
    pub fn report(&self) -> HexReport<T> {
        HexReport {
            outputs: self.outputs().collect(),
            last_fire_cycle: self.last_fire_cycle,
            cycles: self.cycles(),
            utilization: self.utilization(),
            feedback: self.feedback_summary(),
        }
    }
}

/// The hexagonal array itself: a `w × w` rhombus of multiply–accumulate
/// cells with the three-plane dataflow described in the module docs.
///
/// # Example
///
/// ```
/// use sia_matrix::BandMatrix;
/// use sia_sim::{HexArray, HexJob};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = 2;
/// // A: upper bidiagonal, B: lower bidiagonal, both 3x3.
/// let mut a = BandMatrix::<i64>::new(3, 3, 0, 1)?;
/// let mut b = BandMatrix::<i64>::new(3, 3, 1, 0)?;
/// for i in 0..3 {
///     a.set(i, i, 1)?;
///     b.set(i, i, 2)?;
/// }
/// a.set(0, 1, 3)?;
/// b.set(2, 1, 4)?;
/// let report = HexArray::new(w)?.run(&HexJob::product(a, b))?;
/// assert_eq!(report.value(0, 0), Some(2));
/// assert_eq!(report.value(0, 1), Some(6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexArray {
    w: usize,
}

/// Whether two injection schedules share one structure: the same positions
/// in the same order, each with the same kind and feedback producer.  Only
/// literal values may differ — between lane mates, and between a run and
/// the run whose tapes it reuses.
fn same_structure<T>(x: &[InjectionEntry<T>], y: &[InjectionEntry<T>]) -> bool {
    let producer = |c: &CInjection<T>| match *c {
        CInjection::Value(_) => None,
        CInjection::Feedback { producer } => Some(producer),
    };
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(m, n)| m.0 == n.0 && producer(&m.1) == producer(&n.1))
}

/// Lays out the tape of one operand band, sealed at `horizon + 1` cycles:
/// element `(r, c)` enters at cycle `entry(r, c)`.  Entry cycles are
/// closed-form per diagonal, so no hashing is ever needed.
fn operand_tape<T: Scalar>(
    tape: &mut Tape<OperandTag>,
    band: &BandMatrix<T>,
    entry: impl Fn(usize, usize) -> usize,
    horizon: usize,
) {
    let (width, lower) = (band.bandwidth(), band.lower());
    assert!(
        band.storage().len() <= u32::MAX as usize,
        "u32 slots overflow"
    );
    tape.begin(band.capacity());
    for d in band.diagonal_offsets() {
        for (r, c, _) in band.diagonal_entries(d) {
            let slot = (r * width + (c + lower - r)) as u32;
            let (row, col) = (r as u32, c as u32);
            tape.push(entry(r, c), OperandTag { row, col, slot });
        }
    }
    tape.seal(horizon + 1);
}

/// The literal of schedule entry `idx`, which the tapes name only when it
/// is a [`CInjection::Value`] (in every schedule of the tapes' structure).
#[inline]
fn literal<T: Copy>(schedule: &[InjectionEntry<T>], idx: u32) -> T {
    match schedule[idx as usize].1 {
        CInjection::Value(v) => v,
        CInjection::Feedback { .. } => unreachable!("a tape literal names a feedback entry"),
    }
}

/// Latches storage `slot` of every lane's band (`bands`, in lane order)
/// into one lane block; a band all lanes hold (`shared`) is read once and
/// filled.  Mates have lane 0's band shape, so one slot addresses them all.
#[inline]
fn latch<'a, T: Scalar>(
    block: &mut [T],
    shared: bool,
    slot: u32,
    mut bands: impl Iterator<Item = &'a [T]>,
) {
    let slot = slot as usize;
    if shared {
        block.fill(bands.next().expect("a pass has a lane")[slot]);
    } else {
        for (v, band) in block.iter_mut().zip(bands) {
            *v = band[slot];
        }
    }
}

impl HexArray {
    /// Creates a `w × w` hexagonal array.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroArraySize`] if `w == 0`.
    pub fn new(w: usize) -> Result<Self, SimError> {
        if w == 0 {
            return Err(SimError::ZeroArraySize);
        }
        Ok(HexArray { w })
    }

    /// Array side length `w` (the array has `w²` processing elements).
    pub fn size(&self) -> usize {
        self.w
    }

    /// Number of processing elements, `w²`.
    pub fn pe_count(&self) -> usize {
        self.w * self.w
    }

    fn validate<T: Scalar>(&self, job: &HexJob<T>) -> Result<(), SimError> {
        self.validate_operands(job)?;
        self.validate_injections(job)
    }

    /// The operand half of [`HexArray::validate`]: band profiles, bandwidth
    /// against the array, and the shared inner dimension.
    fn validate_operands<T: Scalar>(&self, job: &HexJob<T>) -> Result<(), SimError> {
        let w = self.w;
        if job.a.lower() != 0 {
            return Err(SimError::BandProfile {
                expected: "upper band operand a (no sub-diagonals)",
                found: (job.a.lower(), job.a.upper()),
            });
        }
        if job.b.upper() != 0 {
            return Err(SimError::BandProfile {
                expected: "lower band operand b (no super-diagonals)",
                found: (job.b.lower(), job.b.upper()),
            });
        }
        if job.a.bandwidth() > w {
            return Err(SimError::BandwidthMismatch {
                array: w,
                bandwidth: job.a.bandwidth(),
            });
        }
        if job.b.bandwidth() > w {
            return Err(SimError::BandwidthMismatch {
                array: w,
                bandwidth: job.b.bandwidth(),
            });
        }
        if job.a.cols() != job.b.rows() {
            return Err(SimError::DimensionMismatch {
                left: (job.a.rows(), job.a.cols()),
                right: (job.b.rows(), job.b.cols()),
            });
        }
        Ok(())
    }

    /// The injection-schedule half of [`HexArray::validate`], split out so a
    /// lane batch whose mates literally share lane 0's schedule (one `Arc`)
    /// can check it once instead of once per lane.
    fn validate_injections<T: Scalar>(&self, job: &HexJob<T>) -> Result<(), SimError> {
        let w = self.w;
        let in_band =
            |i: usize, j: usize| i < job.a.rows() && j < job.b.cols() && i.abs_diff(j) < w;
        for &((i, j), injection) in job.c_injections.iter() {
            if !in_band(i, j) {
                return Err(SimError::InjectionOutsideBand { position: (i, j) });
            }
            if let CInjection::Feedback { producer } = injection {
                if !in_band(producer.0, producer.1) {
                    return Err(SimError::UnknownProducer { producer });
                }
            }
        }
        Ok(())
    }

    /// Runs one job through the array with a freshly allocated workspace.
    ///
    /// This is [`HexArray::run_with`] plus the cost of building (and
    /// copying out of) a [`HexScratch`]; steady-state callers — the serving
    /// runtime's [`crate::ArrayStation`] workers, the batch APIs — reuse a
    /// persistent scratch instead.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the job is malformed (band profiles,
    /// dimensions, injections outside the result band) or when a feedback
    /// injection needs a value that has not been produced yet.
    pub fn run<T: Scalar>(&self, job: &HexJob<T>) -> Result<HexReport<T>, SimError> {
        let mut scratch = HexScratch::new();
        self.run_with(job, &mut scratch)?;
        Ok(scratch.report())
    }

    /// Runs one job through the array, reusing the caller's workspace.
    ///
    /// All per-run buffers (tapes, register planes, feedback store, exit and
    /// event records) live in `scratch` and are cleared-not-freed, so
    /// repeated runs of same-shaped jobs perform **no heap allocation**
    /// after the first.  The results stay readable on the scratch
    /// ([`HexScratch::outputs`] and friends) until the next run; they are
    /// bit-identical to what [`HexArray::run`] reports for the same job.
    ///
    /// # Errors
    ///
    /// Same as [`HexArray::run`].  After an error the scratch holds no
    /// meaningful results but stays valid for the next run.
    pub fn run_with<T: Scalar>(
        &self,
        job: &HexJob<T>,
        scratch: &mut HexScratch<T>,
    ) -> Result<(), SimError> {
        self.run_lanes_with(std::slice::from_ref(job), scratch)
    }

    /// Checks that a lane batch is well-formed: every job valid on its own,
    /// and every job a *shape-mate* of lane 0 (identical operand band
    /// shapes and an identical injection schedule up to the literal values,
    /// which are the one thing allowed to differ between lanes).
    fn validate_lanes<T: Scalar>(&self, jobs: &[HexJob<T>]) -> Result<(), SimError> {
        let first = jobs.first().ok_or(SimError::LaneMismatch {
            lane: 0,
            what: "empty lane batch",
        })?;
        self.validate(first)?;
        for (lane, job) in jobs.iter().enumerate().skip(1) {
            // Mates sharing lane 0's schedule `Arc` (the common case: the
            // solver hands every lane the same one when there is no
            // additive term) need operand checks only.
            let shared = Arc::ptr_eq(&job.c_injections, &first.c_injections);
            if shared {
                self.validate_operands(job)?;
            } else {
                self.validate(job)?;
            }
            let what = if job.a.band_shape() != first.a.band_shape() {
                "a operand shape"
            } else if job.b.band_shape() != first.b.band_shape() {
                "b operand shape"
            } else if !shared && !same_structure(&job.c_injections, &first.c_injections) {
                "c injection schedule"
            } else {
                continue;
            };
            return Err(SimError::LaneMismatch { lane, what });
        }
        Ok(())
    }

    /// Runs L **same-shape** jobs through the array in a single
    /// lane-parallel pass, reusing the caller's workspace.
    ///
    /// The injection tapes, occupancy planes, index planes, ring cursors
    /// and the exit and feedback records are functions of the job *shape*
    /// only, so L shape-mates share one set; only the value planes carry a
    /// lane dimension.  Every cell
    /// firing therefore updates L accumulators at once (the
    /// autovectorizable lane block), and the per-cycle structural work —
    /// tape walks, occupancy tests, cursor advances — is paid once instead
    /// of L times.  Lane `l`'s outputs ([`HexScratch::outputs_of`]) are
    /// **bit-identical** to a solo [`HexArray::run_with`] of `jobs[l]`: the
    /// per-cell operand pairing and accumulation order are unchanged, lanes
    /// never mix, and the modeled cycle count (shared by all lanes) is the
    /// closed-form count of the common shape.
    ///
    /// # Errors
    ///
    /// Same as [`HexArray::run`], plus [`SimError::LaneMismatch`] when the
    /// batch is empty or a job is not a shape-mate of lane 0 (operand band
    /// shapes and injection schedules must be identical; injected *values*
    /// may differ).
    pub fn run_lanes_with<T: Scalar>(
        &self,
        jobs: &[HexJob<T>],
        scratch: &mut HexScratch<T>,
    ) -> Result<(), SimError> {
        // Cleared until this run succeeds: a failed run's partial records
        // are never reused.
        let recorded = std::mem::take(&mut scratch.recorded);
        self.validate_lanes(jobs)?;
        let lanes = jobs.len();
        let job = &jobs[0];
        let w = self.w;
        let n_rows = job.a.rows();
        let inner = job.a.cols(); // == job.b.rows()
        let n_cols = job.b.cols();
        let horizon = 3 * (n_rows + inner + n_cols) + 6 * w + 8;

        // ---- injection tapes ------------------------------------------------
        // Value-free and structure-keyed: a run of the last run's structure
        // reuses them as they are.
        let fits = scratch.tapes_fit(w, job);
        if !fits {
            scratch.build_tapes(w, job, horizon);
        }
        // The exits and feedback events are functions of the same structure:
        // recorded by the first successful run on the tapes, then kept.
        let record = !(recorded && fits);
        // Every result-band position enters, and leaves, exactly once.
        let expected_outputs = scratch.c_tape.len();
        // Mates holding lane 0's schedule, `a` or `b` `Arc` share its values
        // too, so each such value is read once and filled across the lane
        // block.
        let shared =
            |same: fn(&HexJob<T>, &HexJob<T>) -> bool| jobs[1..].iter().all(|mate| same(mate, job));
        let shared_schedule = shared(|x, y| Arc::ptr_eq(&x.c_injections, &y.c_injections));
        let shared_a = shared(|x, y| Arc::ptr_eq(&x.a, &y.a));
        let shared_b = shared(|x, y| Arc::ptr_eq(&x.b, &y.b));
        let band_width = 2 * w - 1;
        let fb_idx = |i: usize, j: usize| i * band_width + (j + w - 1 - i);

        // ---- register planes as ring buffers --------------------------------
        // A value keeps one slot for its whole life, so no plane ever shifts:
        //   a: lane alpha, slot (beta + t) mod w   (beta decreases with t);
        //   b: lane beta,  slot (alpha + t) mod w  (alpha decreases with t);
        //   c: one ring per result diagonal d = j - i of length w - |d|,
        //      slot (pos - t) mod len with pos = alpha - max(d, 0)
        //      (pos increases with t).
        // The planes are SoA: values, occupancy bits and indices live in
        // separate arrays (see the module docs).
        reset_vec(&mut scratch.a_val, w * w * lanes, T::zero());
        reset_vec(&mut scratch.a_i, w * w, 0);
        reset_vec(&mut scratch.a_k, w * w, 0);
        scratch.a_occ.reset(w * w);
        reset_vec(&mut scratch.b_val, w * w * lanes, T::zero());
        reset_vec(&mut scratch.b_k, w * w, 0);
        reset_vec(&mut scratch.b_j, w * w, 0);
        scratch.b_occ.reset(w * w);
        let n_diags = 2 * w - 1;
        let diag_len = |di: usize| (di + 1).min(n_diags - di);
        scratch.c_off.clear();
        scratch.c_off.push(0);
        for di in 0..n_diags {
            let prev = scratch.c_off[di];
            scratch.c_off.push(prev + diag_len(di));
        }
        let c_cells = scratch.c_off[n_diags];
        reset_vec(&mut scratch.c_val, c_cells * lanes, T::zero());
        reset_vec(&mut scratch.c_row, c_cells, 0);
        reset_vec(&mut scratch.c_col, c_cells, 0);
        scratch.c_occ.reset(c_cells);
        reset_vec(&mut scratch.c_exit, n_diags, 0);

        // ---- flat feedback store --------------------------------------------
        // One slot per result-band position (i, j), |i - j| < w.  Only the
        // occupancy is cleared: every read is of a slot this run marks.
        let positions = n_rows * band_width;
        let fb_len = scratch.fb_val.len().max(positions * lanes);
        scratch.fb_val.resize(fb_len, T::zero());
        scratch
            .fb_cycle
            .resize(scratch.fb_cycle.len().max(positions), 0);
        scratch.fb_occ.reset(positions);
        if record {
            scratch.exits.clear();
            scratch.exits.reserve(expected_outputs);
            scratch.fb_events.clear();
        }
        scratch.w = w;
        scratch.lanes = lanes;

        let mut a_count = 0usize;
        let mut b_count = 0usize;
        let mut c_count = 0usize;
        let mut exited = 0usize;
        let mut fired = 0usize;
        let mut last_fire_cycle = 0usize;
        let mut skipped = 0usize;
        let mut t = 0usize;

        let HexScratch {
            a_tape,
            b_tape,
            c_tape,
            a_val,
            a_i,
            a_k,
            a_occ,
            b_val,
            b_k,
            b_j,
            b_occ,
            c_val,
            c_row,
            c_col,
            c_occ,
            c_off,
            c_exit,
            fb_val,
            fb_cycle,
            fb_occ,
            exits,
            fb_events,
            ..
        } = scratch;
        // Ring cursors, maintained incrementally so the hot loop never
        // divides (divisions only happen here and after a skip jump):
        //   tm       = t mod w            (a/b slot base),
        //   in_slot  = (w - 1 + t) mod w  (a/b entry/recycle slot),
        //   wave     = (w - 1 - t) mod 3  (anti-diagonal parity),
        //   c_exit[di] = (len - 1 - t) mod len  (exit slot of diagonal di);
        // every other c-ring slot is an offset from c_exit: the slot of
        // relative position `pos` is (pos + c_exit + 1) wrapped, because
        // c_exit + 1 ≡ -t (mod len).
        let recompute_cursors = |t: usize, c_exit: &mut [u32]| -> (usize, usize, usize) {
            for (di, e) in c_exit.iter_mut().enumerate() {
                let len = diag_len(di);
                *e = (len as i64 - 1 - t as i64).rem_euclid(len as i64) as u32;
            }
            (
                t % w,
                (w - 1 + t) % w,
                (w as i64 - 1 - t as i64).rem_euclid(3) as usize,
            )
        };
        let (mut tm, mut in_slot, mut wave) = recompute_cursors(t, c_exit);
        let wrap_w = |x: usize| if x >= w { x - w } else { x };

        while exited < expected_outputs && t <= horizon {
            // 0. Event-driven cycle skipping: when every plane is empty,
            //    nothing can fire, exit or fall off, so fast-forward `t`
            //    straight to the next tape event (idle prologue / epilogue /
            //    gap cycles cost nothing).  Step accounting is unaffected:
            //    cycle counts derive from the last firing cycle, which idle
            //    cycles by definition do not move.
            if a_count == 0 && b_count == 0 && c_count == 0 {
                let next = [
                    a_tape.next_event_at_or_after(t),
                    b_tape.next_event_at_or_after(t),
                    c_tape.next_event_at_or_after(t),
                ]
                .into_iter()
                .flatten()
                .min();
                match next {
                    Some(next_t) => {
                        if next_t != t {
                            skipped += next_t - t;
                            t = next_t;
                            (tm, in_slot, wave) = recompute_cursors(t, c_exit);
                        }
                    }
                    // Tapes exhausted with nothing in flight: no further
                    // output can ever appear.
                    None => break,
                }
            }

            // 1. Injections at the three boundaries.  The ring slot that the
            //    a/b entry edges map to this cycle is exactly the slot whose
            //    previous occupant fell off the opposite edge — recycle it,
            //    then latch this cycle's tape entries.
            for lane in 0..w {
                let idx = lane * w + in_slot;
                if a_occ.take(idx) {
                    a_count -= 1;
                }
                if b_occ.take(idx) {
                    b_count -= 1;
                }
            }
            for tag in a_tape.at(t) {
                let idx = (tag.col - tag.row) as usize * w + in_slot;
                let block = &mut a_val[idx * lanes..(idx + 1) * lanes];
                latch(
                    block,
                    shared_a,
                    tag.slot,
                    jobs.iter().map(|j| j.a.storage()),
                );
                a_i[idx] = tag.row;
                a_k[idx] = tag.col;
                if !a_occ.set(idx) {
                    a_count += 1;
                }
            }
            for tag in b_tape.at(t) {
                let idx = (tag.row - tag.col) as usize * w + in_slot;
                let block = &mut b_val[idx * lanes..(idx + 1) * lanes];
                latch(
                    block,
                    shared_b,
                    tag.slot,
                    jobs.iter().map(|j| j.b.storage()),
                );
                b_k[idx] = tag.row;
                b_j[idx] = tag.col;
                if !b_occ.set(idx) {
                    b_count += 1;
                }
            }
            // c enters on the alpha = 0 and beta = 0 edges (relative ring
            // position 0, i.e. slot c_exit + 1); every lane resolves from
            // the same source kind — zero, its schedule's literal or the
            // flat feedback store — at its own lane offset.
            for entry in c_tape.at(t) {
                let (i, j) = (entry.i as usize, entry.j as usize);
                let di = j + w - 1 - i;
                let len = diag_len(di);
                let e = c_exit[di] as usize;
                let slot = if e + 1 >= len { e + 1 - len } else { e + 1 };
                let cell = c_off[di] + slot;
                let block = &mut c_val[cell * lanes..(cell + 1) * lanes];
                match entry.pending {
                    PendingC::Zero => block.fill(T::zero()),
                    PendingC::Literal(idx) if shared_schedule => {
                        block.fill(literal(&job.c_injections, idx));
                    }
                    PendingC::Literal(idx) => {
                        for (v, mate) in block.iter_mut().zip(jobs) {
                            *v = literal(&mate.c_injections, idx);
                        }
                    }
                    PendingC::Feedback(row, col) => {
                        let producer = (row as usize, col as usize);
                        let pidx = fb_idx(producer.0, producer.1);
                        if !fb_occ.get(pidx) {
                            return Err(SimError::FeedbackNotReady {
                                producer,
                                needed_at: t,
                            });
                        }
                        let produced_at = fb_cycle[pidx] as usize;
                        if produced_at >= t {
                            return Err(SimError::FeedbackNotReady {
                                producer,
                                needed_at: t,
                            });
                        }
                        if record {
                            fb_events.push(FeedbackEvent {
                                producer,
                                consumer: (i, j),
                                produced_at,
                                consumed_at: t,
                            });
                        }
                        block.copy_from_slice(&fb_val[pidx * lanes..(pidx + 1) * lanes]);
                    }
                }
                c_row[cell] = entry.i;
                c_col[cell] = entry.j;
                if !c_occ.set(cell) {
                    c_count += 1;
                }
            }

            // 2. Compute: only the occupied anti-diagonal wavefront can fire.
            //    Cell (alpha, beta) fires for (i, j, k) at cycle
            //    i + j + k + w - 1 with 3k = t - w + 1 + alpha + beta, so
            //    only cells with (alpha + beta) == (w - 1 - t) mod 3 can
            //    fire: for each alpha the scan visits beta = need, need + 3,
            //    ... and tests the three occupancy bits, so two thirds of the
            //    grid is never touched.  The a value of (alpha, beta) sits in
            //    slot (beta + t) mod w of a row alpha, the b value in slot
            //    (alpha + t) mod w of b row beta.
            let mut need = wave;
            for alpha in 0..w {
                let b_slot = wrap_w(alpha + tm);
                for beta in (need..w).step_by(3) {
                    let a_idx = alpha * w + wrap_w(beta + tm);
                    let b_idx = beta * w + b_slot;
                    if !(a_occ.get(a_idx) && b_occ.get(b_idx)) {
                        continue;
                    }
                    let di = alpha + w - 1 - beta;
                    let len = diag_len(di);
                    let pos = alpha.min(beta);
                    let s = pos + c_exit[di] as usize + 1;
                    let slot = if s >= len { s - len } else { s };
                    let cell = c_off[di] + slot;
                    if c_occ.get(cell) {
                        debug_assert_eq!(
                            a_k[a_idx], b_k[b_idx],
                            "a and b must share the inner index"
                        );
                        debug_assert_eq!(a_i[a_idx], c_row[cell], "a row must match c row");
                        debug_assert_eq!(b_j[b_idx], c_col[cell], "b column must match c column");
                        if lanes == 1 {
                            c_val[cell] += a_val[a_idx] * b_val[b_idx];
                        } else {
                            mac_lanes(
                                &mut c_val[cell * lanes..(cell + 1) * lanes],
                                &a_val[a_idx * lanes..(a_idx + 1) * lanes],
                                &b_val[b_idx * lanes..(b_idx + 1) * lanes],
                            );
                        }
                        fired += 1;
                        last_fire_cycle = t;
                    }
                }
                need = if need == 0 { 2 } else { need - 1 };
            }

            // 3. Shift.  The rings absorb the movement; only the c exits need
            //    work: one exit cell per diagonal, visited in the same
            //    (alpha, beta)-lexicographic order as a full-grid scan.
            for di in (0..w - 1).chain((w - 1..n_diags).rev()) {
                let cell = c_off[di] + c_exit[di] as usize;
                if c_occ.take(cell) {
                    c_count -= 1;
                    exited += 1;
                    let (row, col) = (c_row[cell], c_col[cell]);
                    // The feedback store parks every lane's value (outputs
                    // are unique per band position), so no output stream is
                    // kept: [`HexScratch::outputs_of`] and
                    // [`HexScratch::lane_values`] read the values from there.
                    let fidx = fb_idx(row as usize, col as usize);
                    fb_val[fidx * lanes..(fidx + 1) * lanes]
                        .copy_from_slice(&c_val[cell * lanes..(cell + 1) * lanes]);
                    fb_cycle[fidx] = t as u32;
                    fb_occ.set(fidx);
                    if record {
                        let cycle = t as u32;
                        exits.push(Exit { row, col, cycle });
                    }
                }
            }

            // Advance every cursor one cycle (wrapping decrements /
            // increments, no division).
            t += 1;
            tm = wrap_w(tm + 1);
            in_slot = wrap_w(in_slot + 1);
            wave = if wave == 0 { 2 } else { wave - 1 };
            for (di, e) in c_exit.iter_mut().enumerate() {
                *e = if *e == 0 {
                    diag_len(di) as u32 - 1
                } else {
                    *e - 1
                };
            }
        }

        scratch.fired = fired;
        scratch.last_fire_cycle = last_fire_cycle;
        scratch.skipped_cycles = skipped;
        scratch.recorded = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    /// Random upper-band (width w) square matrix as dense + band pair.
    fn upper_band(n: usize, w: usize, seed: u64) -> (DenseMatrix<i64>, BandMatrix<i64>) {
        let full = gen::random_dense_i64(n, n, 4, seed);
        let dense = DenseMatrix::from_fn(n, n, |i, j| {
            if j >= i && j < i + w {
                full.at(i, j)
            } else {
                0
            }
        });
        let band = BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap();
        (dense, band)
    }

    /// Random lower-band (width w) square matrix as dense + band pair.
    fn lower_band(n: usize, w: usize, seed: u64) -> (DenseMatrix<i64>, BandMatrix<i64>) {
        let full = gen::random_dense_i64(n, n, 4, seed);
        let dense = DenseMatrix::from_fn(n, n, |i, j| {
            if i >= j && i < j + w {
                full.at(i, j)
            } else {
                0
            }
        });
        let band = BandMatrix::try_from_dense(&dense, w - 1, 0).unwrap();
        (dense, band)
    }

    #[test]
    fn rejects_zero_size() {
        assert_eq!(HexArray::new(0).unwrap_err(), SimError::ZeroArraySize);
    }

    #[test]
    fn band_product_matches_dense_reference() {
        for (n, w, seed) in [(4usize, 2usize, 1u64), (7, 3, 2), (9, 4, 3), (5, 1, 4)] {
            let (da, ba) = upper_band(n, w, seed);
            let (db, bb) = lower_band(n, w, seed + 50);
            let report = HexArray::new(w)
                .unwrap()
                .run(&HexJob::product(ba, bb))
                .unwrap();
            let reference = da.matmul(&db).unwrap();
            let produced = report.to_dense(n, n);
            assert_eq!(produced, reference, "n={n} w={w}");
        }
    }

    #[test]
    fn narrower_bands_than_the_array_are_accepted() {
        // Bidiagonal operands on a 4x4 array still compute correctly.
        let w = 4;
        let (da, ba) = upper_band(6, 2, 7);
        let (db, bb) = lower_band(6, 2, 8);
        let report = HexArray::new(w)
            .unwrap()
            .run(&HexJob::product(ba, bb))
            .unwrap();
        assert_eq!(report.to_dense(6, 6), da.matmul(&db).unwrap());
    }

    #[test]
    fn cycle_count_matches_three_phase_formula() {
        // For square full-band operands of dimension N the last firing is at
        // 3(N-1) + w - 1, so the run takes 3N + w - 2 steps.
        for (n, w) in [(4usize, 2usize), (6, 3), (9, 4)] {
            let (_, ba) = upper_band(n, w, 11);
            let (_, bb) = lower_band(n, w, 12);
            let report = HexArray::new(w)
                .unwrap()
                .run(&HexJob::product(ba, bb))
                .unwrap();
            assert_eq!(report.cycles, 3 * n + w - 2, "n={n} w={w}");
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_runs() {
        let w = 3;
        let hex = HexArray::new(w).unwrap();
        let mut scratch = HexScratch::new();
        for seed in 0..6u64 {
            let n = 4 + (seed as usize % 3) * 2;
            let (_, ba) = upper_band(n, w, 300 + seed);
            let (_, bb) = lower_band(n, w, 400 + seed);
            let mut job = HexJob::product(ba, bb);
            if seed % 2 == 0 {
                Arc::make_mut(&mut job.c_injections)
                    .push(((3, 3), CInjection::Feedback { producer: (0, 0) }));
            }
            let fresh = hex.run(&job).unwrap();
            hex.run_with(&job, &mut scratch).unwrap();
            let outputs: Vec<_> = scratch.outputs().collect();
            assert_eq!(outputs, fresh.outputs, "seed {seed}");
            assert_eq!(scratch.cycles(), fresh.cycles);
            assert_eq!(scratch.utilization(), fresh.utilization);
            assert_eq!(scratch.feedback_summary(), fresh.feedback);
            assert_eq!(scratch.report().outputs, fresh.outputs);
        }
    }

    #[test]
    fn e_matrix_injections_are_added() {
        let n = 5;
        let w = 3;
        let (da, ba) = upper_band(n, w, 21);
        let (db, bb) = lower_band(n, w, 22);
        let e = gen::random_dense_i64(n, n, 3, 23);
        let mut injections = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i.abs_diff(j) < w {
                    injections.push(((i, j), CInjection::Value(e.at(i, j))));
                }
            }
        }
        let job = HexJob {
            a: ba.into(),
            b: bb.into(),
            c_injections: Arc::new(injections),
        };
        let report = HexArray::new(w).unwrap().run(&job).unwrap();
        let mut expected = da.matmul(&db).unwrap();
        for i in 0..n {
            for j in 0..n {
                if i.abs_diff(j) < w {
                    let v = expected.at(i, j) + e.at(i, j);
                    expected.set(i, j, v).unwrap();
                }
            }
        }
        assert_eq!(report.to_dense(n, n), expected);
    }

    #[test]
    fn later_duplicate_injections_win() {
        let w = 2;
        let (_, ba) = upper_band(4, w, 24);
        let (db, bb) = lower_band(4, w, 25);
        let da = ba.to_dense();
        let job = HexJob {
            a: ba.into(),
            b: bb.into(),
            c_injections: Arc::new(vec![
                ((0, 0), CInjection::Value(100)),
                ((0, 0), CInjection::Value(7)),
            ]),
        };
        let report = HexArray::new(w).unwrap().run(&job).unwrap();
        let reference = da.matmul(&db).unwrap();
        assert_eq!(report.value(0, 0).unwrap(), reference.at(0, 0) + 7);
    }

    #[test]
    fn feedback_accumulates_partial_results() {
        // Position (3, 3) continues the accumulation of position (0, 0).
        let n = 6;
        let w = 3;
        let (da, ba) = upper_band(n, w, 31);
        let (db, bb) = lower_band(n, w, 32);
        let job = HexJob {
            a: ba.into(),
            b: bb.into(),
            c_injections: Arc::new(vec![((3, 3), CInjection::Feedback { producer: (0, 0) })]),
        };
        let report = HexArray::new(w).unwrap().run(&job).unwrap();
        let reference = da.matmul(&db).unwrap();
        assert_eq!(
            report.value(3, 3).unwrap(),
            reference.at(3, 3) + reference.at(0, 0)
        );
        assert_eq!(report.value(0, 0).unwrap(), reference.at(0, 0));
        assert_eq!(report.feedback.len(), 1);
        assert!(report.feedback.events[0].storage_cycles() > 0);
    }

    #[test]
    fn feedback_from_a_not_yet_produced_position_is_rejected() {
        let n = 6;
        let w = 3;
        let (_, ba) = upper_band(n, w, 41);
        let (_, bb) = lower_band(n, w, 42);
        // (0, 0) is injected at cycle w-1, long before (5, 5) is produced.
        let job = HexJob {
            a: ba.into(),
            b: bb.into(),
            c_injections: Arc::new(vec![((0, 0), CInjection::Feedback { producer: (5, 5) })]),
        };
        let hex = HexArray::new(w).unwrap();
        let err = hex.run(&job).unwrap_err();
        assert!(matches!(err, SimError::FeedbackNotReady { .. }));
        // The check runs in the cycle loop, so reused tapes keep it: the
        // same schedule again, an equal copy of it, and both again after a
        // valid job with the same band shapes has rebuilt the tapes.
        let valid = HexJob::product(Arc::clone(&job.a), Arc::clone(&job.b));
        let copy = HexJob {
            c_injections: Arc::new((*job.c_injections).clone()),
            ..job.clone()
        };
        let mut scratch = HexScratch::new();
        for next in [&job, &job, &copy, &valid, &job, &copy] {
            let result = hex.run_with(next, &mut scratch);
            if std::ptr::eq(next, &valid) {
                result.unwrap();
            } else {
                let not_ready = matches!(result, Err(SimError::FeedbackNotReady { .. }));
                assert!(not_ready, "{result:?}");
            }
        }
        // The failed runs left partial records behind: valid jobs on the
        // same scratch, one of them with a feedback chain and run twice
        // (records made, then reused), report what fresh runs report.
        let chained = HexJob {
            c_injections: Arc::new(vec![((3, 3), CInjection::Feedback { producer: (0, 0) })]),
            ..valid.clone()
        };
        for next in [&valid, &chained, &chained] {
            hex.run_with(next, &mut scratch).unwrap();
            let fresh = hex.run(next).unwrap();
            assert_eq!(scratch.outputs().collect::<Vec<_>>(), fresh.outputs);
            assert_eq!(scratch.feedback_events(), &fresh.feedback.events[..]);
        }
    }

    #[test]
    fn malformed_jobs_are_rejected() {
        let w = 3;
        let (_, ba) = upper_band(5, w, 51);
        let (_, bb) = lower_band(5, w, 52);
        let ba: Arc<BandMatrix<i64>> = ba.into();
        let bb: Arc<BandMatrix<i64>> = bb.into();
        let hex = HexArray::new(w).unwrap();

        // a with sub-diagonals.
        let bad_a = BandMatrix::<i64>::new(5, 5, 1, 1).unwrap();
        let err = hex.run(&HexJob::product(bad_a, bb.clone())).unwrap_err();
        assert!(matches!(err, SimError::BandProfile { .. }));

        // b with super-diagonals.
        let bad_b = BandMatrix::<i64>::new(5, 5, 1, 1).unwrap();
        let err = hex.run(&HexJob::product(ba.clone(), bad_b)).unwrap_err();
        assert!(matches!(err, SimError::BandProfile { .. }));

        // bandwidth larger than the array.
        let wide = BandMatrix::<i64>::new(5, 5, 0, w).unwrap();
        let err = hex.run(&HexJob::product(wide, bb.clone())).unwrap_err();
        assert!(matches!(err, SimError::BandwidthMismatch { .. }));

        // incompatible dimensions.
        let (_, small_b) = lower_band(4, w, 53);
        let err = hex.run(&HexJob::product(ba.clone(), small_b)).unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));

        // injection outside the band.
        let err = hex
            .run(&HexJob {
                a: ba.clone(),
                b: bb.clone(),
                c_injections: Arc::new(vec![((0, 4), CInjection::Value(1))]),
            })
            .unwrap_err();
        assert!(matches!(err, SimError::InjectionOutsideBand { .. }));

        // feedback producer outside the band.
        let err = hex
            .run(&HexJob {
                a: ba,
                b: bb,
                c_injections: Arc::new(vec![((2, 2), CInjection::Feedback { producer: (0, 4) })]),
            })
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownProducer { .. }));
    }

    #[test]
    fn utilization_activity_approaches_one_third() {
        let n = 40;
        let w = 3;
        let (_, ba) = upper_band(n, w, 61);
        let (_, bb) = lower_band(n, w, 62);
        let report = HexArray::new(w)
            .unwrap()
            .run(&HexJob::product(ba, bb))
            .unwrap();
        let activity = report.utilization.activity();
        assert!(
            activity > 0.28 && activity <= 1.0 / 3.0 + 1e-9,
            "activity = {activity}"
        );
    }

    #[test]
    fn rectangular_operands_are_supported() {
        // A: 6x8 upper band, B: 8x5 lower band.
        let w = 3;
        let full_a = gen::random_dense_i64(6, 8, 3, 71);
        let da = DenseMatrix::from_fn(6, 8, |i, j| {
            if j >= i && j < i + w {
                full_a.at(i, j)
            } else {
                0
            }
        });
        let full_b = gen::random_dense_i64(8, 5, 3, 72);
        let db = DenseMatrix::from_fn(8, 5, |i, j| {
            if i >= j && i < j + w {
                full_b.at(i, j)
            } else {
                0
            }
        });
        let ba = BandMatrix::try_from_dense(&da, 0, w - 1).unwrap();
        let bb = BandMatrix::try_from_dense(&db, w - 1, 0).unwrap();
        let report = HexArray::new(w)
            .unwrap()
            .run(&HexJob::product(ba, bb))
            .unwrap();
        // Only the band positions of the 6x5 result are produced; compare
        // against the reference restricted to that band.
        let reference = da.matmul(&db).unwrap();
        let produced = report.to_dense(6, 5);
        for i in 0..6usize {
            for j in 0..5usize {
                if i.abs_diff(j) < w {
                    assert_eq!(produced.at(i, j), reference.at(i, j), "({i},{j})");
                } else {
                    assert_eq!(reference.at(i, j), 0, "({i},{j}) outside band");
                }
            }
        }
    }

    #[test]
    fn single_cell_array_multiplies_diagonals() {
        let w = 1;
        let da = DenseMatrix::from_fn(4, 4, |i, j| if i == j { (i + 1) as i64 } else { 0 });
        let db = DenseMatrix::from_fn(4, 4, |i, j| if i == j { 2 } else { 0 });
        let ba = BandMatrix::try_from_dense(&da, 0, 0).unwrap();
        let bb = BandMatrix::try_from_dense(&db, 0, 0).unwrap();
        let report = HexArray::new(w)
            .unwrap()
            .run(&HexJob::product(ba, bb))
            .unwrap();
        assert_eq!(report.to_dense(4, 4), da.matmul(&db).unwrap());
    }

    #[test]
    fn lane_parallel_runs_are_bit_identical_to_solo_runs() {
        let w = 3;
        let n = 7;
        let hex = HexArray::new(w).unwrap();
        // Shape-mates with different values, literal injections and a
        // feedback chain shared structurally by every lane.
        let mate = |seed: u64| {
            let (_, ba) = upper_band(n, w, 700 + seed);
            let (_, bb) = lower_band(n, w, 800 + seed);
            let mut job = HexJob::product(ba, bb);
            let injections = Arc::make_mut(&mut job.c_injections);
            injections.push(((0, 1), CInjection::Value(5 + seed as i64)));
            injections.push(((4, 4), CInjection::Feedback { producer: (0, 0) }));
            job
        };
        let mut seed = 0;
        let mut batch = |lanes: u64| {
            seed += lanes;
            (seed..seed + lanes).map(mate).collect::<Vec<_>>()
        };
        // One scratch throughout: narrower passes follow wider ones over
        // the grow-only feedback store, and every pass after the first
        // reuses the tapes and the records of the first.
        let mut batches: Vec<Vec<HexJob<i64>>> =
            [1, 2, 3, 5, 8, 3, 1].into_iter().map(&mut batch).collect();
        // Mates holding lane 0's `a` band, then its `b` band: one read of
        // that operand is filled across each lane block.
        let mut shared_a = batch(4);
        let mut shared_b = batch(4);
        for l in 1..4 {
            shared_a[l].a = Arc::clone(&shared_a[0].a);
            shared_b[l].b = Arc::clone(&shared_b[0].b);
        }
        batches.extend([shared_a, shared_b]);
        let mut scratch = HexScratch::new();
        for (pass, jobs) in batches.iter().enumerate() {
            hex.run_lanes_with(jobs, &mut scratch).unwrap();
            assert_eq!(scratch.lanes(), jobs.len());
            for (lane, job) in jobs.iter().enumerate() {
                let mut fresh = HexScratch::new();
                hex.run_with(job, &mut fresh).unwrap();
                let at = format!("pass {pass}, lane {lane} of {}", jobs.len());
                assert_eq!(
                    scratch.outputs_of(lane).collect::<Vec<_>>(),
                    fresh.outputs().collect::<Vec<_>>(),
                    "{at}"
                );
                assert_eq!(scratch.feedback_events(), fresh.feedback_events(), "{at}");
                assert_eq!(scratch.fired(), fresh.fired(), "{at}");
                assert_eq!(scratch.skipped_cycles(), fresh.skipped_cycles(), "{at}");
                assert_eq!(scratch.cycles(), fresh.cycles(), "{at}");
            }
        }
    }

    #[test]
    fn mismatched_lane_batches_are_rejected() {
        let w = 3;
        let hex = HexArray::new(w).unwrap();
        let mut scratch = HexScratch::new();
        let empty: &[HexJob<i64>] = &[];
        assert!(matches!(
            hex.run_lanes_with(empty, &mut scratch).unwrap_err(),
            SimError::LaneMismatch { lane: 0, .. }
        ));
        let (_, ba) = upper_band(5, w, 1);
        let (_, bb) = lower_band(5, w, 2);
        let (_, ba_small) = upper_band(4, w, 3);
        let (_, bb_small) = lower_band(4, w, 4);
        let base = HexJob::product(ba, bb);
        let smaller = HexJob::product(ba_small, bb_small);
        assert!(matches!(
            hex.run_lanes_with(&[base.clone(), smaller], &mut scratch)
                .unwrap_err(),
            SimError::LaneMismatch { lane: 1, .. }
        ));
        // Same shapes but diverging injection schedules.
        let mut injected = base.clone();
        Arc::make_mut(&mut injected.c_injections).push(((0, 0), CInjection::Value(1)));
        assert!(matches!(
            hex.run_lanes_with(&[base.clone(), injected], &mut scratch)
                .unwrap_err(),
            SimError::LaneMismatch { lane: 1, .. }
        ));
        // A well-formed pair still runs afterwards: errors leave the
        // scratch usable.
        hex.run_lanes_with(&[base.clone(), base], &mut scratch)
            .unwrap();
        assert_eq!(scratch.lanes(), 2);
        assert!(scratch.outputs().eq(scratch.outputs_of(1)));
    }
}
