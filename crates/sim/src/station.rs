//! A reusable per-worker array station.
//!
//! The serving runtime (`sia-runtime`) keeps a pool of persistent worker
//! threads, each owning the array hardware it simulates for its whole
//! lifetime.  [`ArrayStation`] is that owned state: one hexagonal and one
//! linear array of the same size `w`, **plus one persistent run workspace
//! per array** ([`HexScratch`] / [`LinearScratch`]) and cumulative usage
//! counters that survive across jobs — the per-worker utilization numbers
//! the farm's telemetry reports come straight from here.
//!
//! The station therefore adds three things on top of the raw arrays:
//! *identity* (a worker never re-creates its arrays per job), *steady-state
//! reuse* (every pass served through [`ArrayStation::run_hex_lanes`] /
//! [`ArrayStation::run_mv_lanes`] — a solo job is a one-lane pass — reuses
//! the same warm buffers, so the serving hot path performs **no heap
//! allocation** after warm-up), and *accounting* (every array step it ever
//! executed is attributed to it — structurally, because the runs themselves
//! go through the station).

use crate::{HexArray, HexJob, HexScratch, LinearArray, LinearScratch, MvStream, SimError};
use sia_matrix::Scalar;

/// Cumulative usage counters of one station, suitable for utilization
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationStats {
    /// Completed runs on the hexagonal array.
    pub hex_runs: usize,
    /// Total array steps executed by the hexagonal array.
    pub hex_cycles: usize,
    /// Completed runs on the linear array.
    pub linear_runs: usize,
    /// Total array steps executed by the linear array.
    pub linear_cycles: usize,
    /// Idle cycles the hexagonal engine fast-forwarded over instead of
    /// simulating (event-driven cycle skipping), counted once per array
    /// pass.  Billed cycles are unaffected; this measures simulation work
    /// saved.
    pub hex_skipped_cycles: usize,
    /// Idle cycles the linear engine fast-forwarded over, counted once per
    /// array pass.
    pub linear_skipped_cycles: usize,
    /// Operand-staging passes (DBT transforms materialized next to this
    /// station because the band was not resident).
    pub staged_bands: usize,
    /// Modeled staging cost of those passes, in array cycles.  Kept separate
    /// from `hex_cycles`/`linear_cycles`: staging moves operands, it does
    /// not bill compute, so the closed-form compute predictions stay exact.
    pub staging_cycles: usize,
}

impl StationStats {
    /// Total array steps across both arrays.
    pub fn total_cycles(&self) -> usize {
        self.hex_cycles + self.linear_cycles
    }

    /// Total completed runs across both arrays.
    pub fn total_runs(&self) -> usize {
        self.hex_runs + self.linear_runs
    }

    /// Total idle cycles both engines skipped instead of simulating.
    pub fn total_skipped_cycles(&self) -> usize {
        self.hex_skipped_cycles + self.linear_skipped_cycles
    }
}

/// One worker's persistent array state: a `w × w` hexagonal array and a
/// `w`-cell linear array with their run workspaces, created once and reused
/// for every job the worker serves, with cumulative step accounting.
///
/// The scalar type parameter fixes the element type the workspaces hold;
/// the serving runtime uses the default, `f64`.
#[derive(Debug, Clone)]
pub struct ArrayStation<T: Scalar = f64> {
    w: usize,
    hex: HexArray,
    linear: LinearArray,
    hex_scratch: HexScratch<T>,
    linear_scratch: LinearScratch<T>,
    stats: StationStats,
}

impl<T: Scalar> ArrayStation<T> {
    /// Creates a station whose arrays have size `w`.  The workspaces start
    /// empty and grow to steady-state capacity over the first jobs served.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroArraySize`] if `w == 0`.
    pub fn new(w: usize) -> Result<Self, SimError> {
        Ok(ArrayStation {
            w,
            hex: HexArray::new(w)?,
            linear: LinearArray::new(w)?,
            hex_scratch: HexScratch::new(),
            linear_scratch: LinearScratch::new(),
            stats: StationStats::default(),
        })
    }

    /// Array size `w` shared by both arrays.
    pub fn size(&self) -> usize {
        self.w
    }

    /// The station's hexagonal array (matrix–matrix jobs).
    pub fn hex(&self) -> &HexArray {
        &self.hex
    }

    /// The station's linear array (matrix–vector jobs).
    pub fn linear(&self) -> &LinearArray {
        &self.linear
    }

    /// Runs a batch of same-shape matrix–matrix jobs in one lane-parallel
    /// array pass (one value lane per job), reusing the station's persistent
    /// workspace, and records the executed steps in the cumulative counters.
    /// A solo job is a one-job slice.  Each lane's results are
    /// bit-identical to a solo run of that job, and every lane is billed the
    /// pass's full cycle count — exactly what the jobs would each have cost
    /// sequentially, so the closed-form cost model is unchanged.  Returns
    /// the warm workspace for result extraction; the serving hot path
    /// through here is allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// The errors of [`HexArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_hex_lanes(&mut self, jobs: &[HexJob<T>]) -> Result<&HexScratch<T>, SimError> {
        self.hex.run_lanes_with(jobs, &mut self.hex_scratch)?;
        self.stats.hex_runs += jobs.len();
        self.stats.hex_cycles += jobs.len() * self.hex_scratch.cycles();
        self.stats.hex_skipped_cycles += self.hex_scratch.skipped_cycles();
        Ok(&self.hex_scratch)
    }

    /// Runs a batch of same-shape matrix–vector jobs (each one or two
    /// interleaved streams) in one lane-parallel array pass, reusing the
    /// station's persistent workspace.  A solo job is a one-job slice; the
    /// lane-billing convention matches [`ArrayStation::run_hex_lanes`].
    ///
    /// # Errors
    ///
    /// The errors of [`LinearArray::run_lanes_with`]; failed runs record
    /// nothing.
    pub fn run_mv_lanes<S: AsRef<[MvStream<T>]>>(
        &mut self,
        jobs: &[S],
    ) -> Result<&LinearScratch<T>, SimError> {
        self.linear.run_lanes_with(jobs, &mut self.linear_scratch)?;
        self.stats.linear_runs += jobs.len();
        self.stats.linear_cycles += jobs.len() * self.linear_scratch.cycles();
        self.stats.linear_skipped_cycles += self.linear_scratch.skipped_cycles();
        Ok(&self.linear_scratch)
    }

    /// Records one operand-staging pass (a DBT band materialized next to
    /// this station) of the given modeled cost.  Staging is accounted apart
    /// from compute cycles — see [`StationStats::staging_cycles`].
    pub fn record_staging(&mut self, cycles: usize) {
        self.stats.staged_bands += 1;
        self.stats.staging_cycles += cycles;
    }

    /// Cumulative usage counters since the station was created.
    pub fn stats(&self) -> StationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::{BandMatrix, DenseMatrix};

    /// A banded `4 × 4` product for a `w`-wide hexagonal array.
    fn hex_job(w: usize) -> HexJob<i64> {
        let da = DenseMatrix::from_fn(4, 4, |i, j| i64::from(j >= i && j < i + w));
        let db = DenseMatrix::from_fn(4, 4, |i, j| 2 * i64::from(i >= j && i < j + w));
        HexJob::product(
            BandMatrix::try_from_dense(&da, 0, w - 1).unwrap(),
            BandMatrix::try_from_dense(&db, w - 1, 0).unwrap(),
        )
    }

    /// A plain three-row band stream for a `w`-cell linear array.
    fn mv_stream(w: usize) -> MvStream<i64> {
        let dense = DenseMatrix::from_fn(3, w + 2, |i, j| i64::from(j >= i && j < i + w));
        MvStream {
            band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
            x: vec![1; w + 2],
            y_injections: vec![crate::YInjection::Value(0); 3],
        }
    }

    #[test]
    fn station_accumulates_run_statistics() {
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        assert_eq!(station.size(), w);
        assert_eq!(station.hex().size(), w);
        assert_eq!(station.linear().size(), w);
        let job = hex_job(w);
        let pass = station.run_hex_lanes(&[job.clone(), job]).unwrap().cycles();
        let linear = station.run_mv_lanes(&[[mv_stream(w)]]).unwrap().cycles();
        station.record_staging(40);
        let stats = station.stats();
        // Every lane is billed the pass's full count.
        assert_eq!(stats.hex_runs, 2);
        assert_eq!(stats.hex_cycles, 2 * pass);
        assert_eq!(stats.linear_runs, 1);
        assert_eq!(stats.linear_cycles, linear);
        assert_eq!(stats.staged_bands, 1);
        assert_eq!(stats.staging_cycles, 40);
        // Staging is not compute: total_cycles is unchanged by it.
        assert_eq!(stats.total_cycles(), 2 * pass + linear);
        assert_eq!(stats.total_runs(), 3);
    }

    #[test]
    fn station_runs_attribute_their_steps_structurally() {
        // A solo job is a one-lane pass, billed exactly its solo run.
        let w = 2;
        let mut station = ArrayStation::<i64>::new(w).unwrap();
        let job = hex_job(w);
        let solo = std::slice::from_ref(&job);
        let hex_cycles = station.run_hex_lanes(solo).unwrap().cycles();
        assert_eq!(hex_cycles, station.hex().run(&job).unwrap().cycles);
        let stream = mv_stream(w);
        let linear_cycles = station.run_mv_lanes(&[[stream.clone()]]).unwrap().cycles();
        assert_eq!(
            linear_cycles,
            station.linear().run(&[stream]).unwrap().cycles
        );
        let stats = station.stats();
        assert_eq!(stats.hex_runs, 1);
        assert_eq!(stats.hex_cycles, hex_cycles);
        assert_eq!(stats.linear_runs, 1);
        assert_eq!(stats.linear_cycles, linear_cycles);
    }

    #[test]
    fn failed_runs_record_nothing() {
        let mut station = ArrayStation::<i64>::new(2).unwrap();
        // Wrong band profile: rejected before anything executes.
        let bad = HexJob::product(
            BandMatrix::<i64>::new(4, 4, 1, 1).unwrap(),
            BandMatrix::<i64>::new(4, 4, 1, 0).unwrap(),
        );
        assert!(station.run_hex_lanes(&[bad]).is_err());
        assert_eq!(station.stats().total_runs(), 0);
    }

    #[test]
    fn zero_array_size_is_rejected() {
        assert_eq!(
            ArrayStation::<f64>::new(0).unwrap_err(),
            SimError::ZeroArraySize
        );
    }
}
