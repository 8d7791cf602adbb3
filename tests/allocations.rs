//! The zero-allocation steady-state proof.
//!
//! This integration test binary installs the counting global allocator
//! from `sia-alloc` and drives the serving hot path — raw band jobs
//! through a persistent [`ArrayStation`]'s warm workspaces, exactly what a
//! `sia-runtime` worker executes per job inside the solver `_on` entry
//! points — asserting that **zero heap allocations** happen per job once
//! the workspaces are warm.
//!
//! The binary contains exactly one `#[test]` so no concurrently running
//! test can pollute the process-wide counter.  (Solver-level `_on` calls
//! still allocate their per-job operands and results — those are owned
//! payloads handed to the client — but the engine underneath them, which
//! executes every simulated cycle, allocates nothing.)

use sia_alloc::{allocation_count, CountingAllocator};
use size_independent_systolic::prelude::*;
use size_independent_systolic::runtime::job::JobKind;
use size_independent_systolic::runtime::{EventRing, JobEvent, JobEventKind, LogHistogram};
use size_independent_systolic::sim::{HexJob, MvStream, YInjection};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn band_pair(n: usize, w: usize, seed: u64) -> (BandMatrix<f64>, BandMatrix<f64>) {
    let full = gen::random_dense_f64(n, n, seed);
    let da = DenseMatrix::from_fn(n, n, |i, j| {
        if j >= i && j < i + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    let db = DenseMatrix::from_fn(n, n, |i, j| {
        if i >= j && i < j + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    (
        BandMatrix::try_from_dense(&da, 0, w - 1).unwrap(),
        BandMatrix::try_from_dense(&db, w - 1, 0).unwrap(),
    )
}

#[test]
fn steady_state_station_serving_allocates_nothing() {
    let w = 4;
    let n = 32;

    // A hex job with a feedback injection (exercising the feedback store
    // and event paths) and a linear stream with a feedback chain.
    let (ba, bb) = band_pair(n, w, 11);
    let mut hex_job = HexJob::product(ba, bb);
    std::sync::Arc::make_mut(&mut hex_job.c_injections).push((
        (6, 6),
        size_independent_systolic::sim::CInjection::Feedback { producer: (0, 0) },
    ));

    let rows = 24;
    let cols = rows + w - 1;
    let full = gen::random_dense_f64(rows, cols, 12);
    let dense = DenseMatrix::from_fn(rows, cols, |i, j| {
        if j >= i && j < i + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    let mut y_injections = vec![YInjection::Value(0.5); rows];
    y_injections[5] = YInjection::Feedback { producer_row: 1 };
    let streams = vec![MvStream {
        band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
        x: gen::random_vector_f64(cols, 13),
        y_injections,
    }];

    // Lane-parallel mates of the same shape: value lanes differ per job,
    // and the mates share lane 0's injection schedule (one `Arc`), exactly
    // how the solver builds a coalesced chunk.
    let lanes = 4;
    let hex_lane_jobs: Vec<HexJob<f64>> = (0..lanes as u64)
        .map(|l| {
            let (ba, bb) = band_pair(n, w, 21 + l);
            let mut mate = HexJob::product(ba, bb);
            mate.c_injections = hex_job.c_injections.clone();
            mate
        })
        .collect();
    let mv_lane_jobs: Vec<Vec<MvStream<f64>>> = (0..lanes as u64)
        .map(|l| {
            let mut mate = streams.clone();
            mate[0].x = gen::random_vector_f64(cols, 31 + l);
            mate
        })
        .collect();

    // A second hex structure — other band shapes, its own feedback
    // schedule — alternates with the first inside the timed windows, so
    // every hex pass there rebuilds its tapes in place.
    let (ya, yb) = band_pair(20, w, 41);
    let mut other_job = HexJob::product(ya, yb);
    std::sync::Arc::make_mut(&mut other_job.c_injections).push((
        (9, 9),
        size_independent_systolic::sim::CInjection::Feedback { producer: (2, 2) },
    ));
    let other_lane_jobs: Vec<HexJob<f64>> = (0..lanes as u64)
        .map(|l| {
            let (ba, bb) = band_pair(20, w, 51 + l);
            let mut mate = HexJob::product(ba, bb);
            mate.c_injections = other_job.c_injections.clone();
            mate
        })
        .collect();

    let mut station = ArrayStation::<f64>::new(w).unwrap();

    // Warm-up: the first run of each shape sizes every buffer, including
    // the tapes and the lane-strided value planes.  A solo job is a
    // one-lane pass.
    let solo_hex = std::slice::from_ref(&hex_job);
    let solo_other = std::slice::from_ref(&other_job);
    let solo_mv = std::slice::from_ref(&streams);
    let hex_outputs = station.run_hex_lanes(solo_hex).unwrap().outputs().len();
    let other_outputs = station.run_hex_lanes(solo_other).unwrap().outputs().len();
    let mv_outputs = station.run_mv_lanes(solo_mv).unwrap().outputs().len();
    assert!(hex_outputs > 0 && other_outputs > 0 && mv_outputs > 0);
    station.run_hex_lanes(&hex_lane_jobs).unwrap();
    station.run_hex_lanes(&other_lane_jobs).unwrap();
    station.run_mv_lanes(&mv_lane_jobs).unwrap();
    // The test harness registers this test on its own thread just after
    // starting it, and the counter is process-wide: on a loaded machine
    // that bookkeeping can land in the first window unless the harness
    // thread gets a CPU first.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Steady state: many jobs, zero allocations — solo and lane-parallel,
    // with the hex structure switching on every pass.
    let jobs = 64;
    let before = allocation_count();
    for _ in 0..jobs {
        let hex_scratch = station.run_hex_lanes(solo_hex).unwrap();
        assert_eq!(hex_scratch.outputs().len(), hex_outputs);
        let other_scratch = station.run_hex_lanes(solo_other).unwrap();
        assert_eq!(other_scratch.outputs().len(), other_outputs);
        let mv_scratch = station.run_mv_lanes(solo_mv).unwrap();
        assert_eq!(mv_scratch.outputs().len(), mv_outputs);
    }
    for _ in 0..jobs {
        let hex_scratch = station.run_hex_lanes(&hex_lane_jobs).unwrap();
        assert_eq!(hex_scratch.lanes(), lanes);
        assert_eq!(hex_scratch.outputs().len(), hex_outputs);
        let other_scratch = station.run_hex_lanes(&other_lane_jobs).unwrap();
        assert_eq!(other_scratch.lanes(), lanes);
        assert_eq!(other_scratch.outputs().len(), other_outputs);
        let mv_scratch = station.run_mv_lanes(&mv_lane_jobs).unwrap();
        assert_eq!(mv_scratch.lanes(), lanes);
        assert_eq!(mv_scratch.outputs().len(), mv_outputs);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "farm steady state must be allocation-free: {} allocations over {jobs} \
         solo and {jobs} lane-parallel passes of each of two hex structures and one mv",
        after - before
    );

    // MM band staging allocates the two bands and nothing else: the
    // builders read A and B in place rather than copying out w x w blocks.
    // (Same `#[test]`: the process-wide counter must not race a concurrent
    // test.)
    {
        use size_independent_systolic::dbt::{build_a_hat, build_b_hat};
        let (n, w) = (64, 4);
        let a = gen::random_dense_f64(n, n, 71);
        let b = gen::random_dense_f64(n, n, 72);
        let before = allocation_count();
        let a_hat = build_a_hat(&a, n / w, w).unwrap();
        let b_hat = build_b_hat(&b, n / w, w).unwrap();
        let staged = allocation_count() - before;
        assert!(
            staged <= 2,
            "staging the bands of a 64^3 MM job on w = 4 must allocate only \
             the two bands: {staged} allocations"
        );
        assert_eq!(a_hat.rows(), w * (n / w).pow(3) + w - 1);
        assert_eq!(b_hat.rows(), a_hat.rows());
    }

    // The observability layer must be equally allocation-free in steady
    // state: event rings and log-bucketed histograms preallocate
    // everything up front, so recording — including ring wrap-around and
    // histogram records across the full value range — touches only the
    // fixed slots.  (Same `#[test]` on purpose: the process-wide counter
    // must not race a concurrent test.)
    let ring = EventRing::new(64);
    let histogram = LogHistogram::new();
    let event = JobEvent {
        at: std::time::Duration::from_micros(7),
        job: 1,
        kind: JobEventKind::Dispatched,
        tenant: 3,
        shape: JobKind::DenseMv,
        worker: Some(1),
        predicted_cycles: 1234,
    };
    ring.record(&event);
    histogram.record(1);
    let before = allocation_count();
    for i in 0..1_000u64 {
        // 64-slot ring, 1000 records: the overwrite-oldest path runs hot.
        ring.record(&JobEvent {
            job: i,
            at: std::time::Duration::from_micros(i),
            ..event
        });
        histogram.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "trace ring and latency histogram recording must be allocation-free \
         in steady state: {} allocations over 1000 records each",
        after - before
    );
    assert_eq!(ring.recorded(), 1_001);
    assert_eq!(ring.dropped(), 1_001 - 64);
    assert_eq!(histogram.snapshot().count(), 1_001);

    // The whole farm, end-to-end: a warm farm serving repeat-operand
    // dense-MM traffic allocates nothing per job.  Operand identity makes
    // this possible — the bands are resident in the worker's `BandCache`
    // (three `Arc` bumps per serve), reply slots and output matrices are
    // pooled (the client returns outputs via `ArrayFarm::recycle`), and
    // the dispatch loop runs on pre-sized scratch.  (Same `#[test]` again:
    // the process-wide counter must not race a concurrent test.)
    {
        use size_independent_systolic::runtime::OperandRef;
        let w = 4;
        let farm = ArrayFarm::new(
            FarmConfig::new(w)
                .hex_workers(1)
                .linear_workers(0)
                .coalesce_limit(1)
                .band_cache(8),
        )
        .unwrap();
        let a = OperandRef::named(0xA, gen::random_dense_f64(24, 24, 51));
        let b = OperandRef::named(0xB, gen::random_dense_f64(24, 24, 52));
        // Warm-up: stages both bands into the worker's cache and sizes
        // every pool (reply slots, output matrices, queue buffers, the
        // station's workspaces).
        for _ in 0..16 {
            let receipt = farm
                .submit(Job::dense_mm(a.clone(), b.clone()))
                .unwrap()
                .wait()
                .unwrap();
            farm.recycle(receipt.output);
        }
        let farm_jobs = 64;
        let before = allocation_count();
        for _ in 0..farm_jobs {
            let receipt = farm
                .submit(Job::dense_mm(a.clone(), b.clone()))
                .unwrap()
                .wait()
                .unwrap();
            farm.recycle(receipt.output);
        }
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "a warm farm serving repeat-operand MM jobs must be \
             allocation-free end-to-end: {} allocations over {farm_jobs} jobs",
            after - before
        );
        // Outside the measured window: the serves really were residency
        // hits with staging priced at zero, and the prediction stayed
        // exact.
        let receipt = farm
            .submit(Job::dense_mm(a.clone(), b.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(receipt.operand_hit, "warm serve must hit the band cache");
        assert_eq!(receipt.staging_cycles, 0);
        assert!(receipt.prediction_exact());
        let snapshot = farm.snapshot();
        assert!(snapshot.operand_hits() >= farm_jobs);
        assert!((snapshot.exact_prediction_fraction() - 1.0).abs() < f64::EPSILON);
        farm.shutdown();
    }

    // Coalesced serving is the same path, so it is equally allocation-free:
    // bursts of same-shape repeat-operand MM jobs queue behind a blocker (a
    // resident job of another shape, so it never coalesces with them) and
    // are served as multi-job lane passes.  Every output has the same
    // shape, so recycled matrices fit whichever job pops them.  A burst
    // plus its blocker stays within 16 jobs, and outputs go back to the
    // pool only once the whole burst is served, so the queue, the pools and
    // the serve buffers all reach their final capacity during warm-up
    // however the worker happens to split the bursts.
    {
        use size_independent_systolic::runtime::{JobOutput, JobTicket, OperandRef};
        let w = 4;
        let burst = 14;
        let farm = ArrayFarm::new(
            FarmConfig::new(w)
                .hex_workers(1)
                .linear_workers(0)
                .lanes(16)
                .coalesce_limit(16)
                .band_cache(8),
        )
        .unwrap();
        let a = OperandRef::named(0xA, gen::random_dense_f64(24, 24, 61));
        let b = OperandRef::named(0xB, gen::random_dense_f64(24, 24, 62));
        let long_a = OperandRef::named(0xC, gen::random_dense_f64(24, 192, 63));
        let long_b = OperandRef::named(0xD, gen::random_dense_f64(192, 24, 64));
        let mut tickets: Vec<JobTicket> = Vec::with_capacity(burst + 1);
        let mut outputs: Vec<JobOutput> = Vec::with_capacity(burst + 1);
        let mut serve_burst = || {
            tickets.push(
                farm.submit(Job::dense_mm(long_a.clone(), long_b.clone()))
                    .unwrap(),
            );
            for _ in 0..burst {
                tickets.push(farm.submit(Job::dense_mm(a.clone(), b.clone())).unwrap());
            }
            outputs.extend(tickets.drain(..).map(|t| t.wait().unwrap().output));
            for output in outputs.drain(..) {
                farm.recycle(output);
            }
        };
        // Warm-up: stages all four bands and sizes the lane planes, the
        // pools and the worker's serve buffers at full lane width.
        for _ in 0..4 {
            serve_burst();
        }
        let bursts = 4;
        let before = allocation_count();
        for _ in 0..bursts {
            serve_burst();
        }
        let after = allocation_count();
        let coalesced_jobs = bursts * (burst + 1);
        assert_eq!(
            after - before,
            0,
            "a warm farm serving coalesced repeat-operand MM bursts must be \
             allocation-free end-to-end: {} allocations over {coalesced_jobs} jobs",
            after - before
        );
        let snapshot = farm.snapshot();
        let multi_job_passes: u64 = snapshot.lane_occupancy()[1..].iter().sum();
        assert!(multi_job_passes > 0, "the bursts must run as lane passes");
        assert!((snapshot.exact_prediction_fraction() - 1.0).abs() < f64::EPSILON);
        farm.shutdown();
    }

    // Sanity: the counter is actually live (building a vector allocates).
    let probe: Vec<u64> = (0..1024).collect();
    assert!(allocation_count() > after, "counter must observe {probe:?}");
}
