//! Randomized property tests over the core invariants:
//!
//! * the DBT band is completely filled and carries every original element
//!   exactly once;
//! * transform → simulate → extract equals the host reference for arbitrary
//!   shapes, array sizes and data, for both matrix–vector and matrix–matrix
//!   problems;
//! * the measured step counts equal the paper's closed forms;
//! * the measured utilization never exceeds the paper's bound;
//! * the tape-driven engines' outcomes (values, cycle counts, feedback
//!   summaries) agree with the analytic predictions, and lane passes —
//!   fresh, cold-cache and warm-cache — are bit-identical to solo runs;
//! * the farm's lifecycle: under every policy, cancellation racing dispatch
//!   resolves to exactly one of receipt/`Cancelled`, and the telemetry
//!   books balance (completed + cancelled == submitted).
//!
//! The build environment has no crates.io access, so instead of proptest
//! the cases are drawn from the workspace's own deterministic generator
//! ([`sia_matrix::rng::SplitMix64`]): every test sweeps a fixed number of
//! seeded random shapes, so failures reproduce exactly.

use sia_matrix::rng::SplitMix64;
use size_independent_systolic::dbt::{ext, sparse};
use size_independent_systolic::dbt::{multiply_mm_on, multiply_mv_on, MvProblem};
use size_independent_systolic::prelude::*;
use size_independent_systolic::runtime::{JobOutput, JobTicket};
use size_independent_systolic::sim::{
    CInjection, HexJob, HexScratch, LinearArray, LinearScratch, MvStream, YInjection,
};
use std::collections::HashSet;

const CASES: usize = 48;

fn random_matrix(rng: &mut SplitMix64, n: usize, m: usize) -> DenseMatrix<i64> {
    let seed = rng.next_u64();
    gen::random_dense_i64(n, m, 9, seed)
}

#[test]
fn dbt_band_holds_every_element_exactly_once() {
    let mut rng = SplitMix64::new(0xDB7);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 10);
        let m = rng.range_usize(1, 10);
        let w = rng.range_usize(1, 5);
        let a = random_matrix(&mut rng, n, m);
        let dbt = DbtByRows::new(&a, w).unwrap();
        let mut seen = HashSet::new();
        let nbar = n.div_ceil(w);
        let mbar = m.div_ceil(w);
        for (i, j, v) in dbt.band().iter() {
            let (oi, oj) = dbt
                .source_of(i, j)
                .expect("stored positions have provenance");
            assert_eq!(v, a.at_padded(oi, oj), "n={n} m={m} w={w}");
            assert!(
                seen.insert((oi, oj)),
                "element ({oi}, {oj}) duplicated (n={n} m={m} w={w})"
            );
        }
        assert_eq!(seen.len(), nbar * w * mbar * w, "n={n} m={m} w={w}");
    }
}

#[test]
fn mv_matches_reference_and_formula() {
    let mut rng = SplitMix64::new(0x4D56);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 10);
        let m = rng.range_usize(1, 10);
        let w = rng.range_usize(1, 5);
        let overlap = rng.next_bool(0.5);
        let a = random_matrix(&mut rng, n, m);
        let x: Vec<i64> = (0..m as i64).map(|v| (v % 5) - 2).collect();
        let b: Vec<i64> = (0..n as i64).map(|v| (v % 7) - 3).collect();
        let schedule = if overlap {
            MvSchedule::Overlapped
        } else {
            MvSchedule::Simple
        };
        let outcome = multiply_mv(&a, &x, Some(&b), w, schedule).unwrap();
        let mut expected = a.matvec(&x).unwrap();
        for (slot, v) in expected.iter_mut().zip(&b) {
            *slot += v;
        }
        assert_eq!(outcome.y, expected, "n={n} m={m} w={w} overlap={overlap}");
        let shape = MvShape { w, n, m };
        match schedule {
            MvSchedule::Simple => assert_eq!(outcome.cycles, shape.cycles()),
            MvSchedule::Overlapped => assert!(outcome.cycles <= shape.cycles()),
        }
        // The paper's utilization bound is never exceeded.
        assert!(outcome.efficiency <= 1.0 + 1e-12);
    }
}

#[test]
fn mm_matches_reference_and_formula() {
    let mut rng = SplitMix64::new(0x4D4D);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 6);
        let p = rng.range_usize(1, 6);
        let m = rng.range_usize(1, 6);
        let w = rng.range_usize(1, 4);
        let a = random_matrix(&mut rng, n, p);
        let b = random_matrix(&mut rng, p, m);
        let outcome = multiply_mm(&a, &b, None, w).unwrap();
        assert_eq!(outcome.c, a.matmul(&b).unwrap(), "n={n} p={p} m={m} w={w}");
        let shape = MmShape { w, n, p, m };
        assert_eq!(outcome.cycles, shape.cycles(), "n={n} p={p} m={m} w={w}");
        // Each cell fires at most once every three cycles, so the activity is
        // bounded by ceil(T/3)/T <= 1/3 + 1/T.
        assert!(outcome.activity <= 1.0 / 3.0 + 1.0 / outcome.cycles as f64 + 1e-12);
    }
}

#[test]
fn band_matrix_round_trips_through_dense() {
    let mut rng = SplitMix64::new(0xBA4D);
    for _ in 0..CASES {
        let rows = rng.range_usize(1, 9);
        let cols = rng.range_usize(1, 9);
        let lower = rng.range_usize(0, 4);
        let upper = rng.range_usize(0, 4);
        let seed = rng.next_u64();
        let dense = gen::banded_random_f64(rows, cols, lower, upper, seed);
        let band = BandMatrix::try_from_dense(&dense, lower, upper).unwrap();
        assert_eq!(band.to_dense(), dense);
        assert!(band.occupancy() <= 1.0);
    }
}

#[test]
fn block_grid_reassembles_the_original() {
    let mut rng = SplitMix64::new(0xB10C);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 11);
        let m = rng.range_usize(1, 11);
        let w = rng.range_usize(1, 6);
        let a = random_matrix(&mut rng, n, m);
        let grid = BlockGrid::new(n, m, w).unwrap();
        let mut out = DenseMatrix::zeros(n, m);
        for (bi, bj) in grid.block_coords() {
            let block = grid.block(&a, bi, bj).unwrap();
            grid.paste_block(&mut out, bi, bj, &block).unwrap();
        }
        assert_eq!(out, a);
    }
}

// ---------------------------------------------------------------------------
// Engine equivalence: the tape-driven engines against the paper's analytic
// predictions.
// ---------------------------------------------------------------------------

#[test]
fn mv_engine_agrees_with_analytic_predictions_including_feedback() {
    let mut rng = SplitMix64::new(0xFEED);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 12);
        let m = rng.range_usize(1, 12);
        let w = rng.range_usize(1, 5);
        let a = random_matrix(&mut rng, n, m);
        let x: Vec<i64> = gen::random_vector_i64(m, 6, rng.next_u64());
        let outcome = multiply_mv(&a, &x, None, w, MvSchedule::Simple).unwrap();
        let shape = MvShape { w, n, m };
        assert_eq!(outcome.cycles, shape.cycles(), "n={n} m={m} w={w}");
        assert!((outcome.efficiency - shape.efficiency_for(outcome.cycles)).abs() < 1e-12);
        // Feedback: n̄·(m̄−1)·w values, each stored exactly w cycles, at most
        // the paper's register count in flight.
        let summary = &outcome.feedback[0];
        let expected_events = shape.nbar() * (shape.mbar() - 1) * w;
        assert_eq!(summary.len(), expected_events, "n={n} m={m} w={w}");
        if expected_events > 0 {
            assert_eq!(summary.distinct_storage_cycles(), vec![w]);
            assert!(summary.max_in_flight <= shape.feedback_registers());
        }
    }
}

#[test]
fn mm_engine_agrees_with_analytic_predictions_including_feedback() {
    let mut rng = SplitMix64::new(0xFEE2);
    for _ in 0..CASES / 2 {
        let n = rng.range_usize(1, 6);
        let p = rng.range_usize(1, 6);
        let m = rng.range_usize(1, 6);
        let w = rng.range_usize(1, 4);
        let a = random_matrix(&mut rng, n, p);
        let b = random_matrix(&mut rng, p, m);
        let outcome = multiply_mm(&a, &b, None, w).unwrap();
        let shape = MmShape { w, n, p, m };
        assert_eq!(outcome.cycles, shape.cycles(), "n={n} p={p} m={m} w={w}");
        assert!((outcome.efficiency - shape.efficiency_for(outcome.cycles)).abs() < 1e-12);
        // Paper §3: every fed-back partial result waits at least w cycles,
        // and the regular delay w occurs whenever anything is fed back at
        // all (p̄·n̄·m̄ > 1 ⟹ some chain has more than one member).
        let delays = outcome.feedback.distinct_storage_cycles();
        assert!(delays.iter().all(|&d| d >= w), "delays {delays:?} w={w}");
        if shape.pbar() > 1 && w > 1 {
            assert!(
                delays.contains(&w),
                "delays {delays:?} should contain w={w}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace-reuse properties: a reused scratch (and a reused station) is
// bit-identical to fresh runs across randomized shapes — the correctness
// contract of the zero-allocation steady state.
// ---------------------------------------------------------------------------

#[test]
fn reused_hex_scratch_is_bit_identical_to_fresh_runs_across_random_shapes() {
    let mut rng = SplitMix64::new(0x5C4A);
    let w = 3;
    let hex = HexArray::new(w).unwrap();
    // ONE scratch across all cases: sizes shrink and grow between runs.
    let mut scratch = HexScratch::new();
    for _ in 0..CASES {
        let n = rng.range_usize(2, 12);
        let full = random_matrix(&mut rng, n, n);
        let da = DenseMatrix::from_fn(n, n, |i, j| {
            if j >= i && j < i + w {
                full.at(i, j)
            } else {
                0
            }
        });
        let full_b = random_matrix(&mut rng, n, n);
        let db = DenseMatrix::from_fn(n, n, |i, j| {
            if i >= j && i < j + w {
                full_b.at(i, j)
            } else {
                0
            }
        });
        let mut job = HexJob::product(
            BandMatrix::try_from_dense(&da, 0, w - 1).unwrap(),
            BandMatrix::try_from_dense(&db, w - 1, 0).unwrap(),
        );
        if n > 4 && rng.next_bool(0.5) {
            // Random feedback chain within the band.
            std::sync::Arc::make_mut(&mut job.c_injections)
                .push(((4, 4), CInjection::Feedback { producer: (1, 1) }));
        }
        let fresh = hex.run(&job).unwrap();
        hex.run_with(&job, &mut scratch).unwrap();
        assert_eq!(
            scratch.outputs().collect::<Vec<_>>(),
            fresh.outputs,
            "n={n}"
        );
        assert_eq!(scratch.cycles(), fresh.cycles, "n={n}");
        assert_eq!(scratch.last_fire_cycle(), fresh.last_fire_cycle);
        assert_eq!(scratch.utilization(), fresh.utilization, "n={n}");
        assert_eq!(scratch.feedback_summary(), fresh.feedback, "n={n}");
    }
}

#[test]
fn reused_linear_scratch_is_bit_identical_to_fresh_runs_across_random_shapes() {
    let mut rng = SplitMix64::new(0x5C4B);
    let w = 3;
    let array = LinearArray::new(w).unwrap();
    let mut scratch = LinearScratch::new();
    for _ in 0..CASES {
        let n_streams = rng.range_usize(1, 3);
        let streams: Vec<MvStream<i64>> = (0..n_streams)
            .map(|_| {
                let rows = rng.range_usize(1, 12);
                let cols = rows + w - 1;
                let full = random_matrix(&mut rng, rows, cols);
                let dense = DenseMatrix::from_fn(rows, cols, |i, j| {
                    if j >= i && j < i + w {
                        full.at(i, j)
                    } else {
                        0
                    }
                });
                let mut y_injections = vec![YInjection::Value(1); rows];
                if rows > 4 {
                    y_injections[4] = YInjection::Feedback { producer_row: 0 };
                }
                MvStream {
                    band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
                    x: gen::random_vector_i64(cols, 5, rng.next_u64()),
                    y_injections,
                }
            })
            .collect();
        let fresh = array.run(&streams).unwrap();
        array.run_with(&streams, &mut scratch).unwrap();
        assert_eq!(scratch.outputs(), &fresh.outputs[..]);
        assert_eq!(scratch.cycles(), fresh.cycles);
        assert_eq!(scratch.utilization(), fresh.utilization);
        assert_eq!(scratch.feedback_summaries(), fresh.feedback);
    }
}

#[test]
fn shared_station_solver_runs_match_fresh_solver_runs() {
    // One station serves a random mixed sequence of mm/mv/sparse jobs; every
    // outcome must be bit-identical to the per-call transient path, and the
    // station must account exactly the cycles the outcomes report.
    let mut rng = SplitMix64::new(0x57A7);
    let w = 3;
    let mut station = ArrayStation::<f64>::new(w).unwrap();
    let mut expected_cycles = 0usize;
    for _ in 0..CASES / 2 {
        let n = rng.range_usize(1, 8);
        let m = rng.range_usize(1, 8);
        match rng.range_usize(0, 3) {
            0 => {
                let p = rng.range_usize(1, 8);
                let a = gen::random_dense_f64(n, p, rng.next_u64());
                let b = gen::random_dense_f64(p, m, rng.next_u64());
                let shared = multiply_mm_on(&mut station, &a, &b, None).unwrap();
                let fresh = multiply_mm(&a, &b, None, w).unwrap();
                assert_eq!(shared.c, fresh.c);
                assert_eq!(shared.cycles, fresh.cycles);
                assert_eq!(shared.feedback, fresh.feedback);
                expected_cycles += shared.cycles;
            }
            1 => {
                let a = gen::random_dense_f64(n, m, rng.next_u64());
                let x = gen::random_vector_f64(m, rng.next_u64());
                let schedule = if rng.next_bool(0.5) {
                    MvSchedule::Overlapped
                } else {
                    MvSchedule::Simple
                };
                let shared = multiply_mv_on(&mut station, &a, &x, None, schedule).unwrap();
                let fresh = multiply_mv(&a, &x, None, w, schedule).unwrap();
                assert_eq!(shared.y, fresh.y);
                assert_eq!(shared.cycles, fresh.cycles);
                assert_eq!(shared.feedback, fresh.feedback);
                expected_cycles += shared.cycles;
            }
            _ => {
                let a = gen::block_sparse_f64(n, m, w, rng.range_f64(0.0, 1.0), rng.next_u64());
                let x = gen::random_vector_f64(m, rng.next_u64());
                let shared =
                    sparse::multiply_mv_block_sparse_on(&mut station, &a, &x, None).unwrap();
                let fresh = sparse::multiply_mv_block_sparse(&a, &x, None, w).unwrap();
                assert_eq!(shared.outcome.y, fresh.outcome.y);
                assert_eq!(shared.outcome.cycles, fresh.outcome.cycles);
                expected_cycles += shared.outcome.cycles;
            }
        }
    }
    assert_eq!(
        station.stats().total_cycles(),
        expected_cycles,
        "structural attribution must account exactly the served cycles"
    );
}

// ---------------------------------------------------------------------------
// Scheduler properties: under every policy and worker count, every submitted
// job completes exactly once with results identical to the direct solver
// call.
// ---------------------------------------------------------------------------

/// Draws a random mixed job and computes its reference result through the
/// direct (non-farm) solver call.
fn random_job_with_reference(
    rng: &mut SplitMix64,
    w: usize,
) -> (size_independent_systolic::runtime::Job, JobOutput) {
    use size_independent_systolic::runtime::Job;
    let n = rng.range_usize(1, 9);
    let m = rng.range_usize(1, 9);
    match rng.range_usize(0, 5) {
        0 => {
            let p = rng.range_usize(1, 9);
            let a = gen::random_dense_f64(n, p, rng.next_u64());
            let b = gen::random_dense_f64(p, m, rng.next_u64());
            let reference = multiply_mm(&a, &b, None, w).unwrap().c;
            (Job::dense_mm(a, b), JobOutput::Matrix(reference))
        }
        1 => {
            let a = gen::random_dense_f64(n, m, rng.next_u64());
            let x = gen::random_vector_f64(m, rng.next_u64());
            let schedule = if rng.next_bool(0.5) {
                MvSchedule::Overlapped
            } else {
                MvSchedule::Simple
            };
            let reference = multiply_mv(&a, &x, None, w, schedule).unwrap().y;
            (
                Job::DenseMv {
                    a: a.into(),
                    x,
                    b: None,
                    schedule,
                },
                JobOutput::Vector(reference),
            )
        }
        2 => {
            let a = gen::block_sparse_f64(n, m, w, rng.range_f64(0.0, 1.0), rng.next_u64());
            let x = gen::random_vector_f64(m, rng.next_u64());
            let reference = sparse::multiply_mv_block_sparse(&a, &x, None, w)
                .unwrap()
                .outcome
                .y;
            (Job::block_sparse_mv(a, x), JobOutput::Vector(reference))
        }
        3 => {
            let lower = rng.next_bool(0.5);
            let a = if lower {
                gen::lower_triangular_f64(n, rng.next_u64())
            } else {
                gen::lower_triangular_f64(n, rng.next_u64()).transpose()
            };
            let c = gen::random_vector_f64(n, rng.next_u64());
            let reference = if lower {
                ext::solve_lower(&a, &c, w).unwrap().x
            } else {
                ext::solve_upper(&a, &c, w).unwrap().x
            };
            (
                Job::TriangularSolve { a, c, lower },
                JobOutput::Vector(reference),
            )
        }
        _ => {
            let a = gen::diagonally_dominant_f64(n, rng.next_u64());
            let b = gen::random_vector_f64(n, rng.next_u64());
            let reference = ext::gauss_seidel(&a, &b, w, 1e-9, 200).unwrap().x;
            (
                Job::GaussSeidel {
                    a,
                    b,
                    tol: 1e-9,
                    max_sweeps: 200,
                },
                JobOutput::Vector(reference),
            )
        }
    }
}

#[test]
fn farm_serves_every_job_exactly_once_with_direct_call_results() {
    let w = 3;
    let mut rng = SplitMix64::new(0xFA23);
    for policy in Policy::ALL {
        for workers in 1..=8usize {
            // `workers` of each class, so every job kind is servable at
            // every count.
            let farm = ArrayFarm::new(
                FarmConfig::new(w)
                    .hex_workers(workers)
                    .linear_workers(workers)
                    .policy(policy),
            )
            .unwrap();
            let jobs: Vec<_> = (0..10)
                .map(|_| random_job_with_reference(&mut rng, w))
                .collect();
            let tickets: Vec<(JobTicket, &JobOutput)> = jobs
                .iter()
                .map(|(job, reference)| {
                    // Deadlines are enforced since the lifecycle work (an
                    // expired job is shed, not served), so the random
                    // deadlines are in whole seconds — ordering keys under
                    // EDF that can never expire mid-test on a loaded
                    // machine.
                    let spec = JobSpec::new(job.clone())
                        .priority((rng.range_usize(0, 3)) as u8)
                        .deadline(std::time::Duration::from_secs(
                            rng.range_usize(30, 300) as u64
                        ));
                    (farm.submit(spec).unwrap(), reference)
                })
                .collect();
            let mut seen_ids = HashSet::new();
            for (ticket, reference) in tickets {
                let id = ticket.id();
                let receipt = ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("policy {} workers {workers}: {e}", policy.label()));
                assert_eq!(receipt.id, id);
                assert!(
                    seen_ids.insert(receipt.id),
                    "job {id} delivered twice (policy {}, workers {workers})",
                    policy.label()
                );
                // Bit-identical to the direct solver call.
                assert_eq!(
                    &receipt.output,
                    reference,
                    "policy {} workers {workers} job {id} ({:?})",
                    policy.label(),
                    receipt.kind
                );
                // Exact closed-form predictions are always met exactly.
                if receipt.predicted.exact {
                    assert_eq!(
                        receipt.predicted.cycles,
                        receipt.measured_cycles,
                        "policy {} workers {workers} job {id} ({:?})",
                        policy.label(),
                        receipt.kind
                    );
                }
            }
            let telemetry = farm.shutdown();
            assert_eq!(telemetry.submitted, 10);
            assert_eq!(telemetry.completed(), 10, "every job served exactly once");
            assert_eq!(telemetry.workers.len(), 2 * workers);
        }
    }
}

#[test]
fn cancellation_races_resolve_to_exactly_one_outcome() {
    // Under every policy, cancelling random tickets while the farm races to
    // dispatch them yields exactly one resolution per job: a successful
    // `cancel()` is always followed by `FarmError::Cancelled` (the job
    // never ran), a failed one by a normal bit-identical receipt, and the
    // telemetry books balance: completed + cancelled == submitted.
    let w = 3;
    let jobs_per_policy = 24u64;
    let mut rng = SplitMix64::new(0xCA9C);
    for policy in Policy::ALL {
        let farm = ArrayFarm::new(FarmConfig::new(w).policy(policy)).unwrap();
        let jobs: Vec<_> = (0..jobs_per_policy)
            .map(|_| random_job_with_reference(&mut rng, w))
            .collect();
        let tickets: Vec<(JobTicket, &JobOutput)> = jobs
            .iter()
            .map(|(job, reference)| (farm.submit(JobSpec::new(job.clone())).unwrap(), reference))
            .collect();
        let mut cancelled = 0u64;
        let mut served = 0u64;
        for (ticket, reference) in tickets {
            let cancel_won = rng.next_bool(0.5) && ticket.cancel();
            cancelled += u64::from(cancel_won);
            match ticket.wait() {
                Ok(receipt) => {
                    assert!(
                        !cancel_won,
                        "policy {}: cancelled job {} still delivered a receipt",
                        policy.label(),
                        receipt.id
                    );
                    // Dispatch won the race: the job ran normally, to the
                    // direct solver call's exact result.
                    assert_eq!(&receipt.output, reference, "policy {}", policy.label());
                    served += 1;
                }
                Err(FarmError::Cancelled) => {
                    assert!(
                        cancel_won,
                        "policy {}: uncancelled job resolved as cancelled",
                        policy.label()
                    );
                }
                Err(e) => panic!("policy {}: unexpected resolution {e}", policy.label()),
            }
        }
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.cancelled, cancelled);
        assert_eq!(served + cancelled, jobs_per_policy);
        assert_eq!(
            telemetry.completed() as u64 + telemetry.cancelled,
            telemetry.submitted,
            "policy {}: lifecycle books must balance",
            policy.label()
        );
    }
}

#[test]
fn mm_lane_parallel_batches_are_bit_identical_to_solo_runs() {
    use size_independent_systolic::dbt::{
        multiply_mm_resident_lanes_on, BandCache, MmResidentProblem, OperandRef,
    };
    let mut rng = SplitMix64::new(0x1A9E5);
    // Lane counts below, at, and between the powers the serving runtime
    // uses, plus ragged batches that do not divide the maximum pass width.
    for &batch in &[1usize, 2, 3, 4, 8, 19] {
        let w = rng.range_usize(1, 5);
        let n = rng.range_usize(1, 7);
        let p = rng.range_usize(1, 7);
        let m = rng.range_usize(1, 7);
        let with_e = batch % 2 == 0;
        type MmCase = (OperandRef<i64>, OperandRef<i64>, Option<DenseMatrix<i64>>);
        let mats: Vec<MmCase> = (0..batch as u64)
            .map(|i| {
                let a = OperandRef::named(2 * i, random_matrix(&mut rng, n, p));
                let b = OperandRef::named(2 * i + 1, random_matrix(&mut rng, p, m));
                let e = with_e.then(|| random_matrix(&mut rng, n, m));
                (a, b, e)
            })
            .collect();
        let problems: Vec<MmResidentProblem<'_, i64>> = mats
            .iter()
            .map(|(a, b, e)| MmResidentProblem {
                a,
                b,
                e: e.as_ref(),
            })
            .collect();
        let mut station = ArrayStation::new(w).unwrap();
        // A capacity-0 cache transforms every lane fresh; a cache holding
        // every band stages on its cold pass and only hits on its warm one.
        let mut fresh = BandCache::new(w, 0);
        let mut resident = BandCache::new(w, 2 * batch);
        let arms = [
            (
                "fresh",
                multiply_mm_resident_lanes_on(&mut station, &mut fresh, &problems),
            ),
            (
                "cold",
                multiply_mm_resident_lanes_on(&mut station, &mut resident, &problems),
            ),
            (
                "warm",
                multiply_mm_resident_lanes_on(&mut station, &mut resident, &problems),
            ),
        ];
        for (arm, run) in arms {
            let (lanes, reports) = run.unwrap();
            assert_eq!(lanes.len(), batch);
            for (p, laned) in problems.iter().zip(&lanes) {
                let solo = multiply_mm(p.a, p.b, p.e, w).unwrap();
                assert_eq!(laned.c, solo.c, "{arm}: batch of {batch} on w={w}");
                assert_eq!(laned.cycles, solo.cycles);
                assert_eq!(laned.efficiency, solo.efficiency);
                assert_eq!(laned.activity, solo.activity);
                assert_eq!(laned.feedback, solo.feedback);
            }
            assert_eq!(
                reports.iter().all(|r| r.operand_hit()),
                arm == "warm",
                "{arm}: batch of {batch}"
            );
        }
    }
}

#[test]
fn mm_lane_parallel_tape_reuse_follows_every_structure_switch() {
    tape_reuse_sequence::<i64>(|n, m, seed| gen::random_dense_i64(n, m, 9, seed));
    tape_reuse_sequence::<f64>(gen::random_dense_f64);
}

/// How one step of [`tape_reuse_sequence`] is served.
#[derive(Clone, Copy, PartialEq)]
enum Serve {
    /// One lane pass through a capacity-0 cache: every lane stages its own
    /// bands.
    Lanes,
    /// One fresh solve per problem (a new schedule `Arc` per call).
    Fresh,
    /// Every lane names one `B` operand, served through a cache that keeps
    /// it, so the lanes hold one resident `B` band.
    SharedB,
    /// Every lane names one `A` and one `B` operand, served the same way.
    SharedAB,
}

/// One station serves, at 1, 3 and again 1 lanes: shape X, a shape Y whose
/// bands have X's shapes but whose accumulation plan differs, a shape Z
/// with other band shapes, X twice, X with an additive term (each problem
/// then carries its own, structurally equal schedule `Arc`), X again, X as
/// fresh solves, and X with every lane sharing its `B`, then its `A` and
/// `B`, through a cache of capacity > 0 (both through
/// `multiply_mm_resident_lanes_on` and `multiply_mm_resident_into`).  The
/// engine's tapes are therefore rebuilt, reused by pointer and reused by
/// structure, and shared bands are broadcast across the lanes; every lane
/// must match a solo solve on a new station.
fn tape_reuse_sequence<T: Scalar>(random: impl Fn(usize, usize, u64) -> DenseMatrix<T>) {
    use size_independent_systolic::dbt::{
        build_a_hat, build_b_hat, multiply_mm_resident_into, multiply_mm_resident_lanes_on,
        BandCache, MmOutcome, MmResidentProblem, OperandRef, StagingReport,
    };
    let w = 3;
    let (x, y, z) = ((6, 3, 3), (3, 3, 6), (5, 7, 4));
    let band_shapes = |(n, p, m): (usize, usize, usize)| {
        let a_hat = build_a_hat(&random(n, p, 1), m.div_ceil(w), w).unwrap();
        let b_hat = build_b_hat(&random(p, m, 2), n.div_ceil(w), w).unwrap();
        (a_hat.band_shape(), b_hat.band_shape())
    };
    assert_eq!(band_shapes(x), band_shapes(y));
    assert_ne!(band_shapes(x), band_shapes(z));
    let mut station = ArrayStation::<T>::new(w).unwrap();
    let mut cache = BandCache::new(w, 0);
    let mut resident = BandCache::new(w, 8);
    let mut seed = 0u64;
    for lanes in [1usize, 3, 1] {
        let steps = [
            (x, false, Serve::Lanes),
            (y, false, Serve::Lanes),
            (z, false, Serve::Lanes),
            (x, false, Serve::Lanes),
            (x, false, Serve::Lanes),
            (x, true, Serve::Lanes),
            (x, false, Serve::Lanes),
            (x, true, Serve::Fresh),
            (x, false, Serve::SharedB),
            (x, false, Serve::SharedAB),
        ];
        for (step, ((n, p, m), with_e, serve)) in steps.into_iter().enumerate() {
            type Case<T> = (OperandRef<T>, OperandRef<T>, Option<DenseMatrix<T>>);
            let mut ops: Vec<Case<T>> = (0..lanes)
                .map(|_| {
                    seed += 3;
                    let a = OperandRef::named(seed, random(n, p, seed));
                    let b = OperandRef::named(seed + 1, random(p, m, seed + 1));
                    (a, b, with_e.then(|| random(n, m, seed + 2)))
                })
                .collect();
            let shared = [
                serve == Serve::SharedAB,
                serve != Serve::Lanes && serve != Serve::Fresh,
            ];
            for lane in 1..lanes {
                if shared[0] {
                    ops[lane].0 = ops[0].0.clone();
                }
                if shared[1] {
                    ops[lane].1 = ops[0].1.clone();
                }
            }
            let problems: Vec<MmResidentProblem<'_, T>> = ops
                .iter()
                .map(|(a, b, e)| MmResidentProblem {
                    a,
                    b,
                    e: e.as_ref(),
                })
                .collect();
            let outcomes: Vec<MmOutcome<T>> = match serve {
                Serve::Fresh => problems
                    .iter()
                    .map(|p| multiply_mm_on(&mut station, p.a, p.b, p.e).unwrap())
                    .collect(),
                Serve::Lanes => {
                    multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems)
                        .unwrap()
                        .0
                }
                Serve::SharedB | Serve::SharedAB => {
                    let (outcomes, reports) =
                        multiply_mm_resident_lanes_on(&mut station, &mut resident, &problems)
                            .unwrap();
                    // Lanes after the first hit the band lane 0 staged, so
                    // every lane holds that one resident band.
                    let shared_hits = shared.iter().filter(|&&s| s).count() as u32;
                    for (lane, report) in reports.iter().enumerate().skip(1) {
                        assert_eq!(report.hits, shared_hits, "step {step}, lane {lane}");
                    }
                    let mut outs = vec![DenseMatrix::zeros(0, 0); lanes];
                    let mut reports = vec![StagingReport::default(); lanes];
                    let cycles = multiply_mm_resident_into(
                        &mut station,
                        &mut resident,
                        &problems,
                        &mut outs,
                        &mut reports,
                    )
                    .unwrap();
                    for (lane, (outcome, out)) in outcomes.iter().zip(&outs).enumerate() {
                        let at = format!("step {step}, lane {lane} of {lanes}, into");
                        assert_eq!(&outcome.c, out, "{at}");
                        assert_eq!(outcome.cycles, cycles, "{at}");
                    }
                    outcomes
                }
            };
            for (lane, (p, laned)) in problems.iter().zip(&outcomes).enumerate() {
                let solo = multiply_mm(p.a, p.b, p.e, w).unwrap();
                let at = format!("step {step}, lane {lane} of {lanes}");
                assert_eq!(laned.c, solo.c, "{at}");
                assert_eq!(laned.cycles, solo.cycles, "{at}");
                assert_eq!(laned.efficiency, solo.efficiency, "{at}");
                assert_eq!(laned.activity, solo.activity, "{at}");
                assert_eq!(laned.feedback, solo.feedback, "{at}");
            }
        }
    }
}

#[test]
fn mv_lane_parallel_batches_are_bit_identical_to_solo_runs() {
    use size_independent_systolic::dbt::{
        multiply_mv_lanes_on, multiply_mv_resident_lanes_on, BandCache, MvResidentProblem,
        OperandRef,
    };
    let mut rng = SplitMix64::new(0x1A9E6);
    for &batch in &[1usize, 2, 3, 4, 8, 19] {
        for schedule in [MvSchedule::Simple, MvSchedule::Overlapped] {
            let w = rng.range_usize(1, 5);
            let n = rng.range_usize(1, 8);
            let m = rng.range_usize(1, 8);
            let with_b = batch % 2 == 1;
            type MvCase = (OperandRef<i64>, Vec<i64>, Option<Vec<i64>>);
            let probs: Vec<MvCase> = (0..batch as u64)
                .map(|i| {
                    let a = OperandRef::named(i, random_matrix(&mut rng, n, m));
                    let x: Vec<i64> = (0..m).map(|_| rng.range_usize(0, 9) as i64 - 4).collect();
                    let b =
                        with_b.then(|| (0..n).map(|_| rng.range_usize(0, 9) as i64 - 4).collect());
                    (a, x, b)
                })
                .collect();
            let problems: Vec<MvProblem<'_, i64>> = probs
                .iter()
                .map(|(a, x, b)| MvProblem {
                    a,
                    x,
                    b: b.as_deref(),
                })
                .collect();
            let resident_problems: Vec<MvResidentProblem<'_, i64>> = probs
                .iter()
                .map(|(a, x, b)| MvResidentProblem {
                    a,
                    x,
                    b: b.as_deref(),
                })
                .collect();
            let mut station = ArrayStation::new(w).unwrap();
            // Fresh lanes, then a cache holding every band: its cold pass
            // stages, its warm pass only hits.
            let mut cache = BandCache::new(w, batch);
            let fresh = multiply_mv_lanes_on(&mut station, &problems, schedule).unwrap();
            let (cold, _) = multiply_mv_resident_lanes_on(
                &mut station,
                &mut cache,
                &resident_problems,
                schedule,
            )
            .unwrap();
            let (warm, reports) = multiply_mv_resident_lanes_on(
                &mut station,
                &mut cache,
                &resident_problems,
                schedule,
            )
            .unwrap();
            assert!(reports.iter().all(|r| r.operand_hit()));
            for (arm, lanes) in [("fresh", fresh), ("cold", cold), ("warm", warm)] {
                assert_eq!(lanes.len(), batch);
                for (p, laned) in problems.iter().zip(&lanes) {
                    let solo = multiply_mv(p.a, p.x, p.b, w, schedule).unwrap();
                    assert_eq!(
                        laned.y, solo.y,
                        "{arm}: batch of {batch} on w={w} {schedule:?}"
                    );
                    assert_eq!(laned.cycles, solo.cycles);
                    assert_eq!(laned.efficiency, solo.efficiency);
                    assert_eq!(laned.activity, solo.activity);
                    assert_eq!(laned.feedback, solo.feedback);
                }
            }
        }
    }
}

#[test]
fn cached_band_serving_is_bit_identical_to_fresh_transforms() {
    // The residency layer's core contract: a band served out of the
    // `BandCache` — cold, warm, evicted-then-refaulted, solo or packed
    // into lanes — is the same artifact the fresh transform builds, so
    // every outcome field must be bit-identical to the direct solver.
    use size_independent_systolic::dbt::{
        multiply_mm_resident_lanes_on, multiply_mm_resident_on,
        multiply_mv_block_sparse_resident_on, multiply_mv_resident_on, BandCache,
        MmResidentProblem, OperandRef,
    };
    let mut rng = SplitMix64::new(0xCAC4ED);
    for _ in 0..CASES / 2 {
        let w = rng.range_usize(1, 5);
        let mut station = ArrayStation::<f64>::new(w).unwrap();
        // Two entries: an MM serve exactly fills the cache, so the MV and
        // sparse serves that follow evict the MM bands and the final MM
        // serve exercises the refault path.
        let mut cache: BandCache = BandCache::new(w, 2);

        let n = rng.range_usize(1, 8);
        let p = rng.range_usize(1, 8);
        let m = rng.range_usize(1, 8);
        let a = OperandRef::content_hashed(gen::random_dense_f64(n, p, rng.next_u64()));
        let b = OperandRef::content_hashed(gen::random_dense_f64(p, m, rng.next_u64()));
        let fresh = multiply_mm(a.matrix(), b.matrix(), None, w).unwrap();

        // Cold: both bands staged.
        let (cold, report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None).unwrap();
        assert_eq!(cold.c, fresh.c, "cold n={n} p={p} m={m} w={w}");
        assert_eq!(cold.cycles, fresh.cycles);
        assert!(report.misses >= 1 && !report.operand_hit());

        // Warm: both bands resident, zero staging cycles.
        let (warm, report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None).unwrap();
        assert_eq!(warm.c, fresh.c, "warm n={n} p={p} m={m} w={w}");
        assert_eq!(warm.cycles, fresh.cycles);
        assert!(report.operand_hit(), "warm serve must be a full hit");
        assert_eq!(report.staging_cycles, 0);

        // An MV serve through the same cache (evicting the MM bands).
        let mv_a = OperandRef::content_hashed(gen::random_dense_f64(n, m, rng.next_u64()));
        let x = gen::random_vector_f64(m, rng.next_u64());
        let bias = gen::random_vector_f64(n, rng.next_u64());
        let schedule = if rng.next_bool(0.5) {
            MvSchedule::Overlapped
        } else {
            MvSchedule::Simple
        };
        let fresh_mv = multiply_mv(mv_a.matrix(), &x, Some(&bias), w, schedule).unwrap();
        let (res_mv, _) =
            multiply_mv_resident_on(&mut station, &mut cache, &mv_a, &x, Some(&bias), schedule)
                .unwrap();
        assert_eq!(res_mv.y, fresh_mv.y, "mv n={n} m={m} w={w} {schedule:?}");
        assert_eq!(res_mv.cycles, fresh_mv.cycles);

        // A block-sparse serve through the same cache.
        let sp = OperandRef::content_hashed(gen::block_sparse_f64(
            n,
            m,
            w,
            rng.range_f64(0.0, 1.0),
            rng.next_u64(),
        ));
        let fresh_sp = sparse::multiply_mv_block_sparse(sp.matrix(), &x, None, w).unwrap();
        let (res_sp, _) =
            multiply_mv_block_sparse_resident_on(&mut station, &mut cache, &sp, &x, None).unwrap();
        assert_eq!(
            res_sp.outcome.y, fresh_sp.outcome.y,
            "sparse n={n} m={m} w={w}"
        );
        assert_eq!(res_sp.outcome.cycles, fresh_sp.outcome.cycles);

        // Evict-then-refault: the MM bands were pushed out above; the
        // refaulted serve re-stages and still matches the fresh transform.
        let (refault, report) =
            multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None).unwrap();
        assert_eq!(refault.c, fresh.c, "refault n={n} p={p} m={m} w={w}");
        assert_eq!(refault.cycles, fresh.cycles);
        assert!(report.misses >= 1, "refault must re-stage");
    }

    // Lane widths 1..=16: a shared left operand across every lane mate,
    // compared lane-by-lane against the solo fresh solver.
    let mut rng = SplitMix64::new(0x1A9E5D);
    for lanes in 1..=16usize {
        let w = rng.range_usize(1, 4);
        let n = rng.range_usize(1, 6);
        let p = rng.range_usize(1, 6);
        let m = rng.range_usize(1, 6);
        let mut station = ArrayStation::<f64>::new(w).unwrap();
        let mut cache: BandCache = BandCache::new(w, 4);
        let shared_a = OperandRef::content_hashed(gen::random_dense_f64(n, p, rng.next_u64()));
        let bs: Vec<OperandRef> = (0..lanes)
            .map(|_| OperandRef::content_hashed(gen::random_dense_f64(p, m, rng.next_u64())))
            .collect();
        let problems: Vec<MmResidentProblem<'_, f64>> = bs
            .iter()
            .map(|rb| MmResidentProblem {
                a: &shared_a,
                b: rb,
                e: None,
            })
            .collect();
        let (outcomes, reports) =
            multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems).unwrap();
        assert_eq!(outcomes.len(), lanes);
        assert_eq!(reports.len(), lanes);
        for (i, (outcome, rb)) in outcomes.iter().zip(&bs).enumerate() {
            let solo = multiply_mm(shared_a.matrix(), rb.matrix(), None, w).unwrap();
            assert_eq!(outcome.c, solo.c, "lane {i} of {lanes} on w={w}");
            assert_eq!(outcome.cycles, solo.cycles, "lane {i} of {lanes} on w={w}");
        }
        // The shared operand is staged by the first lane at most; later
        // lanes hit it (4-entry cache: the left band plus up to three
        // right bands — evictions only ever claim right-operand bands,
        // because the shared left band is re-touched by every lane).
        let left_misses: u32 = reports.iter().map(|r| r.misses).sum();
        assert!(
            left_misses >= lanes as u32,
            "every lane stages its own right band at least"
        );
    }
}
