//! Serving-layer integration tests: block-sparse edge cases routed through
//! the `sparse` → runtime path, farm behaviour on degenerate shapes, the
//! job lifecycle paths (cancellation, deadline shedding, weighted-fair
//! tenancy, coalesced service attribution), and the live observability
//! layer (snapshots, trace rings, latency histograms).

use size_independent_systolic::dbt::{mv_staging_cycles, sparse};
use size_independent_systolic::prelude::*;
use size_independent_systolic::runtime::{HistogramSnapshot, JobOutput, OperandRef};
use std::time::Duration;

/// A large dense MV job that pins the (single) linear worker for a while,
/// so everything submitted after it verifiably queues.
fn blocker_job(seed: u64) -> Job {
    Job::dense_mv(
        gen::random_dense_f64(512, 512, seed),
        gen::random_vector_f64(512, seed + 1),
    )
}

fn serve_sparse(a: &DenseMatrix<f64>, x: &[f64], b: Option<&[f64]>, w: usize) -> JobReceipt {
    let farm = ArrayFarm::new(FarmConfig::new(w).policy(Policy::ShortestPredictedFirst)).unwrap();
    let ticket = farm
        .submit(Job::BlockSparseMv {
            a: a.clone().into(),
            x: x.to_vec(),
            b: b.map(<[f64]>::to_vec),
        })
        .unwrap();
    let receipt = ticket.wait().unwrap();
    let telemetry = farm.shutdown();
    assert_eq!(telemetry.completed(), 1);
    receipt
}

#[test]
fn all_zero_matrix_through_the_farm_returns_b() {
    let w = 2;
    let a = DenseMatrix::<f64>::zeros(6, 6);
    let x = vec![1.0; 6];
    let b: Vec<f64> = (0..6).map(f64::from).collect();
    let receipt = serve_sparse(&a, &x, Some(&b), w);
    assert_eq!(receipt.output, JobOutput::Vector(b));
    // Even the degenerate all-zero run meets its closed-form prediction:
    // one anchor block per block row survives.
    assert!(receipt.prediction_exact());
    let plan = sparse::plan_block_sparse(&a, w).unwrap();
    assert_eq!(plan.nonzero_blocks, 0);
    assert_eq!(receipt.measured_cycles, plan.predicted_cycles());
}

#[test]
fn single_nonzero_block_through_the_farm() {
    let w = 3;
    // Only the (1, 1) block carries values.
    let a = DenseMatrix::from_fn(9, 9, |i, j| {
        if (3..6).contains(&i) && (3..6).contains(&j) {
            (i * 9 + j) as f64 / 7.0
        } else {
            0.0
        }
    });
    let x = gen::random_vector_f64(9, 5);
    let b = gen::random_vector_f64(9, 6);
    let receipt = serve_sparse(&a, &x, Some(&b), w);
    let direct = sparse::multiply_mv_block_sparse(&a, &x, Some(&b), w).unwrap();
    assert_eq!(receipt.output, JobOutput::Vector(direct.outcome.y));
    assert!(receipt.prediction_exact());
    assert_eq!(direct.nonzero_blocks, 1);
    // 3 anchor blocks + 1 extra for the non-zero off-anchor block.
    assert_eq!(direct.appended_blocks, 4);
    assert_eq!(receipt.measured_cycles, direct.outcome.cycles);
}

#[test]
fn matrices_narrower_than_the_array_flow_through_the_sparse_path() {
    // m < w and n < w: a single partially-filled block.
    for (n, m, w) in [(2usize, 2usize, 4usize), (5, 2, 4), (1, 3, 5), (3, 1, 2)] {
        let a = gen::random_dense_f64(n, m, (n * 10 + m) as u64);
        let x = gen::random_vector_f64(m, (n + m) as u64);
        let receipt = serve_sparse(&a, &x, None, w);
        let direct = sparse::multiply_mv_block_sparse(&a, &x, None, w).unwrap();
        assert_eq!(
            receipt.output,
            JobOutput::Vector(direct.outcome.y),
            "n={n} m={m} w={w}"
        );
        assert!(receipt.prediction_exact(), "n={n} m={m} w={w}");
        assert_eq!(receipt.measured_cycles, direct.outcome.cycles);
    }
}

#[test]
fn cancelled_queued_job_never_runs() {
    let farm = ArrayFarm::new(FarmConfig::new(4)).unwrap();
    let blocker = farm.submit(blocker_job(1)).unwrap();
    // The victim queues behind the blocker on the only linear worker.
    let victim = farm
        .submit(Job::dense_mv(
            gen::random_dense_f64(64, 64, 3),
            gen::random_vector_f64(64, 4),
        ))
        .unwrap();
    assert!(victim.cancel(), "victim is still queued behind the blocker");
    assert!(matches!(victim.wait(), Err(FarmError::Cancelled)));
    let blocker_receipt = blocker.wait().unwrap();
    let telemetry = farm.shutdown();
    assert_eq!(telemetry.cancelled, 1);
    assert_eq!(telemetry.completed(), 1);
    // The cancelled job never touched an array: the farm's station cycles
    // account for the blocker alone.
    let station_cycles: usize = telemetry.workers.iter().map(|w| w.station_cycles).sum();
    assert_eq!(station_cycles, blocker_receipt.measured_cycles);
}

#[test]
fn expired_deadline_jobs_are_shed_under_every_policy() {
    for policy in Policy::ALL {
        let farm = ArrayFarm::new(FarmConfig::new(2).policy(policy)).unwrap();
        let blocker = farm.submit(blocker_job(11)).unwrap();
        // A 1 ns relative deadline has always passed by dispatch time.
        let doomed = farm
            .submit(
                JobSpec::new(Job::dense_mv(
                    gen::random_dense_f64(8, 8, 13),
                    gen::random_vector_f64(8, 14),
                ))
                .deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        match doomed.wait() {
            Err(FarmError::DeadlineExceeded { late_by }) => {
                assert!(late_by > Duration::ZERO, "{}", policy.label());
            }
            other => panic!("{}: expected a shed, got {other:?}", policy.label()),
        }
        assert!(blocker.wait().is_ok());
        let telemetry = farm.shutdown();
        assert_eq!(telemetry.shed(), 1, "{}", policy.label());
        assert_eq!(telemetry.completed(), 1, "{}", policy.label());
        let tenant = telemetry.tenant(0).expect("default tenant row");
        assert_eq!(tenant.shed, 1, "{}", policy.label());
    }
}

#[test]
fn wfq_gives_the_heavy_tenant_its_weighted_share() {
    const JOBS: usize = 60;
    let farm = ArrayFarm::new(
        FarmConfig::new(4)
            .hex_workers(0)
            .linear_workers(1)
            .policy(Policy::WeightedFair)
            .coalesce_limit(1)
            .tenant_weight(1, 10)
            .tenant_weight(2, 1),
    )
    .unwrap();
    // Pre-built payloads keep the submission burst much faster than
    // service, so both tenants stay backlogged while shares accumulate.
    let job = |seed: u64| {
        Job::dense_mv(
            gen::random_dense_f64(64, 64, seed),
            gen::random_vector_f64(64, seed + 500),
        )
    };
    let heavy_jobs: Vec<Job> = (0..JOBS as u64).map(|i| job(1_000 + i)).collect();
    let light_jobs: Vec<Job> = (0..JOBS as u64).map(|i| job(3_000 + i)).collect();
    let blocker = farm.submit(blocker_job(5_000)).unwrap();
    let mut heavy = Vec::new();
    let mut light = Vec::new();
    for (heavy_job, light_job) in heavy_jobs.into_iter().zip(light_jobs) {
        heavy.push(farm.submit(JobSpec::new(heavy_job).tenant(1)).unwrap());
        light.push(farm.submit(JobSpec::new(light_job).tenant(2)).unwrap());
    }
    for ticket in heavy {
        ticket.wait().unwrap();
    }
    // Freeze the light tenant's share the moment the heavy tenant drains.
    let cancelled = light.iter().filter(|t| t.cancel()).count();
    assert!(blocker.wait().is_ok());
    let telemetry = farm.shutdown();
    let heavy_row = telemetry.tenant(1).expect("heavy tenant row");
    let light_row = telemetry.tenant(2).expect("light tenant row");
    assert_eq!(heavy_row.served, JOBS, "heavy tenant fully served");
    assert_eq!(telemetry.cancelled, cancelled as u64);
    assert_eq!(
        light_row.served + light_row.cancelled as usize,
        JOBS,
        "every light job was served or cancelled, never lost"
    );
    let heavy_cycles = heavy_row.served_predicted_cycles as f64;
    let light_cycles = light_row.served_predicted_cycles as f64;
    // Exact 10:1 shares put the heavy tenant at 10/11 ≈ 0.909 of the live
    // cycles; the deterministic part of the test only needs a bound loose
    // enough to survive scheduling jitter around the cancel sweep.
    let share = heavy_cycles / (heavy_cycles + light_cycles);
    assert!(
        share > 0.70,
        "WFQ share {share:.3} is far from the 10:1 weights \
         (heavy {heavy_cycles} vs light {light_cycles} predicted cycles)"
    );
    assert!(light_cycles < heavy_cycles);
}

#[test]
fn coalesced_receipts_attribute_the_batch_span_by_cycle_share() {
    let farm = ArrayFarm::new(FarmConfig::new(2).coalesce_limit(8)).unwrap();
    let blocker = farm.submit(blocker_job(21)).unwrap();
    // Same-shape mates queue behind the blocker and coalesce.
    let mates: Vec<_> = (0..6u64)
        .map(|i| {
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(16, 16, 100 + i),
                gen::random_vector_f64(16, 200 + i),
            ))
            .unwrap()
        })
        .collect();
    let receipts: Vec<JobReceipt> = mates.into_iter().map(|t| t.wait().unwrap()).collect();
    assert!(blocker.wait().is_ok());
    drop(farm);
    let coalesced: Vec<&JobReceipt> = receipts.iter().filter(|r| r.coalesced()).collect();
    assert!(
        coalesced.len() >= 2,
        "the queued same-shape mates must coalesce"
    );
    for receipt in &receipts {
        match receipt.batch_service {
            Some(span) => {
                assert!(receipt.coalesced());
                assert!(
                    receipt.service <= span,
                    "attributed service cannot exceed the batch span"
                );
            }
            None => assert!(!receipt.coalesced()),
        }
    }
    // The mates all share one shape, hence equal measured cycles, so the
    // attribution must hand every member an exact 1/k share of its batch
    // span for some batch size k within the coalescing window — the
    // batch's wall time is split, not multiply-counted.  (Checked
    // per-receipt: two distinct batches can report identical spans, so
    // grouping receipts by span would be ambiguous.)
    for receipt in &coalesced {
        let span = receipt.batch_service.unwrap();
        let share_of_some_batch_size =
            (2..=8u32).any(|k| (span / k).abs_diff(receipt.service) <= Duration::from_micros(2));
        assert!(
            share_of_some_batch_size,
            "service {:?} is not an equal share of batch span {:?}",
            receipt.service, receipt.batch_service
        );
    }
}

/// Serves three named MV operands, four times each and interleaved, behind
/// a blocker on a one-linear-worker farm.  Returns the receipts (blocker
/// first) and the final snapshot.
fn serve_named_mv_sequence(coalesce_limit: usize) -> (Vec<JobReceipt>, FarmSnapshot) {
    let farm = ArrayFarm::new(
        FarmConfig::new(4)
            .hex_workers(0)
            .linear_workers(1)
            .coalesce_limit(coalesce_limit),
    )
    .unwrap();
    let operands: Vec<OperandRef> = (0..3u64)
        .map(|k| OperandRef::named(100 + k, gen::random_dense_f64(16, 16, 40 + k)))
        .collect();
    let jobs: Vec<Job> = (0..4u64)
        .flat_map(|round| {
            operands
                .iter()
                .map(move |a| Job::dense_mv(a.clone(), gen::random_vector_f64(16, 50 + round)))
        })
        .collect();
    let blocker = farm.submit(blocker_job(41)).unwrap();
    let tickets: Vec<_> = jobs.into_iter().map(|j| farm.submit(j).unwrap()).collect();
    let mut receipts = vec![blocker.wait().unwrap()];
    receipts.extend(tickets.into_iter().map(|t| t.wait().unwrap()));
    (receipts, farm.shutdown().snapshot)
}

#[test]
fn coalesced_mv_receipts_report_the_same_staging_as_solo_ones() {
    let shape = MvShape { w: 4, n: 16, m: 16 };
    for limit in [1, 8] {
        let (receipts, snapshot) = serve_named_mv_sequence(limit);
        let sequence = &receipts[1..];
        // Each operand is staged exactly once, by whichever serve saw it
        // first; its repeats hit.
        for k in 0..3 {
            let staged: usize = sequence
                .iter()
                .skip(k)
                .step_by(3)
                .map(|r| r.staging_cycles)
                .sum();
            assert_eq!(
                staged,
                mv_staging_cycles(shape),
                "coalesce_limit({limit}): operand {k}"
            );
        }
        let hits = sequence.iter().filter(|r| r.operand_hit).count();
        assert_eq!(hits, 9, "coalesce_limit({limit})");
        // The farm's counters agree with the receipts, blocker included.
        let staged: usize = receipts.iter().map(|r| r.staging_cycles).sum();
        assert_eq!(snapshot.staging_cycles(), staged as u64);
        let hits = receipts.iter().filter(|r| r.operand_hit).count();
        assert_eq!(snapshot.operand_hits(), hits as u64);
        if limit > 1 {
            assert!(
                sequence.iter().any(JobReceipt::coalesced),
                "the queued sequence must coalesce"
            );
        }
    }
}

#[test]
fn lane_occupancy_accounts_every_job_of_an_over_wide_lane_setting() {
    // `lanes(32)` is clamped to the engine's 16-lane passes, so 32 queued
    // mates run as two full passes and the occupancy histogram counts each.
    let farm = ArrayFarm::new(
        FarmConfig::new(4)
            .hex_workers(1)
            .linear_workers(0)
            .lanes(32)
            .coalesce_limit(32),
    )
    .unwrap();
    let blocker = Job::dense_mm(
        gen::random_dense_f64(48, 48, 61),
        gen::random_dense_f64(48, 48, 62),
    );
    let mates: Vec<Job> = (0..32u64)
        .map(|s| {
            Job::dense_mm(
                gen::random_dense_f64(8, 8, 100 + s),
                gen::random_dense_f64(8, 8, 200 + s),
            )
        })
        .collect();
    let blocker = farm.submit(blocker).unwrap();
    let tickets: Vec<_> = mates.into_iter().map(|j| farm.submit(j).unwrap()).collect();
    assert!(blocker.wait().unwrap().prediction_exact());
    for ticket in tickets {
        assert!(ticket.wait().unwrap().prediction_exact());
    }
    let snapshot = farm.shutdown().snapshot;
    let occupancy = snapshot.lane_occupancy();
    let jobs_in_passes: u64 = occupancy
        .iter()
        .enumerate()
        .map(|(slot, &passes)| (slot as u64 + 1) * passes)
        .sum();
    assert_eq!(jobs_in_passes, 33, "lane occupancy {occupancy:?}");
    assert_eq!(snapshot.completed(), 33);
}

#[test]
fn sparse_and_dense_jobs_agree_through_the_farm() {
    let w = 3;
    let pattern = gen::block_sparse_f64(12, 12, w, 0.4, 21);
    let x = gen::random_vector_f64(12, 22);
    let farm = ArrayFarm::new(FarmConfig::new(w)).unwrap();
    let t_sparse = farm
        .submit(Job::block_sparse_mv(pattern.clone(), x.clone()))
        .unwrap();
    let t_dense = farm
        .submit(Job::dense_mv(pattern.clone(), x.clone()))
        .unwrap();
    let sparse_receipt = t_sparse.wait().unwrap();
    let dense_receipt = t_dense.wait().unwrap();
    drop(farm);
    // Same numerical answer, fewer array steps for the sparse path.
    let sparse_y = sparse_receipt.output.as_vector().unwrap();
    let dense_y = dense_receipt.output.as_vector().unwrap();
    assert!(size_independent_systolic::matrix::vector::approx_eq(
        sparse_y, dense_y, 1e-9
    ));
    assert!(sparse_receipt.measured_cycles <= dense_receipt.measured_cycles);
    assert!(sparse_receipt.prediction_exact());
    assert!(dense_receipt.prediction_exact());
}

#[test]
fn idle_workers_steal_from_a_backlogged_peer_bit_identically() {
    // Two linear workers, no coalescing: a long blocker pins one of them,
    // then a burst of short jobs lands behind it.  Backlog routing spreads
    // the burst across both queues, but the blocked worker's share can only
    // finish in time if the drained peer steals it — so steals must show up
    // in telemetry, and every stolen job must still produce the exact
    // solver result.
    let w = 4;
    let farm = ArrayFarm::new(FarmConfig::new(w).linear_workers(2).coalesce_limit(1)).unwrap();
    let blocker = farm.submit(blocker_job(31)).unwrap();
    // Let a worker dequeue the blocker so its queue length drops back to
    // zero and admission keeps routing short jobs its way.
    std::thread::sleep(Duration::from_millis(1));
    let problems: Vec<(DenseMatrix<f64>, Vec<f64>)> = (0..12u64)
        .map(|i| {
            (
                gen::random_dense_f64(32, 32, 300 + i),
                gen::random_vector_f64(32, 400 + i),
            )
        })
        .collect();
    let tickets: Vec<_> = problems
        .iter()
        .map(|(a, x)| farm.submit(Job::dense_mv(a.clone(), x.clone())).unwrap())
        .collect();
    for (ticket, (a, x)) in tickets.into_iter().zip(&problems) {
        let receipt = ticket.wait().unwrap();
        assert!(receipt.prediction_exact());
        let direct = multiply_mv(a, x, None, w, MvSchedule::Simple).unwrap();
        assert_eq!(
            receipt.output,
            JobOutput::Vector(direct.y),
            "stolen or queued, a job's result must be bit-identical to the \
             direct solver"
        );
    }
    blocker.wait().unwrap();
    let telemetry = farm.shutdown();
    assert!(
        telemetry.steals > 0,
        "the drained worker must steal from its blocked peer (got {} steals)",
        telemetry.steals
    );
}

/// Exact nearest-rank percentile over receipt latencies, the ground truth
/// the log-bucketed histograms are checked against.
fn exact_percentile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64) - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `histogram_ns` and `exact` may differ by at most the width of the log
/// bucket the exact value falls in (the quantization bound `metrics`
/// documents).
fn within_one_bucket(histogram_ns: u64, exact: Duration) -> bool {
    let exact_ns = exact.as_nanos() as u64;
    let width = HistogramSnapshot::bucket_width_at(exact_ns);
    histogram_ns.abs_diff(exact_ns) <= width
}

#[test]
fn stolen_jobs_are_attributed_to_the_worker_that_served_them() {
    // Same steal scenario as above: a blocker pins one of two linear
    // workers, the drained peer steals the backlog.  The live per-worker
    // counters must attribute every delivered job to the worker that
    // actually served it — so the sum over workers matches the farm
    // total and both linear workers show deliveries.
    let w = 4;
    let farm = ArrayFarm::new(FarmConfig::new(w).linear_workers(2).coalesce_limit(1)).unwrap();
    let blocker = farm.submit(blocker_job(41)).unwrap();
    std::thread::sleep(Duration::from_millis(1));
    let tickets: Vec<_> = (0..12u64)
        .map(|i| {
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(32, 32, 500 + i),
                gen::random_vector_f64(32, 600 + i),
            ))
            .unwrap()
        })
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    blocker.wait().unwrap();
    let snapshot = farm.snapshot();
    farm.shutdown();
    assert!(snapshot.steals > 0, "the scenario must actually steal");
    assert_eq!(snapshot.completed(), 13);
    let per_worker: u64 = snapshot.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(
        per_worker,
        snapshot.completed(),
        "every delivered job is counted on exactly one worker"
    );
    let linear_servers = snapshot
        .workers
        .iter()
        .filter(|w| w.class == size_independent_systolic::runtime::job::ArrayClass::Linear)
        .filter(|w| w.jobs > 0)
        .count();
    assert_eq!(
        linear_servers, 2,
        "with steals observed, both linear workers delivered jobs"
    );
}

#[test]
fn tenant_snapshot_rows_sum_to_the_farm_totals() {
    let farm = ArrayFarm::new(FarmConfig::new(4).linear_workers(2).coalesce_limit(1)).unwrap();
    let mut tickets = Vec::new();
    for tenant in 1..=3u32 {
        for i in 0..6u64 {
            let seed = u64::from(tenant) * 100 + i;
            let job = Job::dense_mv(
                gen::random_dense_f64(32, 32, seed),
                gen::random_vector_f64(32, seed + 50),
            );
            tickets.push(farm.submit(JobSpec::new(job).tenant(tenant)).unwrap());
        }
    }
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let snapshot = farm.snapshot();
    farm.shutdown();
    assert_eq!(snapshot.tenants.len(), 3, "one rollup per tenant seen");
    let served: u64 = snapshot.tenants.iter().map(|t| t.served).sum();
    assert_eq!(served, snapshot.completed());
    let predicted: u64 = snapshot.tenants.iter().map(|t| t.predicted_cycles).sum();
    assert_eq!(predicted, snapshot.predicted_cycles());
    let measured: u64 = snapshot.tenants.iter().map(|t| t.measured_cycles).sum();
    assert_eq!(measured, snapshot.measured_cycles());
    for t in &snapshot.tenants {
        assert_eq!(t.served, 6, "tenant {}", t.tenant);
        assert_eq!(t.e2e.count(), t.served, "tenant {}", t.tenant);
        assert_eq!(t.cycle_error.count(), t.served, "tenant {}", t.tenant);
    }
}

#[test]
fn live_snapshot_after_all_receipts_agrees_with_final_telemetry() {
    let farm = ArrayFarm::new(FarmConfig::new(3).linear_workers(2)).unwrap();
    let tickets: Vec<_> = (0..10u64)
        .map(|i| {
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(24, 24, 700 + i),
                gen::random_vector_f64(24, 800 + i),
            ))
            .unwrap()
        })
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    // Completion counters settle before each receipt is sent, so a
    // snapshot taken after the last receipt must already agree with the
    // final post-join snapshot on everything job-scoped.
    let live = farm.snapshot();
    let telemetry = farm.shutdown();
    let last = &telemetry.snapshot;
    assert_eq!(live.completed(), telemetry.completed() as u64);
    assert_eq!(live.completed(), last.completed());
    assert_eq!(live.submitted, last.submitted);
    assert_eq!(live.steals, last.steals);
    assert_eq!(live.cancelled, last.cancelled);
    assert_eq!(live.shed(), last.shed());
    assert_eq!(live.predicted_cycles(), last.predicted_cycles());
    assert_eq!(live.measured_cycles(), last.measured_cycles());
    assert_eq!(live.trace_recorded, last.trace_recorded);
    assert_eq!(live.trace_dropped, last.trace_dropped);
    assert!((live.exact_prediction_fraction() - 1.0).abs() < f64::EPSILON);
    assert_eq!(live.e2e_latency().count(), 10);
}

#[test]
fn consecutive_snapshots_are_monotone() {
    let farm = ArrayFarm::new(FarmConfig::new(3)).unwrap();
    let first_wave: Vec<_> = (0..5u64)
        .map(|i| {
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(24, 24, 900 + i),
                gen::random_vector_f64(24, 950 + i),
            ))
            .unwrap()
        })
        .collect();
    for ticket in first_wave {
        ticket.wait().unwrap();
    }
    let early = farm.snapshot();
    let second_wave: Vec<_> = (0..5u64)
        .map(|i| {
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(24, 24, 960 + i),
                gen::random_vector_f64(24, 980 + i),
            ))
            .unwrap()
        })
        .collect();
    for ticket in second_wave {
        ticket.wait().unwrap();
    }
    let late = farm.snapshot();
    farm.shutdown();
    assert!(late.at >= early.at);
    assert!(late.submitted >= early.submitted);
    assert!(late.completed() >= early.completed());
    assert!(late.measured_cycles() >= early.measured_cycles());
    assert!(late.trace_recorded >= early.trace_recorded);
    assert!(late.e2e_latency().count() >= early.e2e_latency().count());
    assert!(late.max_depth >= early.max_depth);
    assert_eq!(early.completed(), 5);
    assert_eq!(late.completed(), 10);
}

#[test]
fn snapshot_histogram_percentiles_stay_within_one_bucket_of_exact() {
    let farm = ArrayFarm::new(FarmConfig::new(4).linear_workers(2).coalesce_limit(1)).unwrap();
    let tickets: Vec<_> = (0..30u64)
        .map(|i| {
            // Mixed sizes so the latency distribution spans buckets.
            let n = if i % 3 == 0 { 96 } else { 32 };
            farm.submit(Job::dense_mv(
                gen::random_dense_f64(n, n, 1_100 + i),
                gen::random_vector_f64(n, 1_200 + i),
            ))
            .unwrap()
        })
        .collect();
    let mut exact: Vec<Duration> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().latency())
        .collect();
    exact.sort();
    let e2e = farm.snapshot().e2e_latency();
    farm.shutdown();
    assert_eq!(e2e.count(), exact.len() as u64);
    for q in [0.50, 0.95, 0.99] {
        let approx = e2e.percentile(q);
        let truth = exact_percentile(&exact, q);
        assert!(
            within_one_bucket(approx, truth),
            "p{:.0}: histogram {}ns vs exact {:?} drifted past one bucket",
            q * 100.0,
            approx,
            truth
        );
    }
}
