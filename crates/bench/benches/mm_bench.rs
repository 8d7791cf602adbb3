//! Benches for the matrix–matrix path (experiment E4) and the
//! spiral-feedback accumulation plan (experiments E6/E7), using the
//! dependency-free harness in `sia_bench::harness`.
//!
//! ```text
//! cargo bench -p sia-bench --bench mm_bench
//! ```

use sia_bench::harness::BenchGroup;
use sia_dbt::{
    accumulation_plan, build_a_hat, multiply_mm, multiply_mm_on, multiply_mm_resident_lanes_on,
    BandCache, MmResidentProblem, MmShape, OperandRef,
};
use sia_matrix::gen;
use sia_sim::ArrayStation;

/// The main sweep measures the **steady-state serving path** — the solver
/// on a persistent, warmed [`ArrayStation`], exactly how a `sia-runtime`
/// worker serves every job since the zero-allocation rework.  The
/// `mm_reuse_vs_fresh` group below isolates what the reuse buys over a
/// from-scratch call.
fn bench_mm() {
    let mut group = BenchGroup::new("mm_hexagonal_array").sample_size(10);
    for (w, n, p, m) in [
        (2usize, 4usize, 4usize, 4usize),
        (3, 6, 6, 9),
        (3, 9, 9, 9),
        (4, 8, 8, 8),
        (4, 16, 16, 16),
        (8, 32, 32, 32),
        (8, 64, 64, 64),
    ] {
        let a = gen::random_dense_f64(n, p, 11);
        let b = gen::random_dense_f64(p, m, 12);
        let mut station = ArrayStation::new(w).unwrap();
        multiply_mm_on(&mut station, &a, &b, None).unwrap(); // warm-up
        group.bench(&format!("w{w}_{n}x{p}x{m}"), || {
            multiply_mm_on(&mut station, &a, &b, None).unwrap()
        });
    }
}

/// One shape, two serving disciplines: a fresh station (workspace built
/// and dropped) per call — the only path before the workspace rework —
/// versus the warm steady state.
fn bench_reuse_vs_fresh() {
    let mut group = BenchGroup::new("mm_reuse_vs_fresh").sample_size(10);
    let (w, n, p, m) = (4usize, 16usize, 16usize, 16usize);
    let a = gen::random_dense_f64(n, p, 11);
    let b = gen::random_dense_f64(p, m, 12);
    group.bench("fresh_w4_16x16x16", || {
        multiply_mm(&a, &b, None, w).unwrap()
    });
    let mut station = ArrayStation::new(w).unwrap();
    multiply_mm_on(&mut station, &a, &b, None).unwrap(); // warm-up
    group.bench("steady_w4_16x16x16", || {
        multiply_mm_on(&mut station, &a, &b, None).unwrap()
    });
}

fn bench_operand_construction() {
    let mut group = BenchGroup::new("mm_operand_construction");
    for (w, n, p, mbar) in [
        (3usize, 9usize, 9usize, 3usize),
        (4, 16, 16, 4),
        (8, 64, 64, 8),
    ] {
        let a = gen::random_dense_f64(n, p, 13);
        group.bench(&format!("a_hat_w{w}_{n}x{p}x{mbar}"), || {
            build_a_hat(&a, mbar, w).unwrap()
        });
    }
    for (w, n, p, m) in [
        (3usize, 9usize, 9usize, 9usize),
        (4, 16, 16, 16),
        (8, 64, 64, 64),
    ] {
        let shape = MmShape { w, n, p, m };
        group.bench(&format!("plan_w{w}_{n}x{p}x{m}"), || {
            accumulation_plan(shape).unwrap()
        });
    }
}

fn bench_batch() {
    // Throughput of one 16-lane array pass versus running the same jobs
    // sequentially: 16 independent w=4 12x12x12 products.  The lane pass
    // transforms its operands fresh, through a cache that retains nothing.
    let mut group = BenchGroup::new("mm_batch_16_jobs").sample_size(10);
    let (w, n) = (4usize, 12usize);
    let mats: Vec<(OperandRef, OperandRef)> = (0..16u64)
        .map(|s| {
            (
                OperandRef::named(2 * s, gen::random_dense_f64(n, n, 100 + s)),
                OperandRef::named(2 * s + 1, gen::random_dense_f64(n, n, 200 + s)),
            )
        })
        .collect();
    let problems: Vec<MmResidentProblem<'_, f64>> = mats
        .iter()
        .map(|(a, b)| MmResidentProblem { a, b, e: None })
        .collect();
    group.bench("sequential", || {
        problems
            .iter()
            .map(|p| multiply_mm(p.a, p.b, None, w).unwrap())
            .collect::<Vec<_>>()
    });
    let mut station = ArrayStation::new(w).unwrap();
    let mut cache = BandCache::new(w, 0);
    group.bench("lane_pass", || {
        multiply_mm_resident_lanes_on(&mut station, &mut cache, &problems).unwrap()
    });
}

fn main() {
    bench_mm();
    bench_reuse_vs_fresh();
    bench_operand_construction();
    bench_batch();
}
