//! Benches for the matrix–vector path (experiments E1–E3): the DBT
//! transformation itself, the simple schedule and the overlapped schedule,
//! swept over array and problem sizes, using the dependency-free harness in
//! `sia_bench::harness`.
//!
//! ```text
//! cargo bench -p sia-bench --bench mv_bench
//! ```

use sia_bench::harness::BenchGroup;
use sia_dbt::{
    multiply_mv, multiply_mv_lanes_on, multiply_mv_on, DbtByRows, MvProblem, MvSchedule,
};
use sia_matrix::gen;
use sia_sim::ArrayStation;

fn bench_transformation() {
    let mut group = BenchGroup::new("dbt_by_rows_transform");
    for (w, n, m) in [
        (4usize, 16usize, 16usize),
        (4, 64, 64),
        (8, 64, 64),
        (8, 256, 256),
    ] {
        let a = gen::random_dense_f64(n, m, 1);
        group.bench(&format!("w{w}_{n}x{m}"), || DbtByRows::new(&a, w).unwrap());
    }
}

/// The main sweeps measure the **steady-state serving path** — the solver
/// on a persistent, warmed [`ArrayStation`], exactly how a `sia-runtime`
/// worker serves every job since the zero-allocation rework.  The
/// `mv_reuse_vs_fresh` group below isolates what the reuse buys over a
/// from-scratch call.
fn bench_mv_simple() {
    let mut group = BenchGroup::new("mv_simple_schedule").sample_size(10);
    for (w, n, m) in [
        (3usize, 6usize, 9usize),
        (4, 16, 16),
        (4, 32, 32),
        (8, 32, 32),
        (8, 128, 128),
    ] {
        let a = gen::random_dense_f64(n, m, 2);
        let x = gen::random_vector_f64(m, 3);
        let mut station = ArrayStation::new(w).unwrap();
        multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Simple).unwrap(); // warm-up
        group.bench(&format!("w{w}_{n}x{m}"), || {
            multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Simple).unwrap()
        });
    }
}

fn bench_mv_overlapped() {
    let mut group = BenchGroup::new("mv_overlapped_schedule").sample_size(10);
    for (w, n, m) in [
        (4usize, 16usize, 16usize),
        (4, 32, 32),
        (8, 32, 32),
        (8, 128, 128),
    ] {
        let a = gen::random_dense_f64(n, m, 4);
        let x = gen::random_vector_f64(m, 5);
        let mut station = ArrayStation::new(w).unwrap();
        multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Overlapped).unwrap(); // warm-up
        group.bench(&format!("w{w}_{n}x{m}"), || {
            multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Overlapped).unwrap()
        });
    }
}

/// One shape, fresh-per-call versus warm steady state (see `mm_bench`).
fn bench_reuse_vs_fresh() {
    let mut group = BenchGroup::new("mv_reuse_vs_fresh").sample_size(10);
    let (w, n, m) = (8usize, 128usize, 128usize);
    let a = gen::random_dense_f64(n, m, 2);
    let x = gen::random_vector_f64(m, 3);
    group.bench("fresh_w8_128x128", || {
        multiply_mv(&a, &x, None, w, MvSchedule::Simple).unwrap()
    });
    let mut station = ArrayStation::new(w).unwrap();
    multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Simple).unwrap(); // warm-up
    group.bench("steady_w8_128x128", || {
        multiply_mv_on(&mut station, &a, &x, None, MvSchedule::Simple).unwrap()
    });
}

fn bench_batch() {
    // Throughput of one 16-lane array pass versus running the same jobs
    // sequentially: 16 independent w=4 48x48 products.
    let mut group = BenchGroup::new("mv_batch_16_jobs").sample_size(10);
    let (w, n) = (4usize, 48usize);
    let data: Vec<_> = (0..16u64)
        .map(|s| {
            (
                gen::random_dense_f64(n, n, 300 + s),
                gen::random_vector_f64(n, 400 + s),
            )
        })
        .collect();
    let problems: Vec<MvProblem<'_, f64>> = data
        .iter()
        .map(|(a, x)| MvProblem { a, x, b: None })
        .collect();
    group.bench("sequential", || {
        problems
            .iter()
            .map(|p| multiply_mv(p.a, p.x, None, w, MvSchedule::Simple).unwrap())
            .collect::<Vec<_>>()
    });
    let mut station = ArrayStation::new(w).unwrap();
    group.bench("lane_pass", || {
        multiply_mv_lanes_on(&mut station, &problems, MvSchedule::Simple).unwrap()
    });
}

fn main() {
    bench_transformation();
    bench_mv_simple();
    bench_mv_overlapped();
    bench_reuse_vs_fresh();
    bench_batch();
}
