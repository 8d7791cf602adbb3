//! The host-speed probe: a fixed kernel of the benchmark's own (none of
//! the repository's code), timed on two threads at once so that both vCPUs
//! are measured.
//!
//! A shared host runs every program on it faster or slower in phases of
//! seconds to minutes; on a two-vCPU guest this kernel's time varies by up
//! to a factor of two within a minute, and the farm's throughput follows
//! it.  Timing the kernel between rounds tracks that speed, so the
//! end-to-end figures can be scaled to a fixed reference speed: a change
//! to the farm still moves them, a change of the host's load moves them
//! less.  The probe only runs while no farm exists, so a farm that burned
//! CPU while idle could not slow the probe and inflate its own figures.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Side of the square matrices the kernel multiplies (three of them fit in
/// a core's L2, like a station's working set).
const N: usize = 48;

/// Timed multiplications per thread: about 0.3 s on the reference host.
const REPS: usize = 7680;

/// Untimed multiplications before the timed ones, to wake the vCPU and
/// fill its caches.
const WARM: usize = 256;

/// Threads the probe runs on: one per vCPU of the two-vCPU guest the
/// benchmark is sized for, as many as a workload's farm workers.
const THREADS: usize = 2;

/// Probe time of the reference host: scaled figures read as if every
/// probe had taken this long.
pub const REFERENCE: Duration = Duration::from_millis(300);

/// Times the kernel on [`THREADS`] threads at once; the mean of their
/// times.
pub fn probe() -> Duration {
    let total: Duration = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS).map(|t| s.spawn(move || kernel(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum()
    });
    total / THREADS as u32
}

/// How much slower than the reference the host ran between two probes:
/// their mean over [`REFERENCE`].  Times measured between them are
/// divided by it.
pub fn slowdown(before: Duration, after: Duration) -> f64 {
    (before + after).as_secs_f64() / 2.0 / REFERENCE.as_secs_f64()
}

/// [`WARM`] untimed, then [`REPS`] timed naive `N × N` matrix products.
fn kernel(seed: usize) -> Duration {
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7 + seed) % 13) as f64 * 0.25)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 5 + seed) % 11) as f64 * 0.5)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let mut multiply = |reps: usize| {
        for _ in 0..reps {
            c.iter_mut().for_each(|x| *x = 0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = black_box(a[i * N + k]);
                    let row = &b[k * N..(k + 1) * N];
                    for (cij, bkj) in c[i * N..(i + 1) * N].iter_mut().zip(row) {
                        *cij += aik * bkj;
                    }
                }
            }
            black_box(&mut c);
        }
    };
    multiply(WARM);
    let t = Instant::now();
    multiply(REPS);
    t.elapsed()
}
