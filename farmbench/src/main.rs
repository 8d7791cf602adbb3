//! farmbench: the array farm's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path farmbench/Cargo.toml -- \
//!     --workload <fresh_mixed|hot_lanes> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (so peak RSS and
//! allocation counts belong to that workload alone) as a closed loop: one
//! client thread keeps a fixed window of outstanding tickets on an
//! `sia_runtime::ArrayFarm` and submits the next job of the seeded stream
//! when the oldest resolves.  Every receipt is checked bit for bit against
//! a reference output computed at set-up by a direct `sia_dbt` call, and
//! its prediction must be exact.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off.
//! * `--trace 1` serves the same stream with spans recorded around each
//!   job (alternating with untraced slices, to price the tracing), then
//!   replays it offline on one station to time each layer, and reports
//!   the per-layer metrics.  Spans are written to `farmbench/out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The process exits
//! nonzero on any wrong output, inexact prediction or count mismatch.
//! `farmbench/README.md` describes the workloads and every metric.

mod drive;
mod probe;
mod replay;
mod spans;
mod stats;
mod workload;

use drive::{Client, Counts, JobSample, Samples, Stop, Tally, Tracer, COUNTED_JOBS};
use sia_alloc::CountingAllocator;
use sia_runtime::{ArrayFarm, FarmSnapshot};
use spans::SpanBuf;
use stats::{median_f64, percentile, percentile_sorted, result_json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Pool, Stream, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Rounds of an end-to-end run; `setup_s` is the median of their set-ups.
const ROUNDS: usize = 5;

/// Completions per block of a measured window (a fifth of a second to
/// two seconds of serving).
const BLOCK_JOBS: usize = 1024;

/// Span buffer capacity of a traced run.
const SPAN_CAPACITY: usize = 200_000;

/// Share of a traced run's seconds spent serving the farm; the rest goes
/// to the offline replay.
const FARM_SHARE: f64 = 2.0 / 3.0;

/// Settling time after a window drains, so workers publish the last
/// batch's counters before a snapshot reads them.
const SETTLE: Duration = Duration::from_millis(2);

const USAGE: &str =
    "usage: farmbench --workload <fresh_mixed|hot_lanes> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// A finished run: human-readable lines, then the result line.
struct Report {
    lines: Vec<String>,
    /// Jobs attempted.
    attempted: u64,
    /// Jobs that failed a check.
    failed: u64,
    /// The first job failure, then every run-level finding (counts or
    /// billing that disagree with the closed forms).
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("farmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("farmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "farmbench: {} of {} jobs failed",
        report.failed, report.attempted
    );
    for problem in &report.problems {
        eprintln!("farmbench: {problem}");
    }
    ExitCode::FAILURE
}

/// Builds the operand pool (with reference outputs) and the farm.
fn build(workload: Workload, seed: u64) -> Result<(Pool, ArrayFarm), String> {
    let pool = Pool::new(workload, seed)?;
    let farm = ArrayFarm::new(workload.config()).map_err(|e| format!("farm: {e}"))?;
    Ok((pool, farm))
}

/// A client on `farm` after its untimed warm-up.
fn warm<'a>(farm: &'a ArrayFarm, pool: &'a Pool, seed: u64, tracer: Tracer) -> Client<'a> {
    let wl = pool.workload;
    let warmup = wl.warmup_jobs() as u64;
    let mut client = Client::new(farm, pool, Stream::new(wl, seed), warmup, tracer);
    client.serve(
        Stop::Jobs(warmup),
        &mut Samples::with_capacity(wl.warmup_jobs()),
    );
    client
}

fn no_tracer() -> Tracer {
    Tracer {
        spans: SpanBuf::new(Instant::now(), 0),
        samples: Vec::new(),
    }
}

/// Failures found after the window: counts that disagree with the closed
/// forms, and station billing that disagrees with the receipts.
fn audit(counts: &Counts, tally: &Tally, last: &FarmSnapshot) -> Vec<String> {
    let mut problems = Vec::new();
    if counts.measured != counts.closed_form || counts.predicted != counts.closed_form {
        problems.push(format!(
            "counted jobs: measured {} / predicted {} cycles, closed form {}",
            counts.measured, counts.predicted, counts.closed_form
        ));
    }
    let billed: u64 = last
        .workers
        .iter()
        .map(|w| w.hex_cycles + w.linear_cycles)
        .sum();
    if billed != tally.measured_cycles {
        problems.push(format!(
            "stations billed {billed} cycles, receipts measured {}",
            tally.measured_cycles
        ));
    }
    problems
}

fn counts_line(wl: Workload, counts: &Counts) -> String {
    let mut line = format!(
        "counts: first {} jobs after warm-up (of {COUNTED_JOBS}): predicted_cycles={} measured_cycles={} closed_form_cycles={} sim.cycles_per_job={}",
        counts.jobs,
        counts.predicted,
        counts.measured,
        counts.closed_form,
        cycles_per_job(counts)
    );
    if wl.always_cold() {
        line += &format!(" staging_cycles={}", counts.staging);
    }
    line
}

fn cycles_per_job(counts: &Counts) -> f64 {
    counts.measured as f64 / counts.jobs.max(1) as f64
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `--trace 0`: [`ROUNDS`] rounds, each a fresh set-up (one `setup_s`
/// sample: pool, references, farm and warm-up) followed by an equal share
/// of the measured window, cut into blocks of [`BLOCK_JOBS`]
/// completions.  The host-speed probe runs before the first round and
/// after each round's farm has shut down; a round's times are divided by
/// the slowdown the two probes around it show (see [`probe`]).  The
/// figures are medians over the scaled set-ups, blocks (throughput and
/// p50) and rounds (p99, so that each has at least forty samples beyond
/// it) of the run.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let wl = args.workload;
    let round = Duration::from_secs(args.seconds) / ROUNDS as u32;
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut raw_setups = Vec::with_capacity(ROUNDS);
    let mut probes = vec![probe::probe()];
    let (mut blocks, mut raw) = (Blocks::default(), Blocks::default());
    let mut samples =
        Samples::with_capacity((round.as_secs_f64() * wl.rate_hint() as f64) as usize);
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let (mut jobs, mut verified, mut allocs, mut wall) = (0, 0, 0, Duration::ZERO);
    let mut counts: Option<Counts> = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let (pool, farm) = build(wl, args.seed)?;
        let mut client = warm(&farm, &pool, args.seed, no_tracer());
        let setup = t.elapsed().as_secs_f64();

        samples.clear();
        let before = sia_alloc::allocation_count();
        let window = client.serve(Stop::For(round), &mut samples);
        allocs += sia_alloc::allocation_count() - before;
        jobs += window.attempted;
        verified += window.verified;
        wall += window.wall;
        raw.add(&samples, round, 1.0);

        let (tally, round_counts, _) = client.finish();
        let last = farm.shutdown().snapshot;
        let before = probes[probes.len() - 1];
        probes.push(probe::probe());
        let slowdown = probe::slowdown(before, probes[probes.len() - 1]);
        raw_setups.push(setup);
        setups.push(setup / slowdown);
        blocks.add(&samples, round, slowdown);

        let first = *counts.get_or_insert(round_counts);
        if first.jobs == COUNTED_JOBS && round_counts.jobs == COUNTED_JOBS && first != round_counts
        {
            problems.push(format!(
                "counts differ between rounds: {first:?} then {round_counts:?}"
            ));
        }
        problems.extend(audit(&round_counts, &tally, &last));
        problems.extend(tally.first_failure);
        attempted += tally.attempted;
        failed += tally.failed;
    }
    if blocks.rates.is_empty() {
        return Err(format!(
            "--seconds {} is too short: no round completed a block of {BLOCK_JOBS} jobs",
            args.seconds
        ));
    }
    let counts = counts.unwrap_or_default();
    let peak_rss = peak_rss_mib()?;

    let setup_s = median_f64(&setups);
    let jobs_per_s = median_f64(&blocks.rates);
    let p50 = median_f64(&blocks.p50_ms);
    let p99 = median_f64(&blocks.round_p99_ms);
    let k = blocks.rates.len();
    let per = BLOCK_JOBS;
    let fewest = blocks.round_jobs.iter().copied().min().unwrap_or(0);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let allocs_per_job = allocs as f64 / jobs.max(1) as f64;
    let probe_ms: Vec<f64> = probes.iter().map(|p| p.as_secs_f64() * 1e3).collect();
    let lines = vec![
        format!(
            "farmbench {} seed {} trace 0: w={} window={} warm-up={} jobs, {ROUNDS} rounds of {:.3} s",
            wl.name(),
            args.seed,
            wl.w(),
            wl.window(),
            wl.warmup_jobs(),
            round.as_secs_f64()
        ),
        format!(
            "host probe {probe_ms:.1?} ms (reference {} ms); figures are scaled to the reference, unscaled medians in brackets",
            probe::REFERENCE.as_millis()
        ),
        format!(
            "setup_s {setup_s:.4} s (median of {ROUNDS} set-ups: {setups:.4?}) [{:.4}]",
            median_f64(&raw_setups)
        ),
        format!(
            "jobs_per_s {jobs_per_s:.1} jobs/s (median of {k} blocks of {per} jobs; {verified} verified of {jobs} jobs in {:.3} s) [{:.1}]",
            wall.as_secs_f64(),
            median_f64(&raw.rates)
        ),
        format!(
            "latency_p50_ms {p50:.4} ms (median of {k} block p50s over {per} jobs each) [{:.4}]",
            median_f64(&raw.p50_ms)
        ),
        format!(
            "latency_p99_ms {p99:.4} ms (median of {ROUNDS} round p99s: {:.3?}; >= {} jobs beyond each) [{:.4}]",
            blocks.round_p99_ms,
            fewest - (fewest * 99).div_ceil(100),
            median_f64(&raw.round_p99_ms)
        ),
        format!("failed_frac {failed_frac} ratio ({failed} of {attempted} jobs, warm-ups included)"),
        format!("allocs_per_job {allocs_per_job:.2} count ({allocs} allocations over {jobs} jobs)"),
        format!("peak_rss_mb {peak_rss:.2} MiB (VmHWM)"),
        counts_line(wl, &counts),
    ];
    Ok(Report {
        lines,
        attempted,
        failed,
        problems,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("jobs_per_s", jobs_per_s, "jobs/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_p99_ms", p99, "ms"),
            Metric::new("allocs_per_job", allocs_per_job, "count"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
        ],
    })
}

/// Measured windows cut into blocks of [`BLOCK_JOBS`] consecutive
/// completions.
#[derive(Debug, Default)]
struct Blocks {
    /// Verified jobs per second, per block.
    rates: Vec<f64>,
    p50_ms: Vec<f64>,
    /// p99 over every block of a window, per window.
    round_p99_ms: Vec<f64>,
    /// Jobs in the blocks of each window.
    round_jobs: Vec<usize>,
}

impl Blocks {
    /// Cuts one window of length `window` into blocks, dividing its times
    /// by `slowdown`.  A block's time runs from the previous block's last
    /// completion to its own last, so the first block's worth of
    /// completions (the window filling up) only opens the first block;
    /// blocks ending after the window closes (while it drains) are dropped.
    fn add(&mut self, samples: &Samples, window: Duration, slowdown: f64) {
        let close = window.as_nanos() as u64;
        let done = &samples.done_ns;
        let ms = |ns: u64| ns as f64 / 1e6 / slowdown;
        let mut lat = Vec::with_capacity(BLOCK_JOBS);
        let mut last = BLOCK_JOBS;
        for start in (BLOCK_JOBS..).step_by(BLOCK_JOBS) {
            let end = start + BLOCK_JOBS;
            if end > done.len() || done[end - 1] > close {
                break;
            }
            last = end;
            let span_s = (done[end - 1] - done[start - 1]).max(1) as f64 / 1e9 / slowdown;
            let ok = samples.verified[start..end].iter().filter(|&&v| v).count();
            lat.clear();
            lat.extend_from_slice(&samples.latency_ns[start..end]);
            lat.sort_unstable();
            self.rates.push(ok as f64 / span_s);
            self.p50_ms.push(ms(percentile_sorted(&lat, 0.50)));
        }
        if last > BLOCK_JOBS {
            let window_lat = &samples.latency_ns[BLOCK_JOBS..last];
            self.round_p99_ms.push(ms(percentile(window_lat, 0.99)));
            self.round_jobs.push(window_lat.len());
        }
    }
}

/// Farm counters summed over the traced slices.
#[derive(Debug, Default)]
struct Delta {
    jobs: u64,
    batches: u64,
    busy: Duration,
    steals: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    staging: u64,
    skipped: u64,
    billed: u64,
    /// `occupancy[i]`: passes that served `i + 1` jobs.
    occupancy: Vec<u64>,
}

impl Delta {
    fn add(&mut self, before: &FarmSnapshot, after: &FarmSnapshot) {
        let sum = |s: &FarmSnapshot, f: fn(&sia_runtime::WorkerSnapshot) -> u64| -> u64 {
            s.workers.iter().map(f).sum()
        };
        let d = |f: fn(&sia_runtime::WorkerSnapshot) -> u64| sum(after, f) - sum(before, f);
        self.jobs += d(|w| w.jobs);
        self.batches += d(|w| w.batches);
        self.busy += Duration::from_nanos(d(|w| w.busy.as_nanos() as u64));
        self.steals += after.steals - before.steals;
        self.hits += after.operand_hits() - before.operand_hits();
        self.misses += after.operand_misses() - before.operand_misses();
        self.evictions += after.operand_evictions() - before.operand_evictions();
        self.staging += after.staging_cycles() - before.staging_cycles();
        self.skipped += after.skipped_cycles() - before.skipped_cycles();
        self.billed += d(|w| w.hex_cycles + w.linear_cycles);
        let (a, b) = (after.lane_occupancy(), before.lane_occupancy());
        self.occupancy.resize(a.len().max(self.occupancy.len()), 0);
        for (k, count) in a.iter().enumerate() {
            self.occupancy[k] += count - b.get(k).copied().unwrap_or(0);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `--trace 1`: untraced and traced slices of the same farm (in the order
/// untraced, traced, traced, untraced, so drift cancels), then the
/// offline replay.
fn traced(args: &Args) -> Result<Report, String> {
    let wl = args.workload;
    let (pool, farm) = build(wl, args.seed)?;
    let origin = Instant::now();
    let farm_seconds = args.seconds as f64 * FARM_SHARE;
    let samples = (farm_seconds / 2.0 * wl.rate_hint() as f64) as usize;
    let tracer = Tracer {
        spans: SpanBuf::new(origin, SPAN_CAPACITY),
        samples: Vec::with_capacity(samples),
    };
    let mut client = warm(&farm, &pool, args.seed, tracer);
    let slice = Duration::from_secs_f64(farm_seconds / 4.0);
    let mut sink = Samples::with_capacity(samples * 2);
    let (mut plain, mut traced) = ((0u64, Duration::ZERO), (0u64, Duration::ZERO));
    let mut delta = Delta::default();
    for tracing in [false, true, true, false] {
        client.tracing = tracing;
        std::thread::sleep(SETTLE);
        let before = farm.snapshot();
        let window = client.serve(Stop::For(slice), &mut sink);
        std::thread::sleep(SETTLE);
        let after = farm.snapshot();
        let side = if tracing { &mut traced } else { &mut plain };
        side.0 += window.verified;
        side.1 += window.wall;
        if tracing {
            delta.add(&before, &after);
        }
    }
    let (tally, counts, mut tracer) = client.finish();
    let workers = farm.workers() as f64;
    let last = farm.shutdown().snapshot;
    let mut problems = audit(&counts, &tally, &last);

    let budget = Duration::from_secs_f64(args.seconds as f64 - farm_seconds);
    let replay = replay::replay(&pool, args.seed, budget, &mut tracer.spans)?;
    problems.extend(tally.first_failure);
    problems.extend(replay.first_failure.clone());

    let s: &[JobSample] = &tracer.samples;
    let p = |pick: fn(&JobSample) -> u64, q: f64| {
        percentile(&s.iter().map(pick).collect::<Vec<_>>(), q) as f64
    };
    let rate = |(jobs, wall): (u64, Duration)| jobs as f64 / wall.as_secs_f64();
    let passes: u64 = delta.occupancy.iter().sum();
    let lane_jobs: u64 = delta
        .occupancy
        .iter()
        .enumerate()
        .map(|(k, c)| (k as u64 + 1) * c)
        .sum();
    let mut metrics = vec![
        Metric::new("runtime.submit_us_p50", p(|j| j.submit_ns, 0.5) / 1e3, "us"),
        Metric::new("runtime.queue_ms_p50", p(|j| j.queue_ns, 0.5) / 1e6, "ms"),
        Metric::new("runtime.queue_ms_p99", p(|j| j.queue_ns, 0.99) / 1e6, "ms"),
        Metric::new(
            "runtime.service_us_p50",
            p(|j| j.service_ns, 0.5) / 1e3,
            "us",
        ),
        Metric::new(
            "runtime.deliver_us_p50",
            p(|j| j.deliver_ns, 0.5) / 1e3,
            "us",
        ),
        Metric::new(
            "runtime.busy_frac",
            ratio(delta.busy.as_secs_f64(), workers * traced.1.as_secs_f64()),
            "ratio",
        ),
        Metric::new(
            "runtime.jobs_per_batch",
            ratio(delta.jobs as f64, delta.batches as f64),
            "count",
        ),
        Metric::new(
            "runtime.lane_fill",
            ratio(
                lane_jobs as f64,
                (passes * sia_dbt::MAX_LANES as u64) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "runtime.steals_per_kjob",
            ratio(1e3 * delta.steals as f64, delta.jobs as f64),
            "count",
        ),
        Metric::new(
            "core.resident.hit_frac",
            ratio(delta.hits as f64, (delta.hits + delta.misses) as f64),
            "ratio",
        ),
        Metric::new(
            "core.resident.route_hit_frac",
            ratio(
                s.iter().filter(|j| j.operand_hit).count() as f64,
                s.len() as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "core.resident.evictions_per_kjob",
            ratio(1e3 * delta.evictions as f64, delta.jobs as f64),
            "count",
        ),
        Metric::new(
            "core.resident.staging_cycles_per_job",
            ratio(delta.staging as f64, delta.jobs as f64),
            "cycles",
        ),
    ];
    metrics.extend(replay.metrics());
    metrics.extend([
        Metric::new(
            "sim.skipped_frac",
            ratio(delta.skipped as f64, delta.billed as f64),
            "ratio",
        ),
        Metric::new("sim.cycles_per_job", cycles_per_job(&counts), "cycles"),
        Metric::new(
            "trace.overhead_frac",
            1.0 - rate(traced) / rate(plain),
            "ratio",
        ),
    ]);

    let path = PathBuf::from(format!(
        "farmbench/out/spans-{}-seed{}.tsv",
        wl.name(),
        args.seed
    ));
    let mut lines = vec![format!(
        "farmbench {} seed {} trace 1: {} traced jobs, {} untraced, {} replayed; {} spans ({} dropped)",
        wl.name(),
        args.seed,
        traced.0,
        plain.0,
        replay.jobs,
        tracer.spans.len(),
        tracer.spans.dropped()
    )];
    match tracer.spans.write_tsv(&path) {
        Ok(()) => lines.push(format!("spans written to {}", path.display())),
        Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
    }
    lines.push("span ledger: name count total_ms mean_us self_mean_us".to_string());
    for row in tracer.spans.ledger() {
        let n = row.count.max(1) as f64;
        lines.push(format!(
            "  {:<15} {:>8} {:>10.2} {:>10.3} {:>10.3}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.total_ns as f64 / n / 1e3,
            row.self_ns as f64 / n / 1e3
        ));
    }
    lines.push(counts_line(wl, &counts));
    for m in &metrics {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    Ok(Report {
        lines,
        attempted: tally.attempted + replay.jobs,
        failed: tally.failed + replay.failed,
        problems,
        metrics,
    })
}
