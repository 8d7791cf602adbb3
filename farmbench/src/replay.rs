//! The offline layer replay: the workload's seeded job stream served one
//! job at a time on a single `ArrayStation` plus `BandCache`, timing each
//! layer's public entry point from outside (admission pricing and
//! validation, DBT staging, shape schedule, fresh / resident / lane solves).
//!
//! Samples are kept per shape group; a workload's figure is the median of
//! each group weighted by the group's share of the stream.

use crate::spans::{SpanBuf, ROOT};
use crate::stats::{median_f64, Metric};
use crate::workload::{Kind, Pool, Stream, Template};
use sia_dbt::sparse::{multiply_mv_block_sparse_on, plan_block_sparse};
use sia_dbt::{
    accumulation_plan, build_a_hat, build_b_hat, multiply_mm_on, multiply_mm_resident_lanes_on,
    multiply_mm_resident_on, multiply_mv_block_sparse_resident_on, multiply_mv_lanes_on,
    multiply_mv_on, multiply_mv_resident_on, BandCache, DbtByRows, DbtError, MmResidentProblem,
    MmShape, MvProblem, MvSchedule, MAX_LANES,
};
use sia_matrix::DenseMatrix;
use sia_runtime::{CostModel, JobOutput};
use sia_sim::ArrayStation;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per `predict` / `validate` span: one call is too short to time.
const REPS: u32 = 16;

/// Samples per group the replay aims for at least, past its time budget.
const MIN_SAMPLES: usize = 3;

/// Samples per group after which the group's jobs are skipped.
const MAX_SAMPLES: usize = 400;

/// Stream prefix that fixes each group's share of the mix.
const MIX_JOBS: usize = 10_000;

/// Entries of the replay's band cache (the farm's default).
const CACHE_ENTRIES: usize = 32;

/// One shape group's samples: times in ns per job, allocations per call.
#[derive(Debug, Default)]
struct Group {
    predict: Vec<f64>,
    stage: Vec<f64>,
    plan: Vec<f64>,
    fresh: Vec<f64>,
    resident: Vec<f64>,
    lanes: Vec<f64>,
    allocs_fresh: Vec<f64>,
    allocs_resident: Vec<f64>,
    cycles: f64,
    macs: f64,
}

/// What the replay measured and checked.
#[derive(Debug)]
pub struct Replay {
    groups: Vec<Group>,
    /// Each group's share of the stream.
    mix: Vec<f64>,
    /// Jobs replayed.
    pub jobs: u64,
    /// Replayed jobs with a solve (fresh, resident or lane) that failed
    /// or differed from the reference.
    pub failed: u64,
    /// The first failure.
    pub first_failure: Option<String>,
}

/// Replays the stream of `(pool.workload, seed)` for about `budget`.
///
/// # Errors
///
/// A station or cost model that cannot be built for the workload's `w`.
pub fn replay(
    pool: &Pool,
    seed: u64,
    budget: Duration,
    spans: &mut SpanBuf,
) -> Result<Replay, String> {
    let wl = pool.workload;
    let w = wl.w();
    let cost = CostModel::new(w).map_err(|e| e.to_string())?;
    let mut station = ArrayStation::<f64>::new(w).map_err(|e| e.to_string())?;
    let mut cache = BandCache::new(w, CACHE_ENTRIES);
    let mut out = Replay {
        groups: (0..pool.groups).map(|_| Group::default()).collect(),
        mix: vec![0.0; pool.groups],
        jobs: 0,
        failed: 0,
        first_failure: None,
    };
    let mut mix_stream = Stream::new(wl, seed);
    for _ in 0..MIX_JOBS {
        out.mix[pool.templates[mix_stream.next_desc().template].group] += 1.0 / MIX_JOBS as f64;
    }
    let mut stream = Stream::new(wl, seed);
    let start = Instant::now();
    loop {
        let over = start.elapsed() >= budget;
        let floor = if over { MIN_SAMPLES } else { MAX_SAMPLES };
        if out.groups.iter().all(|g| g.fresh.len() >= floor) {
            break;
        }
        let desc = stream.next_desc();
        let t = &pool.templates[desc.template];
        if out.groups[t.group].fresh.len() >= floor {
            continue;
        }
        let (a, b) = pool.operands(desc);
        let job = pool.job(desc);
        let root = spans.push_at(
            ROOT,
            "replay_job",
            Instant::now(),
            Instant::now(),
            desc.index,
        );
        let g = &mut out.groups[t.group];
        g.cycles = t.expect.cycles as f64;
        g.macs = t.expect.macs as f64;

        let s = Instant::now();
        for _ in 0..REPS {
            black_box(cost.predict(black_box(&job)).ok());
        }
        g.predict
            .push(lap(spans, root, "predict", s, desc.index) / f64::from(REPS));
        let s = Instant::now();
        for _ in 0..REPS {
            black_box(black_box(&job).validate(w).ok());
        }
        lap(spans, root, "validate", s, desc.index);

        let s = Instant::now();
        stage(t, w).map_err(|e| e.to_string())?;
        g.stage.push(lap(spans, root, "stage", s, desc.index));
        if t.kind == Kind::Mm {
            let shape = mm_shape(t, w);
            let s = Instant::now();
            black_box(accumulation_plan(shape).map_err(|e| e.to_string())?);
            g.plan.push(lap(spans, root, "plan", s, desc.index));
        } else {
            g.plan.push(0.0);
        }

        let allocs = sia_alloc::allocation_count();
        let s = Instant::now();
        let fresh = solve_fresh(&mut station, t);
        let fresh_ns = lap(spans, root, "solve_fresh", s, desc.index);
        g.allocs_fresh
            .push((sia_alloc::allocation_count() - allocs) as f64);
        g.fresh.push(fresh_ns);

        // Warm the cache with the job's operands, then time a hit.
        let s = Instant::now();
        let warm = solve_resident(&mut station, &mut cache, t, &a, b.as_ref());
        spans.push_at(root, "warm", s, Instant::now(), desc.index);
        let allocs = sia_alloc::allocation_count();
        let s = Instant::now();
        let resident = solve_resident(&mut station, &mut cache, t, &a, b.as_ref());
        let resident_ns = lap(spans, root, "solve_resident", s, desc.index);
        g.allocs_resident
            .push((sia_alloc::allocation_count() - allocs) as f64);
        g.resident.push(resident_ns);

        let s = Instant::now();
        let lanes = solve_lanes(&mut station, &mut cache, t, &a, b.as_ref());
        if lanes.is_some() {
            g.lanes
                .push(lap(spans, root, "solve_lanes", s, desc.index) / MAX_LANES as f64);
        }
        spans.finish(root, Instant::now());

        out.jobs += 1;
        let exact = matches!(cost.predict(&job), Ok(c) if c.exact && c.cycles == t.expect.cycles);
        if !exact {
            out.failed += 1;
            out.first_failure.get_or_insert(format!(
                "replayed job {}: prediction is not the closed form",
                desc.index
            ));
            continue;
        }
        let mut results = vec![fresh, warm, resident];
        results.extend(lanes.into_iter().flatten());
        let bad = results
            .into_iter()
            .enumerate()
            .find(|(_, r)| !matches!(r, Ok(o) if t.expect.matches(o)));
        if let Some((k, result)) = bad {
            out.failed += 1;
            out.first_failure.get_or_insert(format!(
                "replayed job {} (solve {k}): {}",
                desc.index,
                match result {
                    Ok(_) => "output differs from the direct solver call".to_string(),
                    Err(e) => e.to_string(),
                }
            ));
        }
    }
    Ok(out)
}

/// Records the span from `start` to now and returns its length in ns.
fn lap(spans: &mut SpanBuf, root: u32, name: &'static str, start: Instant, job: u64) -> f64 {
    let end = Instant::now();
    spans.push_at(root, name, start, end, job);
    end.duration_since(start).as_nanos() as f64
}

fn mm_shape(t: &Template, w: usize) -> MmShape {
    let b = t.b.as_ref().expect("MM templates have a right operand");
    MmShape {
        w,
        n: t.a.rows(),
        p: t.a.cols(),
        m: b.cols(),
    }
}

/// The DBT staging work of a job: both MM bands, the MV band, or the
/// block-sparse survival scan (the shortened band build is not public).
fn stage(t: &Template, w: usize) -> Result<(), DbtError> {
    match t.kind {
        Kind::Mm => {
            let shape = mm_shape(t, w);
            let b = t.b.as_ref().expect("MM templates have a right operand");
            black_box(build_a_hat(&t.a, shape.mbar(), w)?);
            black_box(build_b_hat(b, shape.nbar(), w)?);
        }
        Kind::Mv => {
            black_box(DbtByRows::new(&t.a, w)?);
        }
        Kind::SparseMv => {
            black_box(plan_block_sparse(&t.a, w)?);
        }
    }
    Ok(())
}

type Solved = Result<JobOutput, DbtError>;

fn solve_fresh(station: &mut ArrayStation<f64>, t: &Template) -> Solved {
    Ok(match t.kind {
        Kind::Mm => {
            let b: &DenseMatrix<f64> = t.b.as_ref().expect("MM templates have a right operand");
            JobOutput::Matrix(multiply_mm_on(station, &t.a, b, None)?.c)
        }
        Kind::Mv => {
            JobOutput::Vector(multiply_mv_on(station, &t.a, &t.x, None, MvSchedule::Simple)?.y)
        }
        Kind::SparseMv => JobOutput::Vector(
            multiply_mv_block_sparse_on(station, &t.a, &t.x, None)?
                .outcome
                .y,
        ),
    })
}

fn solve_resident(
    station: &mut ArrayStation<f64>,
    cache: &mut BandCache<f64>,
    t: &Template,
    a: &sia_runtime::OperandRef,
    b: Option<&sia_runtime::OperandRef>,
) -> Solved {
    Ok(match t.kind {
        Kind::Mm => {
            let b = b.expect("MM templates have a right operand");
            JobOutput::Matrix(multiply_mm_resident_on(station, cache, a, b, None)?.0.c)
        }
        Kind::Mv => JobOutput::Vector(
            multiply_mv_resident_on(station, cache, a, &t.x, None, MvSchedule::Simple)?
                .0
                .y,
        ),
        Kind::SparseMv => JobOutput::Vector(
            multiply_mv_block_sparse_resident_on(station, cache, a, &t.x, None)?
                .0
                .outcome
                .y,
        ),
    })
}

/// One lane pass of [`MAX_LANES`] copies of the job (`None` for kinds
/// without a lane path).
fn solve_lanes(
    station: &mut ArrayStation<f64>,
    cache: &mut BandCache<f64>,
    t: &Template,
    a: &sia_runtime::OperandRef,
    b: Option<&sia_runtime::OperandRef>,
) -> Option<Vec<Solved>> {
    let collect = |outputs: Result<Vec<JobOutput>, DbtError>| match outputs {
        Ok(outputs) => outputs.into_iter().map(Ok).collect(),
        Err(e) => vec![Err(e)],
    };
    match t.kind {
        Kind::Mm => {
            let b = b.expect("MM templates have a right operand");
            let problems = [MmResidentProblem { a, b, e: None }; MAX_LANES];
            Some(collect(
                multiply_mm_resident_lanes_on(station, cache, &problems)
                    .map(|(o, _)| o.into_iter().map(|o| JobOutput::Matrix(o.c)).collect()),
            ))
        }
        Kind::Mv => {
            let problems = [MvProblem {
                a: &*t.a,
                x: &t.x,
                b: None,
            }; MAX_LANES];
            Some(collect(
                multiply_mv_lanes_on(station, &problems, MvSchedule::Simple)
                    .map(|o| o.into_iter().map(|o| JobOutput::Vector(o.y)).collect()),
            ))
        }
        Kind::SparseMv => None,
    }
}

impl Replay {
    /// Σ over groups of share × median of `pick`, over the groups `pick`
    /// has samples for, renormalized to their shares.
    fn weighted(&self, pick: impl Fn(&Group) -> &Vec<f64>) -> f64 {
        let (mut sum, mut share) = (0.0, 0.0);
        for (g, f) in self.groups.iter().zip(&self.mix) {
            if !pick(g).is_empty() {
                sum += f * median_f64(pick(g));
                share += f;
            }
        }
        if share == 0.0 {
            0.0
        } else {
            sum / share
        }
    }

    /// The replay's per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let us = |ns: f64| ns / 1e3;
        let predict = self.weighted(|g| &g.predict);
        let stage = self.weighted(|g| &g.stage);
        let plan = self.weighted(|g| &g.plan);
        let fresh = self.weighted(|g| &g.fresh);
        let resident = self.weighted(|g| &g.resident);
        let lanes = self.weighted(|g| &g.lanes);
        let cycles: f64 = self
            .groups
            .iter()
            .zip(&self.mix)
            .map(|(g, f)| f * g.cycles)
            .sum();
        let macs: f64 = self
            .groups
            .iter()
            .zip(&self.mix)
            .map(|(g, f)| f * g.macs)
            .sum();
        vec![
            Metric::new("runtime.cost.predict_us", us(predict), "us"),
            Metric::new("core.dbt.stage_us", us(stage), "us"),
            Metric::new("core.mm.plan_us", us(plan), "us"),
            Metric::new("core.solve.fresh_us", us(fresh), "us"),
            Metric::new("core.solve.resident_us", us(resident), "us"),
            Metric::new("core.solve.lanes_us_per_job", us(lanes), "us"),
            Metric::new(
                "core.solve.unattributed_us",
                us(fresh - resident - stage - plan),
                "us",
            ),
            Metric::new(
                "core.solve.allocs_fresh",
                self.weighted(|g| &g.allocs_fresh),
                "count",
            ),
            Metric::new(
                "core.solve.allocs_resident",
                self.weighted(|g| &g.allocs_resident),
                "count",
            ),
            Metric::new("sim.ns_per_cycle", resident / cycles, "ns"),
            Metric::new("sim.ns_per_mac", resident / macs, "ns"),
        ]
    }
}
