//! The workloads: farm configuration, the seeded operand pool with
//! its reference outputs, and the seeded job stream.
//!
//! Every input is a pure function of `(workload, seed)`: the pool payloads
//! come from `sia_matrix::gen` and the stream from `SplitMix64`.  Job mix
//! ratios are fixed by stream position, so every seed serves the same
//! shares of each shape; the seed picks payloads and their order.

use sia_dbt::sparse::{multiply_mv_block_sparse, plan_block_sparse};
use sia_dbt::{
    mm_staging_cycles, multiply_mm, multiply_mv, mv_staging_cycles, sparse_staging_cycles,
    DbtError, MmShape, MvSchedule, MvShape,
};
use sia_matrix::rng::SplitMix64;
use sia_matrix::{gen, DenseMatrix};
use sia_runtime::{FarmConfig, Job, JobOutput, OperandRef};
use std::sync::Arc;

/// Keys of one-shot operands start here, far above every hot key, and
/// grow with the stream position, so a one-shot key is never seen twice.
const FRESH_KEY_BASE: u64 = 1 << 40;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every operand is a never-seen key: each serve stages, plans,
    /// simulates and extracts (the fresh path).  The band cache only
    /// inserts and evicts; it is never warm.
    FreshMixed,
    /// Repeat-operand 64³ MM: the lane engine, coalescing and cache-aware
    /// routing do the work, beside a one-in-ten stream of one-shot misses.
    HotLanes,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 2] = [Workload::FreshMixed, Workload::HotLanes];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in metrics.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshMixed => "fresh_mixed",
            Workload::HotLanes => "hot_lanes",
        }
    }

    /// Array size `w`.
    pub fn w(self) -> usize {
        match self {
            Workload::FreshMixed => 8,
            Workload::HotLanes => 4,
        }
    }

    /// Outstanding tickets the closed-loop client keeps.  On `hot_lanes`
    /// it is two full 16-lane passes per worker, so every pass is full
    /// and the runs do not settle into different batch sizes.
    pub fn window(self) -> usize {
        match self {
            Workload::FreshMixed => 4,
            Workload::HotLanes => 64,
        }
    }

    /// Jobs served untimed before the measured window opens: enough to
    /// fill the band caches, reply-slot and output pools and the station
    /// workspaces.
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::FreshMixed => 300,
            Workload::HotLanes => 256,
        }
    }

    /// Whether served matrix outputs go back to the farm's output pool.
    pub fn recycles_outputs(self) -> bool {
        self == Workload::HotLanes
    }

    /// Whether every serve must stage every operand (no key repeats), so
    /// each receipt's staging cycles equal the cold closed form.
    pub fn always_cold(self) -> bool {
        self == Workload::FreshMixed
    }

    /// Upper estimate of completed jobs per second, used only to size
    /// preallocated sample buffers.
    pub fn rate_hint(self) -> usize {
        match self {
            Workload::FreshMixed => 8_000,
            Workload::HotLanes => 2_000,
        }
    }

    /// The farm configuration.  Coalescing is off on `fresh_mixed` so that
    /// every serve goes through the resident solve path and its staging
    /// count is exact.
    pub fn config(self) -> FarmConfig {
        match self {
            Workload::FreshMixed => FarmConfig::new(8).coalesce_limit(1),
            Workload::HotLanes => FarmConfig::new(4)
                .hex_workers(2)
                .linear_workers(0)
                .lanes(16)
                .coalesce_limit(16),
        }
    }
}

/// Job kind of a pool template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense `C = A·B`.
    Mm,
    /// Dense `y = A·x`.
    Mv,
    /// Block-sparse `y = A·x`.
    SparseMv,
}

/// What a correct serve of a template returns, from a direct `sia_dbt`
/// call at set-up, plus the template's closed forms.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Row-major output values.
    pub values: Vec<f64>,
    /// Output shape `(rows, cols)`; a vector is `(len, 1)`.
    pub shape: (usize, usize),
    /// Closed-form compute cycles (equal to the direct call's count).
    pub cycles: usize,
    /// Closed-form cold staging cycles of all the job's operands.
    pub cold_staging: usize,
    /// Useful multiply-accumulates (non-zero blocks only, for sparse).
    pub macs: u64,
}

impl Expect {
    /// `true` when `output` matches bit for bit.
    pub fn matches(&self, output: &JobOutput) -> bool {
        match output {
            JobOutput::Matrix(m) => {
                m.shape() == self.shape
                    && (0..m.rows())
                        .flat_map(|i| m.row(i).iter())
                        .zip(&self.values)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            JobOutput::Vector(v) => self.shape == (v.len(), 1) && same_bits(v, &self.values),
        }
    }
}

/// Bitwise slice equality.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One pool entry: payloads, the hot keys (if the operands are hot) and
/// the expected result.
#[derive(Debug)]
pub struct Template {
    /// Job kind.
    pub kind: Kind,
    /// Left operand / matrix.
    pub a: Arc<DenseMatrix<f64>>,
    /// Right operand (MM only).
    pub b: Option<Arc<DenseMatrix<f64>>>,
    /// Vector operand (MV kinds only).
    pub x: Vec<f64>,
    /// Named key of `a` when it is hot; `None` gives every job a fresh key.
    pub hot_a: Option<u64>,
    /// Named key of `b` when it is hot.
    pub hot_b: Option<u64>,
    /// Shape group: jobs of one group share one solve schedule.
    pub group: usize,
    /// The reference result.
    pub expect: Expect,
}

/// One job of the stream: its position and its pool template.
#[derive(Debug, Clone, Copy)]
pub struct Desc {
    /// Position in the stream (also the source of one-shot keys).
    pub index: u64,
    /// Index into [`Pool::templates`].
    pub template: usize,
}

/// The workload's seeded payloads and their reference outputs.
#[derive(Debug)]
pub struct Pool {
    /// The workload the pool serves.
    pub workload: Workload,
    /// Every payload combination the stream draws from.
    pub templates: Vec<Template>,
    /// Number of shape groups.
    pub groups: usize,
}

impl Pool {
    /// Generates the payloads for `(workload, seed)` and computes every
    /// reference output by a direct `sia_dbt` call.
    ///
    /// # Errors
    ///
    /// A solver error, or a direct call whose cycle count is not the
    /// closed form (reported as text).
    pub fn new(workload: Workload, seed: u64) -> Result<Pool, String> {
        let w = workload.w();
        // Distinct payload seeds per workload and seed.
        let base = seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(workload as u64 * 1_000_003);
        let dense = |n: usize, k: u64| Arc::new(gen::random_dense_f64(n, n, base.wrapping_add(k)));
        let vector = |n: usize, k: u64| gen::random_vector_f64(n, base.wrapping_add(k));
        let mut templates = Vec::new();
        // Groups: fresh_mixed MM 32³ / MV 128² / sparse MV 256²; hot_lanes
        // MM 64³.
        let groups = match workload {
            Workload::FreshMixed => 3,
            Workload::HotLanes => 1,
        };
        match workload {
            Workload::FreshMixed => {
                for k in 0..4 {
                    templates.push(mm_template(
                        w,
                        dense(32, k),
                        dense(32, 100 + k),
                        None,
                        None,
                        0,
                    )?);
                }
                for k in 0..4 {
                    let a = dense(128, 200 + k);
                    templates.push(mv_template(w, a, vector(128, 300 + k), None, 1)?);
                }
                for k in 0..4 {
                    let a = Arc::new(exact_block_sparse(256, w, 0.2, base.wrapping_add(400 + k)));
                    templates.push(sparse_template(w, a, vector(256, 500 + k), 2)?);
                }
            }
            Workload::HotLanes => {
                let b = dense(64, 100);
                // Four hot left operands, then four one-shot payloads.
                for k in 0..8 {
                    let hot_a = (k < 4).then_some(1 + k);
                    let a = dense(64, k);
                    templates.push(mm_template(w, a, Arc::clone(&b), hot_a, Some(100), 0)?);
                }
            }
        }
        Ok(Pool {
            workload,
            templates,
            groups,
        })
    }

    /// Builds the job a descriptor names: `Arc` bumps around the pooled
    /// payloads (plus one vector copy for MV jobs), never a new matrix.
    pub fn job(&self, desc: Desc) -> Job {
        let t = &self.templates[desc.template];
        let (a, b) = self.operands(desc);
        match t.kind {
            Kind::Mm => Job::dense_mm(a, b.expect("MM templates have a right operand")),
            Kind::Mv => Job::dense_mv(a, t.x.clone()),
            Kind::SparseMv => Job::block_sparse_mv(a, t.x.clone()),
        }
    }

    /// The operand references a descriptor names: the hot key when the
    /// template's operand is hot, else a key no other job uses.
    pub fn operands(&self, desc: Desc) -> (OperandRef, Option<OperandRef>) {
        let t = &self.templates[desc.template];
        let fresh = FRESH_KEY_BASE + 2 * desc.index;
        let a = OperandRef::named(t.hot_a.unwrap_or(fresh), Arc::clone(&t.a));
        let b =
            t.b.as_ref()
                .map(|b| OperandRef::named(t.hot_b.unwrap_or(fresh + 1), Arc::clone(b)));
        (a, b)
    }
}

/// An `n × n` matrix whose `w × w` blocks are all zero except exactly
/// `round(density · blocks)` dense ones, placed by the seed — so every
/// seed gives the same amount of work, unlike a per-block coin flip.
fn exact_block_sparse(n: usize, w: usize, density: f64, seed: u64) -> DenseMatrix<f64> {
    let blocks_per_row = n.div_ceil(w);
    let total = blocks_per_row * blocks_per_row;
    let kept = (density * total as f64).round() as usize;
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..total).collect();
    for i in 0..kept {
        let j = rng.range_usize(i, total);
        order.swap(i, j);
    }
    let mut keep = vec![false; total];
    for &block in &order[..kept] {
        keep[block] = true;
    }
    DenseMatrix::from_fn(n, n, |i, j| {
        if keep[(i / w) * blocks_per_row + j / w] {
            rng.range_f64(-1.0, 1.0)
        } else {
            0.0
        }
    })
}

fn mm_template(
    w: usize,
    a: Arc<DenseMatrix<f64>>,
    b: Arc<DenseMatrix<f64>>,
    hot_a: Option<u64>,
    hot_b: Option<u64>,
    group: usize,
) -> Result<Template, String> {
    let out = multiply_mm(&a, &b, None, w).map_err(solver)?;
    let shape = MmShape {
        w,
        n: a.rows(),
        p: a.cols(),
        m: b.cols(),
    };
    let expect = Expect {
        values: out.c.clone().into_raw(),
        shape: out.c.shape(),
        cycles: closed_form(out.cycles, shape.cycles(), "mm")?,
        cold_staging: mm_staging_cycles(shape),
        macs: (shape.n * shape.p * shape.m) as u64,
    };
    Ok(Template {
        kind: Kind::Mm,
        a,
        b: Some(b),
        x: Vec::new(),
        hot_a,
        hot_b,
        group,
        expect,
    })
}

fn mv_template(
    w: usize,
    a: Arc<DenseMatrix<f64>>,
    x: Vec<f64>,
    hot_a: Option<u64>,
    group: usize,
) -> Result<Template, String> {
    let out = multiply_mv(&a, &x, None, w, MvSchedule::Simple).map_err(solver)?;
    let shape = MvShape {
        w,
        n: a.rows(),
        m: a.cols(),
    };
    let expect = Expect {
        shape: (out.y.len(), 1),
        values: out.y,
        cycles: closed_form(out.cycles, shape.cycles(), "mv")?,
        cold_staging: mv_staging_cycles(shape),
        macs: (shape.n * shape.m) as u64,
    };
    Ok(Template {
        kind: Kind::Mv,
        a,
        b: None,
        x,
        hot_a,
        hot_b: None,
        group,
        expect,
    })
}

fn sparse_template(
    w: usize,
    a: Arc<DenseMatrix<f64>>,
    x: Vec<f64>,
    group: usize,
) -> Result<Template, String> {
    let out = multiply_mv_block_sparse(&a, &x, None, w).map_err(solver)?;
    let plan = plan_block_sparse(&a, w).map_err(solver)?;
    let expect = Expect {
        shape: (out.outcome.y.len(), 1),
        values: out.outcome.y,
        cycles: closed_form(out.outcome.cycles, plan.predicted_cycles(), "sparse-mv")?,
        cold_staging: sparse_staging_cycles(&plan),
        macs: (plan.nonzero_blocks * w * w) as u64,
    };
    Ok(Template {
        kind: Kind::SparseMv,
        a,
        b: None,
        x,
        hot_a: None,
        hot_b: None,
        group,
        expect,
    })
}

fn solver(e: DbtError) -> String {
    format!("reference solve failed: {e}")
}

fn closed_form(measured: usize, predicted: usize, what: &str) -> Result<usize, String> {
    if measured == predicted {
        Ok(measured)
    } else {
        Err(format!(
            "reference {what} solve took {measured} cycles, closed form says {predicted}"
        ))
    }
}

/// The seeded job stream of a workload: an endless, deterministic
/// sequence of [`Desc`]s.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: SplitMix64,
    /// Seed-chosen offset of the fixed-ratio pattern.
    phase: u64,
    next: u64,
}

impl Stream {
    /// The stream of `(workload, seed)`, from position 0.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = SplitMix64::new(seed ^ (0xF0F0_0000 + workload as u64));
        let phase = rng.next_u64();
        Stream {
            workload,
            rng,
            phase,
            next: 0,
        }
    }

    /// The next job.
    pub fn next_desc(&mut self) -> Desc {
        let index = self.next;
        self.next += 1;
        let pick = |rng: &mut SplitMix64, lo: usize, n: usize| lo + rng.range_usize(0, n);
        let template = match self.workload {
            // Rotate MM, MV, sparse MV; four payloads each.
            Workload::FreshMixed => {
                let kind = ((index + self.phase) % 3) as usize;
                pick(&mut self.rng, 4 * kind, 4)
            }
            // One job in ten carries a one-shot left operand.
            Workload::HotLanes => {
                if (index + self.phase).is_multiple_of(10) {
                    pick(&mut self.rng, 4, 4)
                } else {
                    pick(&mut self.rng, 0, 4)
                }
            }
        };
        Desc { index, template }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_workload_and_seed() {
        for wl in Workload::ALL {
            let a: Vec<usize> = {
                let mut s = Stream::new(wl, 7);
                (0..200).map(|_| s.next_desc().template).collect()
            };
            let b: Vec<usize> = {
                let mut s = Stream::new(wl, 7);
                (0..200).map(|_| s.next_desc().template).collect()
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pools_verify_their_own_direct_calls() {
        for wl in Workload::ALL {
            let pool = Pool::new(wl, 3).expect("pool builds");
            let mut stream = Stream::new(wl, 3);
            for _ in 0..60 {
                let desc = stream.next_desc();
                let t = &pool.templates[desc.template];
                assert!(t.group < pool.groups);
                assert!(pool.job(desc).validate(wl.w()).is_ok());
            }
        }
    }
}
