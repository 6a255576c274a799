//! The paper-pipeline workload: `Workbench::run_m2td` end to end, and a
//! stage-by-stage rebuild making the same public calls for the traced
//! run.

use crate::stats::{median, tail, Fnv, Outcome};
use crate::trace::{subtree, Breakdown, Layer, SpanRec, ThreadLog};
use crate::{Args, Run};
use m2td_core::{m2td_decompose, M2tdOptions, M2tdTimings, RunReport, Workbench, WorkbenchConfig};
use m2td_sampling::{PfPartition, SubSystem};
use m2td_sim::systems::Lorenz;
use m2td_sim::{EnsembleBuilder, EnsembleSystem, TimeGrid};
use m2td_stitch::{StitchKind, StitchReport};
use m2td_tensor::{CellEvaluator, CoreOrdering, TtmPlan, TuckerDecomp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; the median is reported.
const SETUP_REPS: usize = 5;
/// Fewest timed `run_m2td` calls per run, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Self times must cover this share of a traced run's wall time.
const MIN_COVERAGE_PCT: f64 = 95.0;
/// Cells per uncached `CellEvaluator::cell` timing.
const EVAL_CELLS: usize = 4096;

/// The pipeline workload: the system, its grid and the M2TD options.
struct Spec {
    system: fn() -> Box<dyn EnsembleSystem>,
    resolution: usize,
    rank: usize,
    t_end: f64,
    pivot_mode: usize,
    stitch: StitchKind,
}

/// `pipeline_dense`: Lorenz at resolution 16, time as the pivot, full
/// densities, join stitch: stitch, Phase 3 and reconstruct dominate.
fn spec() -> Spec {
    Spec {
        system: || Box::new(Lorenz::default()),
        resolution: 16,
        rank: 4,
        t_end: 1.0,
        pivot_mode: 4,
        stitch: StitchKind::Join,
    }
}

impl Spec {
    /// The configuration `m2td-cli run` builds for a system (resolution
    /// and time steps equal, 16 RK4 substeps, clean observations), with
    /// the sampling seed taken from `--seed`.
    fn config(&self, seed: u64) -> WorkbenchConfig {
        WorkbenchConfig {
            resolution: self.resolution,
            time_steps: self.resolution,
            t_end: self.t_end,
            substeps: 16,
            rank: self.rank,
            seed,
            noise_sigma: 0.0,
        }
    }

    fn options(&self) -> M2tdOptions {
        M2tdOptions {
            stitch: self.stitch,
            ..M2tdOptions::default()
        }
    }

    fn run(&self, w: &Workbench<'_>) -> Result<RunReport, String> {
        w.run_m2td(self.pivot_mode, self.options(), 1.0, 1.0)
            .map_err(|e| e.to_string())
    }
}

/// Everything a `RunReport` exposes about the computed result.
fn report_fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.accuracy);
    h.u64(r.cells as u64);
    h.u64(r.distinct_sims as u64);
    h.f64(r.density);
    if let Some(s) = &r.stitch {
        h.u64(s.join_nnz as u64);
        h.u64(s.shared_pivot_configs as u64);
    }
    h.finish()
}

/// Bitwise fingerprint of a decomposition: core, then every factor.
fn model_fingerprint(t: &TuckerDecomp) -> u64 {
    let mut h = Fnv::new();
    h.f64s(t.core.as_slice());
    for f in &t.factors {
        h.f64s(f.as_slice());
    }
    h.finish()
}

/// Output of one stage-by-stage run.
struct Staged {
    tucker: TuckerDecomp,
    accuracy: f64,
    stitch: StitchReport,
    timings: M2tdTimings,
    cells: usize,
    distinct_sims: usize,
    root: u64,
}

/// The body of `Workbench::run_m2td` rebuilt from the crates' public
/// functions, each call wrapped in a span under one root. Stage order,
/// seeds and arguments match the library, so the outputs are bitwise
/// those of `run_m2td`; the run checks that.
fn staged_run(
    w: &Workbench<'_>,
    system: &dyn EnsembleSystem,
    spec: &Spec,
    log: &mut ThreadLog,
) -> Result<Staged, String> {
    let cfg = *w.config();
    let full_dims = w.full_dims().to_vec();
    let space = system.default_space(cfg.resolution);
    let grid = TimeGrid::new(cfg.t_end, cfg.time_steps, cfg.substeps);
    let mut defaults = space.default_indices();
    defaults.push(cfg.time_steps / 2);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    log.span(0, "pipeline.run", Layer::Harness, |log, root| {
        let (partition, plan1, plan2) =
            log.span(root, "sampling.plan", Layer::Sampling, |_, _| {
                let partition =
                    PfPartition::balanced(full_dims.len(), spec.pivot_mode).map_err(|e| err(&e))?;
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
                let mut plans = Vec::with_capacity(2);
                for which in [SubSystem::First, SubSystem::Second] {
                    plans.push(
                        partition
                            .plan_subsystem(&full_dims, &defaults, which, 1.0, 1.0, &mut rng)
                            .map_err(|e| err(&e))?,
                    );
                }
                let plan2 = plans.pop().expect("two plans");
                let plan1 = plans.pop().expect("two plans");
                Ok::<_, String>((partition, plan1, plan2))
            })?;
        let cells = plan1.len() + plan2.len();

        let builder = EnsembleBuilder::new(system, &space, &grid);
        let ((full1, sims1), (full2, sims2)) =
            log.span(root, "sim.build", Layer::Sim, |_, _| {
                let (r1, r2) = m2td_par::join(
                    || builder.build_sparse(&plan1),
                    || builder.build_sparse(&plan2),
                );
                Ok::<_, String>((r1.map_err(|e| err(&e))?, r2.map_err(|e| err(&e))?))
            })?;

        let (x1, x2) = log.span(root, "sampling.extract", Layer::Sampling, |_, _| {
            let x1 = partition
                .extract_sub_tensor(&full1, &defaults, SubSystem::First)
                .map_err(|e| err(&e))?;
            let x2 = partition
                .extract_sub_tensor(&full2, &defaults, SubSystem::Second)
                .map_err(|e| err(&e))?;
            Ok::<_, String>((x1, x2))
        })?;

        let join_ranks: Vec<usize> = partition
            .join_modes()
            .iter()
            .map(|&m| cfg.rank.min(full_dims[m]))
            .collect();
        let id = log.next_id();
        let start = Instant::now();
        let decomp = m2td_decompose(&x1, &x2, partition.k(), &join_ranks, spec.options())
            .map_err(|e| err(&e))?;
        let end = Instant::now();
        // The phases run inside one library call; their spans are placed
        // back to back from the call's start using the durations the
        // call reports in `M2tdTimings`.
        let t = decomp.timings;
        let mut at = start;
        for (name, layer, secs) in [
            ("core.phase1", Layer::Core, t.phase1_decompose),
            ("stitch.join", Layer::Stitch, t.phase2_stitch),
            ("core.phase3", Layer::Core, t.phase3_core),
        ] {
            let next = (at + Duration::from_secs_f64(secs)).min(end);
            let child = log.next_id();
            log.record(child, id, name, layer, at, next);
            at = next;
        }
        log.record(id, root, "core.decompose", Layer::Core, start, end);

        let recon = log.span(root, "tensor.reconstruct", Layer::Tensor, |_, _| {
            decomp
                .tucker
                .reconstruct()
                .and_then(|r| r.permute_modes(&partition.perm_join_to_natural()))
                .map_err(|e| err(&e))
        })?;
        let accuracy = log.span(root, "core.accuracy", Layer::Core, |_, _| {
            w.accuracy(&recon).map_err(|e| err(&e))
        })?;
        Ok(Staged {
            tucker: decomp.tucker,
            accuracy,
            stitch: decomp.stitch_report,
            timings: decomp.timings,
            cells,
            distinct_sims: sims1 + sims2,
            root,
        })
    })
}

/// Checks a staged run against the `run_m2td` report it must reproduce.
fn check_staged(out: &mut Outcome, staged: &Staged, report: &RunReport) {
    out.check(
        staged.accuracy.to_bits() == report.accuracy.to_bits(),
        || {
            format!(
                "staged rebuild accuracy {} differs from run_m2td's {}",
                staged.accuracy, report.accuracy
            )
        },
    );
    let same_counts = staged.cells == report.cells
        && staged.distinct_sims == report.distinct_sims
        && report.stitch.as_ref().map(|s| s.join_nnz) == Some(staged.stitch.join_nnz);
    out.check(same_counts, || {
        "staged rebuild cell, run or join counts differ from run_m2td's".to_string()
    });
}

/// Mean ns of an uncached `CellEvaluator::cell` over seeded cells of the
/// decomposition, checked bitwise against `TuckerDecomp::cell`.
pub fn eval_cell_ns(tucker: &TuckerDecomp, seed: u64, out: &mut Outcome) -> f64 {
    let eval = CellEvaluator::new(tucker.clone());
    let dims = eval.output_dims().to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xce11);
    let cells: Vec<Vec<usize>> = (0..EVAL_CELLS)
        .map(|_| dims.iter().map(|&d| rng.gen_range(0..d)).collect())
        .collect();
    let start = Instant::now();
    let mut acc = 0.0;
    for c in &cells {
        acc += eval.cell(std::hint::black_box(c)).unwrap_or(f64::NAN);
    }
    let ns = start.elapsed().as_nanos() as f64 / cells.len() as f64;
    std::hint::black_box(acc);
    for c in cells.iter().take(64) {
        let (a, b) = (eval.cell(c), tucker.cell(c));
        let same = matches!((&a, &b), (Ok(x), Ok(y)) if x.to_bits() == y.to_bits());
        out.check(same, || {
            format!("CellEvaluator::cell {a:?} differs from TuckerDecomp::cell {b:?} at {c:?}")
        });
    }
    ns
}

/// Builds the workbench (the ground truth) and runs one warm-up
/// pipeline, returning both. `Workbench::new` simulates every
/// configuration of the grid.
fn set_up<'a>(
    system: &'a dyn EnsembleSystem,
    spec: &Spec,
    cfg: WorkbenchConfig,
) -> Result<(Workbench<'a>, RunReport), String> {
    let w = Workbench::new(system, cfg).map_err(|e| e.to_string())?;
    let warm = spec.run(&w)?;
    Ok((w, warm))
}

/// Times `run_m2td` back to back until `budget` has passed (and
/// at least `MIN_REPS` calls), checking every result against `first`.
/// Returns the per-call latencies in µs and the loop's wall time.
fn timed_runs(
    w: &Workbench<'_>,
    spec: &Spec,
    first: &RunReport,
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<f64>, f64) {
    let (acc_bits, fp) = (first.accuracy.to_bits(), report_fingerprint(first));
    let mut lat_us = Vec::new();
    let start = Instant::now();
    while lat_us.len() < MIN_REPS || start.elapsed() < budget {
        let t0 = Instant::now();
        let r = spec.run(w);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        match r {
            Ok(r) => {
                out.check(r.accuracy.to_bits() == acc_bits, || {
                    format!("rep accuracy {} differs from the first rep's", r.accuracy)
                });
                out.check(report_fingerprint(&r) == fp, || {
                    "rep report fingerprint differs from the first rep's".to_string()
                });
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("run_m2td failed: {e}");
            }
        }
    }
    (lat_us, start.elapsed().as_secs_f64())
}

pub fn run(run: &Run, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let spec = spec();
    let system = (spec.system)();
    let cfg = spec.config(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut setup_s = Vec::new();
        let mut bench = None;
        for _ in 0..SETUP_REPS {
            drop(bench.take());
            let t0 = Instant::now();
            bench = Some(set_up(system.as_ref(), &spec, cfg)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let (w, first) = bench.expect("set up at least once");
        let (lat_us, wall_s) = timed_runs(&w, &spec, &first, budget, out);
        out.peak_rss();

        // Untimed: the stage-by-stage rebuild must reproduce the timed
        // program's result; its model fingerprint identifies the output.
        let mut log = ThreadLog::new(0, Instant::now(), 64);
        let staged = staged_run(&w, system.as_ref(), &spec, &mut log)?;
        check_staged(out, &staged, &first);
        run.note(&format!(
            "model_fnv64 {:016x} accuracy {}",
            model_fingerprint(&staged.tucker),
            staged.accuracy
        ));

        let ok = (out.attempted - out.failed) as f64;
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("op_us_p50", median(&lat_us), "us");
        out.metric("op_us_tail", tail(&lat_us), "us");
        out.metric("ops_per_s", ok / wall_s, "1/s");
        out.metric("accuracy", first.accuracy, "ratio");
        return Ok(());
    }

    // Traced run: set-up once under spans, then an untraced half of
    // `run_m2td` calls and a traced half of staged runs.
    let origin = Instant::now();
    let mut log = ThreadLog::new(0, origin, 1 << 16);
    let (w, first) = log.span(0, "setup", Layer::Harness, |log, id| {
        let w = log.span(id, "sim.ground_truth", Layer::Sim, |_, _| {
            Workbench::new(system.as_ref(), cfg).map_err(|e| e.to_string())
        })?;
        let warm = spec.run(&w)?;
        Ok::<_, String>((w, warm))
    })?;
    let setup = Breakdown::of(&log.spans);
    let (untraced_us, _) = timed_runs(&w, &spec, &first, budget / 2, out);

    let mut fp = None;
    let mut reps: Vec<(Staged, Vec<SpanRec>)> = Vec::new();
    let mut eval_ns = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed() < budget / 2 {
        out.attempted += 1;
        let staged = staged_run(&w, system.as_ref(), &spec, &mut log)?;
        check_staged(out, &staged, &first);
        let this = model_fingerprint(&staged.tucker);
        out.check(*fp.get_or_insert(this) == this, || {
            "staged model fingerprint differs from the first rep's".to_string()
        });
        eval_ns.push(eval_cell_ns(&staged.tucker, run.seed, out));
        let spans = subtree(&log.spans, staged.root);
        reps.push((staged, spans));
    }
    run.note(&format!(
        "model_fnv64 {:016x} accuracy {}",
        fp.unwrap_or(0),
        first.accuracy
    ));

    let per_rep = |f: &dyn Fn(&Staged, &Breakdown) -> f64| -> f64 {
        let xs: Vec<f64> = reps
            .iter()
            .map(|(s, spans)| f(s, &Breakdown::of(spans)))
            .collect();
        median(&xs)
    };
    for (_, spans) in &reps {
        let cov = Breakdown::of(spans).coverage_pct();
        out.check(cov >= MIN_COVERAGE_PCT, || {
            format!("layer self times cover {cov:.2}% of a traced run, below {MIN_COVERAGE_PCT}%")
        });
    }
    let traced_us = per_rep(&|_, b| b.wall_ns as f64 / 1e3);
    let staged0 = &reps[0].0;
    let widths: Vec<usize> = staged0.tucker.factors.iter().map(|f| f.cols()).collect();
    let madds = TtmPlan::with_ordering(
        &staged0.tucker.output_dims(),
        &widths,
        CoreOrdering::BestShrinkFirst,
    )
    .map(|p| p.predicted_madds())
    .map_err(|e| e.to_string())?;

    let mut m = crate::LayerMetrics::default();
    m.set("sim.ground_truth_pct", setup.name_pct("sim.ground_truth"));
    for (span, metric) in [
        ("sampling.plan", "sampling.plan_pct"),
        ("sim.build", "sim.build_pct"),
        ("sampling.extract", "sampling.extract_pct"),
        ("core.phase1", "core.phase1_pct"),
        ("stitch.join", "stitch.join_pct"),
        ("core.phase3", "core.phase3_pct"),
        ("tensor.reconstruct", "tensor.reconstruct_pct"),
        ("core.accuracy", "core.accuracy_pct"),
    ] {
        m.set(metric, per_rep(&|_, b| b.name_pct(span)));
    }
    m.set("trace.coverage_pct", per_rep(&|_, b| b.coverage_pct()));
    m.set(
        "trace.unattributed_us",
        per_rep(&|_, b| b.self_ns.get("pipeline.run").copied().unwrap_or(0) as f64 / 1e3),
    );
    m.set(
        "tensor.reconstruct_ms",
        per_rep(&|_, b| b.self_ns.get("tensor.reconstruct").copied().unwrap_or(0) as f64 / 1e6),
    );
    m.set("tensor.eval_cell_ns", median(&eval_ns));
    m.set("sim.runs", staged0.distinct_sims as f64);
    m.set("sim.cells", staged0.cells as f64);
    m.set("stitch.join_nnz", staged0.stitch.join_nnz as f64);
    m.set("tensor.ttm_madds", madds as f64);
    m.set(
        "tensor.ttm_gflops",
        per_rep(&|s, _| 2.0 * madds as f64 / s.timings.phase3_core / 1e9),
    );
    m.set("obs.overhead_ratio", traced_us / median(&untraced_us));
    run.finish_trace(out, m, &log.spans, log.dropped);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_rebuild_reproduces_run_m2td_and_covers_its_wall_time() {
        let spec = Spec {
            resolution: 8,
            ..spec()
        };
        let system = (spec.system)();
        let (w, report) = set_up(system.as_ref(), &spec, spec.config(7)).unwrap();
        let mut log = ThreadLog::new(0, Instant::now(), 1024);
        let mut coverage = Vec::new();
        for _ in 0..3 {
            let staged = staged_run(&w, system.as_ref(), &spec, &mut log).unwrap();
            let mut out = Outcome::new();
            check_staged(&mut out, &staged, &report);
            assert!(out.correct(), "{:?}", out.check_failures);
            coverage.push(Breakdown::of(&subtree(&log.spans, staged.root)).coverage_pct());
        }
        let cov = median(&coverage);
        assert!(cov >= MIN_COVERAGE_PCT, "layers cover {cov}%");
    }
}
