//! One `run_*` function per table of the paper's evaluation section, plus
//! the ablation studies DESIGN.md calls out.

use crate::registry::SystemKind;
use crate::report::TableResult;
use m2td_core::{CoreProjection, M2tdOptions, PivotCombine, RunReport, Workbench, WorkbenchConfig};
use m2td_dist::{d_m2td, ClusterModel, DistJob, MapReduce};
use m2td_sampling::{
    GridSampling, LatinHypercubeSampling, RandomSampling, SamplingScheme, SliceSampling,
    StratifiedSampling,
};
use m2td_stitch::StitchKind;
use m2td_tensor::{hooi_sparse, hosvd_sparse, sparse_core, CoreOrdering, HooiOptions};
use std::error::Error;
use std::time::Instant;

/// Result alias for harness code.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// The time mode is always the last of the five tensor modes.
pub const TIME_MODE: usize = 4;

/// Standard workbench configuration for a system at a given resolution and
/// rank. `time_steps == resolution` mirrors the paper's cubic spaces.
pub fn workbench_config(kind: SystemKind, resolution: usize, rank: usize) -> WorkbenchConfig {
    WorkbenchConfig {
        resolution,
        time_steps: resolution,
        t_end: kind.t_end(),
        substeps: 16,
        rank,
        seed: 42,
        noise_sigma: 0.0,
    }
}

fn m2td_opts(combine: PivotCombine) -> M2tdOptions {
    M2tdOptions {
        combine,
        ..M2tdOptions::default()
    }
}

/// Runs all six strategies (3 M2TD variants + 3 conventional schemes) at
/// budget parity and returns their reports in table order.
fn run_all_strategies(w: &Workbench<'_>) -> BenchResult<Vec<RunReport>> {
    let mut out = Vec::with_capacity(6);
    for combine in PivotCombine::all() {
        out.push(w.run_m2td(TIME_MODE, m2td_opts(combine), 1.0, 1.0)?);
    }
    let budget = w.m2td_budget(TIME_MODE, 1.0, 1.0)?;
    for scheme in [
        &RandomSampling as &dyn SamplingScheme,
        &GridSampling,
        &SliceSampling,
    ] {
        out.push(w.run_conventional(scheme, budget)?);
    }
    Ok(out)
}

/// **Table II** — accuracy and decomposition time for the double pendulum
/// across resolutions and ranks, all six strategies.
pub fn run_table2(
    resolutions: &[usize],
    ranks: &[usize],
) -> BenchResult<(TableResult, TableResult)> {
    let mut acc = TableResult::new("table2a", "Accuracy for double pendulum (paper Table II-a)");
    let mut time = TableResult::new(
        "table2b",
        "Decomposition time (s) for double pendulum (paper Table II-b)",
    );
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    for &res in resolutions {
        let mut w = Workbench::new(system.as_ref(), workbench_config(kind, res, ranks[0]))?;
        for &rank in ranks {
            w = w.with_rank(rank);
            let reports = run_all_strategies(&w)?;
            let cfg = [("res", res.to_string()), ("rank", rank.to_string())];
            acc.push_row(
                cfg.iter().map(|(k, v)| (*k, v.clone())).collect(),
                reports
                    .iter()
                    .map(|r| (r.method.as_str(), r.accuracy))
                    .collect(),
            );
            time.push_row(
                cfg.iter().map(|(k, v)| (*k, v.clone())).collect(),
                reports
                    .iter()
                    .map(|r| (r.method.as_str(), r.decompose_secs))
                    .collect(),
            );
        }
    }
    Ok((acc, time))
}

/// **Table III** — D-M2TD phase time distribution for varying server
/// counts (double pendulum). Serial phase work is measured in-process and
/// projected onto the modeled cluster (DESIGN.md §4.1).
pub fn run_table3(resolution: usize, rank: usize, servers: &[usize]) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let (x1, x2, partition) = w.subsystems(TIME_MODE, 1.0, 1.0, 1.0)?;
    let join_ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| rank.min(w.full_dims()[m]))
        .collect();

    let engine = MapReduce::new(2);
    let dist = d_m2td(
        &x1,
        &x2,
        partition.k(),
        &join_ranks,
        M2tdOptions::default(),
        &engine,
        &DistJob::default(),
    )?;

    let mut t = TableResult::new(
        "table3",
        "D-M2TD phase time split vs. number of servers (paper Table III)",
    );
    for &srv in servers {
        let model = ClusterModel::new(srv);
        let c1 = dist.phase1.on_cluster(&model);
        let c2 = dist.phase2.on_cluster(&model);
        let c3 = dist.phase3.on_cluster(&model);
        t.push_row(
            vec![("servers", srv.to_string())],
            vec![
                ("phase1 (s)", c1.total()),
                ("phase2 (s)", c2.total()),
                ("phase3 (s)", c3.total()),
                ("total (s)", c1.total() + c2.total() + c3.total()),
            ],
        );
    }
    Ok(t)
}

/// **Table IV** — accuracy and time across the three paper systems.
pub fn run_table4(resolution: usize, rank: usize) -> BenchResult<(TableResult, TableResult)> {
    let mut acc = TableResult::new(
        "table4a",
        "Accuracy across dynamic systems (paper Table IV)",
    );
    let mut time = TableResult::new(
        "table4b",
        "Decomposition time (s) across dynamic systems (paper Table IV)",
    );
    for kind in SystemKind::paper_systems() {
        let system = kind.instantiate();
        let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
        let reports = run_all_strategies(&w)?;
        acc.push_row(
            vec![("system", system.name().to_string())],
            reports
                .iter()
                .map(|r| (r.method.as_str(), r.accuracy))
                .collect(),
        );
        time.push_row(
            vec![("system", system.name().to_string())],
            reports
                .iter()
                .map(|r| (r.method.as_str(), r.decompose_secs))
                .collect(),
        );
    }
    Ok((acc, time))
}

/// **Table V** — reduced simulation budgets; join vs. zero-join.
pub fn run_table5(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let mut t = TableResult::new(
        "table5",
        "Reduced budgets: zero-join vs join accuracy (paper Table V)",
    );
    for &cell_frac in &[1.0, 0.5, 0.1] {
        let join = w.run_m2td_cells(TIME_MODE, M2tdOptions::default(), 1.0, 1.0, cell_frac)?;
        let zero = w.run_m2td_cells(
            TIME_MODE,
            M2tdOptions {
                stitch: StitchKind::ZeroJoin,
                ..M2tdOptions::default()
            },
            1.0,
            1.0,
            cell_frac,
        )?;
        let budget = join.cells.max(1);
        let random = w.run_conventional(&RandomSampling, budget)?;
        let grid = w.run_conventional(&GridSampling, budget)?;
        t.push_row(
            vec![("budget frac", format!("{cell_frac}"))],
            vec![
                ("SELECT join", join.accuracy),
                ("SELECT zero-join", zero.accuracy),
                ("Random", random.accuracy),
                ("Grid", grid.accuracy),
            ],
        );
    }
    Ok(t)
}

/// **Table VI** — varying pivot density `P`.
pub fn run_table6(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    run_density_sweep(
        "table6",
        "Varying pivot density P (paper Table VI)",
        resolution,
        rank,
        true,
    )
}

/// **Table VII** — varying sub-ensemble density `E`.
pub fn run_table7(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    run_density_sweep(
        "table7",
        "Varying sub-ensemble density E (paper Table VII)",
        resolution,
        rank,
        false,
    )
}

fn run_density_sweep(
    id: &str,
    caption: &str,
    resolution: usize,
    rank: usize,
    vary_p: bool,
) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let mut t = TableResult::new(id, caption);
    for &frac in &[1.0, 0.5, 0.25] {
        let (p, e) = if vary_p { (frac, 1.0) } else { (1.0, frac) };
        let mut values = Vec::new();
        let mut cells = 0usize;
        for combine in PivotCombine::all() {
            let r = w.run_m2td(TIME_MODE, m2td_opts(combine), p, e)?;
            cells = r.cells;
            values.push((r.method.clone(), r.accuracy));
        }
        let random = w.run_conventional(&RandomSampling, cells)?;
        values.push(("Random".to_string(), random.accuracy));
        t.push_row(
            vec![
                (
                    if vary_p { "P" } else { "E" },
                    format!("{:.0}%", frac * 100.0),
                ),
                ("cells", cells.to_string()),
            ],
            values.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
        );
    }
    Ok(t)
}

/// **Table VIII** — varying the pivot parameter.
pub fn run_table8(resolution: usize, rank: usize) -> BenchResult<(TableResult, TableResult)> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let mode_names = w.mode_names();
    let mut acc = TableResult::new("table8a", "Accuracy per pivot parameter (paper Table VIII)");
    let mut time = TableResult::new(
        "table8b",
        "Decomposition time (s) per pivot parameter (paper Table VIII)",
    );
    // Paper order: t first, then the physical parameters.
    let pivots = [TIME_MODE, 0, 1, 2, 3];
    for &pivot in &pivots {
        let mut a_vals = Vec::new();
        let mut t_vals = Vec::new();
        for combine in PivotCombine::all() {
            let r = w.run_m2td(pivot, m2td_opts(combine), 1.0, 1.0)?;
            a_vals.push((r.method.clone(), r.accuracy));
            t_vals.push((r.method.clone(), r.decompose_secs));
        }
        let cfg = vec![("pivot", mode_names[pivot].clone())];
        acc.push_row(
            cfg.clone(),
            a_vals.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
        );
        time.push_row(cfg, t_vals.iter().map(|(k, v)| (k.as_str(), *v)).collect());
    }
    Ok((acc, time))
}

/// **Ablation** — HOSVD vs HOOI on the stitched join tensor.
pub fn run_ablation_hooi(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let (x1, x2, partition) = w.subsystems(TIME_MODE, 1.0, 1.0, 1.0)?;
    let (join, _) = m2td_stitch::stitch(&x1, &x2, partition.k(), StitchKind::Join)?;
    let ranks: Vec<usize> = join.dims().iter().map(|&d| rank.min(d)).collect();

    let t0 = Instant::now();
    let hosvd = hosvd_sparse(&join, &ranks)?;
    let hosvd_secs = t0.elapsed().as_secs_f64();
    let hosvd_acc = w.accuracy_join_order(&hosvd, &partition)?;

    let t1 = Instant::now();
    let (hooi, sweeps) = hooi_sparse(&join, &ranks, HooiOptions::default())?;
    let hooi_secs = t1.elapsed().as_secs_f64();
    let hooi_acc = w.accuracy_join_order(&hooi, &partition)?;

    let mut t = TableResult::new(
        "ablation_hooi",
        "HOSVD vs HOOI on the join tensor (design-choice ablation)",
    );
    t.push_row(
        vec![("method", "HOSVD".into())],
        vec![
            ("accuracy", hosvd_acc),
            ("time (s)", hosvd_secs),
            ("sweeps", 1.0),
        ],
    );
    t.push_row(
        vec![("method", "HOOI".into())],
        vec![
            ("accuracy", hooi_acc),
            ("time (s)", hooi_secs),
            ("sweeps", sweeps as f64),
        ],
    );
    Ok(t)
}

/// **Ablation** — transpose vs least-squares core projection for each
/// pivot-combination strategy.
pub fn run_ablation_projection(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let mut t = TableResult::new(
        "ablation_projection",
        "Core recovery: paper's transpose vs least-squares projection",
    );
    for combine in PivotCombine::all() {
        let mut vals = Vec::new();
        for (label, projection) in [
            ("transpose", CoreProjection::Transpose),
            ("least-squares", CoreProjection::LeastSquares),
        ] {
            let opts = M2tdOptions {
                combine,
                projection,
                ..M2tdOptions::default()
            };
            let r = w.run_m2td(TIME_MODE, opts, 1.0, 1.0)?;
            vals.push((label, r.accuracy));
        }
        t.push_row(vec![("combine", combine.name().into())], vals);
    }
    Ok(t)
}

/// **Ablation** — TTM chain ordering in core recovery.
pub fn run_ablation_ttm_order(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let (x1, x2, partition) = w.subsystems(TIME_MODE, 1.0, 1.0, 1.0)?;
    let (join, _) = m2td_stitch::stitch(&x1, &x2, partition.k(), StitchKind::Join)?;
    let ranks: Vec<usize> = join.dims().iter().map(|&d| rank.min(d)).collect();
    let tucker = hosvd_sparse(&join, &ranks)?;

    let mut t = TableResult::new(
        "ablation_ttm_order",
        "Core-recovery TTM mode ordering (natural vs best-shrink-first)",
    );
    for (label, ordering) in [
        ("natural", CoreOrdering::Natural),
        ("best-shrink-first", CoreOrdering::BestShrinkFirst),
    ] {
        let t0 = Instant::now();
        let core = sparse_core(&join, &tucker.factors, ordering)?;
        let secs = t0.elapsed().as_secs_f64();
        t.push_row(
            vec![("ordering", label.into())],
            vec![("time (s)", secs), ("core norm", core.frobenius_norm())],
        );
    }
    Ok(t)
}

/// **Ablation** — number of pivot modes `k` (k = 1 vs k = 3; with five
/// tensor modes `N − k` must be even, so k = 2 is structurally impossible).
pub fn run_ablation_pivot_k(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    use m2td_core::m2td_decompose;
    use m2td_sampling::{PfPartition, SubSystem};
    use m2td_sim::EnsembleBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let cfg = workbench_config(kind, resolution, rank);
    let w = Workbench::new(system.as_ref(), cfg)?;
    let mut t = TableResult::new(
        "ablation_pivot_k",
        "Multi-pivot partitions: k = 1 vs k = 3 (extension beyond the paper)",
    );

    // k = 1 via the standard pipeline.
    let r1 = w.run_m2td(TIME_MODE, M2tdOptions::default(), 1.0, 1.0)?;
    t.push_row(
        vec![("k", "1".into())],
        vec![("accuracy", r1.accuracy), ("cells", r1.cells as f64)],
    );

    // k = 3: pivots {t, phi1, m1}, free1 {phi2}, free2 {m2}.
    let partition = PfPartition::new(vec![4, 0, 1], vec![2], vec![3], 5)?;
    let space = system.default_space(cfg.resolution);
    let grid = m2td_sim::TimeGrid::new(cfg.t_end, cfg.time_steps, cfg.substeps);
    let builder = EnsembleBuilder::new(system.as_ref(), &space, &grid);
    let full_dims = builder.tensor_dims();
    let mut defaults = space.default_indices();
    defaults.push(cfg.time_steps / 2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let plan1 =
        partition.plan_subsystem(&full_dims, &defaults, SubSystem::First, 1.0, 1.0, &mut rng)?;
    let plan2 =
        partition.plan_subsystem(&full_dims, &defaults, SubSystem::Second, 1.0, 1.0, &mut rng)?;
    let cells = plan1.len() + plan2.len();
    let (f1, _) = builder.build_sparse(&plan1)?;
    let (f2, _) = builder.build_sparse(&plan2)?;
    let x1 = partition.extract_sub_tensor(&f1, &defaults, SubSystem::First)?;
    let x2 = partition.extract_sub_tensor(&f2, &defaults, SubSystem::Second)?;
    let join_ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| rank.min(full_dims[m]))
        .collect();
    let d = m2td_decompose(&x1, &x2, partition.k(), &join_ranks, M2tdOptions::default())?;
    let acc = w.accuracy_join_order(&d.tucker, &partition)?;
    t.push_row(
        vec![("k", "3".into())],
        vec![("accuracy", acc), ("cells", cells as f64)],
    );
    Ok(t)
}

/// **Ablation** — two-way vs finest multi-way partitioning (extension:
/// the paper only evaluates two sub-systems).
pub fn run_ablation_partitions(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let mut t = TableResult::new(
        "ablation_partitions",
        "Partition granularity: 2 groups of 2 modes vs 4 groups of 1 (pivot = t)",
    );
    for groups in [2usize, 4] {
        let r = w.run_m2td_multi(TIME_MODE, groups, M2tdOptions::default(), 1.0, 1.0)?;
        t.push_row(
            vec![("groups", groups.to_string())],
            vec![
                ("accuracy", r.accuracy),
                ("cells", r.cells as f64),
                ("join density", r.density),
                ("time (s)", r.decompose_secs),
            ],
        );
    }
    Ok(t)
}

/// **Ablation** — extra space-filling baselines (Latin hypercube,
/// stratified) vs the paper's schemes and M2TD, at budget parity.
pub fn run_extra_baselines(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let system = kind.instantiate();
    let w = Workbench::new(system.as_ref(), workbench_config(kind, resolution, rank))?;
    let budget = w.m2td_budget(TIME_MODE, 1.0, 1.0)?;
    let mut t = TableResult::new(
        "extra_baselines",
        "Space-filling designs do not close the gap to partition-stitch sampling",
    );
    let m2td = w.run_m2td(TIME_MODE, M2tdOptions::default(), 1.0, 1.0)?;
    let mut values = vec![("M2TD-SELECT".to_string(), m2td.accuracy)];
    for scheme in [
        &RandomSampling as &dyn SamplingScheme,
        &GridSampling,
        &SliceSampling,
        &LatinHypercubeSampling,
        &StratifiedSampling,
    ] {
        let r = w.run_conventional(scheme, budget)?;
        values.push((r.method.clone(), r.accuracy));
    }
    t.push_row(
        vec![("budget", budget.to_string())],
        values.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
    );
    Ok(t)
}

/// **Ablation** — measurement-noise robustness: accuracy of M2TD-SELECT
/// and the random baseline under increasing observation noise.
pub fn run_ablation_noise(resolution: usize, rank: usize) -> BenchResult<TableResult> {
    let kind = SystemKind::DoublePendulum;
    let mut t = TableResult::new(
        "ablation_noise",
        "Accuracy under additive Gaussian measurement noise on sampled cells",
    );
    for &sigma in &[0.0, 0.05, 0.2, 0.5] {
        let system = kind.instantiate();
        let mut cfg = workbench_config(kind, resolution, rank);
        cfg.noise_sigma = sigma;
        let w = Workbench::new(system.as_ref(), cfg)?;
        let m2td = w.run_m2td(TIME_MODE, M2tdOptions::default(), 1.0, 1.0)?;
        let budget = w.m2td_budget(TIME_MODE, 1.0, 1.0)?;
        let random = w.run_conventional(&RandomSampling, budget)?;
        t.push_row(
            vec![("sigma", format!("{sigma}"))],
            vec![("M2TD-SELECT", m2td.accuracy), ("Random", random.accuracy)],
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny-scale smoke tests: every table runner completes and produces
    // rows with the expected structure. The full-scale runs live in the
    // `tables` binary.

    #[test]
    fn table2_smoke() {
        let (acc, time) = run_table2(&[5], &[2]).unwrap();
        assert_eq!(acc.rows.len(), 1);
        assert_eq!(time.rows.len(), 1);
        assert_eq!(acc.rows[0].values.len(), 6);
        // M2TD columns must beat the conventional ones.
        let m2td_min = acc.rows[0].values[..3]
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        let conv_max = acc.rows[0].values[3..]
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            m2td_min > conv_max,
            "M2TD ({m2td_min}) must beat conventional ({conv_max})"
        );
    }

    #[test]
    fn table3_smoke() {
        let t = run_table3(5, 2, &[1, 4, 18]).unwrap();
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row.values.len(), 4);
            for (_, v) in &row.values {
                assert!(*v > 0.0);
            }
        }
        // The parallelizable share must not grow with servers (the strict
        // shape assertions run at full scale in the `tables` binary, where
        // compute dominates the fixed overheads).
        let total = |i: usize| t.rows[i].values.last().unwrap().1;
        assert!(total(0) >= total(2) - 1e-9);
    }

    #[test]
    fn table5_smoke() {
        let t = run_table5(5, 2).unwrap();
        assert_eq!(t.rows.len(), 3);
        // At reduced budget, zero-join >= join.
        let last = &t.rows[2].values;
        let join = last[0].1;
        let zero = last[1].1;
        assert!(zero >= join - 1e-9, "zero-join {zero} vs join {join}");
    }

    #[test]
    fn table6_7_smoke() {
        let t6 = run_table6(5, 2).unwrap();
        let t7 = run_table7(5, 2).unwrap();
        assert_eq!(t6.rows.len(), 3);
        assert_eq!(t7.rows.len(), 3);
        // Full density is the best row in both sweeps.
        for t in [&t6, &t7] {
            let select = |i: usize| t.rows[i].values[2].1;
            assert!(select(0) >= select(2) - 1e-9);
        }
    }

    #[test]
    fn table8_smoke() {
        let (acc, _) = run_table8(5, 2).unwrap();
        assert_eq!(acc.rows.len(), 5);
    }

    #[test]
    fn new_ablations_smoke() {
        let p = run_ablation_partitions(5, 2).unwrap();
        assert_eq!(p.rows.len(), 2);
        // Finer partition uses fewer cells.
        assert!(p.rows[1].values[1].1 < p.rows[0].values[1].1);
        let b = run_extra_baselines(5, 2).unwrap();
        assert_eq!(b.rows[0].values.len(), 6);
        // M2TD still first by a wide margin.
        let m2td = b.rows[0].values[0].1;
        for (name, v) in &b.rows[0].values[1..] {
            assert!(m2td > *v, "{name} ({v}) should lose to M2TD ({m2td})");
        }
        let n = run_ablation_noise(5, 2).unwrap();
        assert_eq!(n.rows.len(), 4);
        // At smoke scale the noise effect can fluctuate; just require
        // finite accuracies in a sane band (the monotone degradation is
        // asserted at full scale in EXPERIMENTS.md).
        for row in &n.rows {
            for (_, v) in &row.values {
                assert!(v.is_finite() && *v < 1.0);
            }
        }
    }

    #[test]
    fn ablations_smoke() {
        let h = run_ablation_hooi(5, 2).unwrap();
        assert_eq!(h.rows.len(), 2);
        let p = run_ablation_projection(5, 2).unwrap();
        assert_eq!(p.rows.len(), 3);
        let o = run_ablation_ttm_order(5, 2).unwrap();
        assert_eq!(o.rows.len(), 2);
        // Orderings must agree on the core.
        assert!((o.rows[0].values[1].1 - o.rows[1].values[1].1).abs() < 1e-9);
        let k = run_ablation_pivot_k(5, 2).unwrap();
        assert_eq!(k.rows.len(), 2);
    }
}
