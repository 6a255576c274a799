//! Cross-crate contracts of the randomized (sketched) decomposition
//! routes:
//!
//! * sketched HOSVD stays within the default error budget across seeds
//!   and fill densities, for both the Gaussian and MACH policies;
//! * a fixed sketch seed makes the randomized routes **bitwise**
//!   deterministic across physical thread counts — the sketch RNG is
//!   counter-based, so evaluation order never reaches the bits;
//! * an impossible budget trips the guard gate: the public entry point
//!   silently falls back to the exact route and bumps the
//!   `sketch.fallbacks` counter — without touching any `guard.*`
//!   counter, which chaos CI reserves for real numerical events;
//! * D-M2TD checkpoints written under a sketch config never resume a run
//!   with a different one: Phase 1's factors depend on the route.
//!
//! Sketch/guard/obs state is process-global, so every test that installs
//! any of them serializes on one lock and uninstalls before releasing.

use m2td::core::M2tdOptions;
use m2td::dist::{d_m2td, CheckpointStore, DistJob, MapReduce};
use m2td::sketch::{SketchConfig, SketchPolicy, DEFAULT_SKETCH_BUDGET};
use m2td::tensor::{hosvd_sparse, hosvd_sparse_exact, hosvd_sparse_sketched, Shape, SparseTensor};
use std::sync::Mutex;

static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

const DIMS: [usize; 3] = [10, 9, 8];
const RANKS: [usize; 3] = [3, 3, 3];

/// A sparse tensor over `DIMS` with a **separable** sparsity mask (keep
/// cells where `i1 % a == 0 && i2 % b == 0`) so the kept tensor stays
/// genuinely low-rank: the mask multiplies into the per-mode factors of
/// the rank-2 signal instead of shredding it. `(a, b) = (3, 3)` keeps
/// ~12.5% of the cells, `(1, 3)` keeps ~37.5%.
fn sparse_fill(a: usize, b: usize) -> SparseTensor {
    let shape = Shape::new(&DIMS);
    let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
        .map(|l| shape.multi_index(l))
        .filter(|idx| idx[1] % a == 0 && idx[2] % b == 0)
        .map(|idx| {
            let (i0, i1, i2) = (idx[0] as f64, idx[1] as f64, idx[2] as f64);
            let v = (i0 * 0.4).sin() * (i1 * 0.3 + 1.0) * (i2 * 0.2 + 1.0)
                + 0.6 * (i0 * 0.9).cos() * (i1 * 0.5).sin() * (i2 * 0.35).cos()
                + 0.05 * ((idx[0] * (idx[1] + 2) * (idx[2] + 1)) as f64 * 0.9).sin();
            (idx.clone(), v)
        })
        .collect();
    SparseTensor::from_entries(&DIMS, &entries).unwrap()
}

/// True reconstruction error, measured independently of the free-identity
/// `rel_err` the sketched route reports.
fn true_rel_err(t: &m2td::tensor::TuckerDecomp, x: &SparseTensor) -> f64 {
    let dense = x.to_dense().unwrap();
    t.relative_error(&dense).unwrap()
}

#[test]
fn sketched_hosvd_within_budget_across_seeds_and_fills() {
    // (a, b) mask periods: ~12.5% and ~37.5% fill.
    for (a, b) in [(3usize, 3usize), (1, 3)] {
        let fill = format!("(1/{a} x 1/{b})");
        let x = sparse_fill(a, b);
        for seed in [1u64, 2, 3] {
            for policy in [SketchPolicy::Gaussian, SketchPolicy::Mach { keep: 0.5 }] {
                let cfg = SketchConfig::with_size(6)
                    .with_seed(seed)
                    .with_policy(policy);
                let (t, rel_err) = hosvd_sparse_sketched(&x, &RANKS, &cfg).unwrap();
                assert!(
                    rel_err.is_finite() && rel_err <= DEFAULT_SKETCH_BUDGET,
                    "fill {fill} seed {seed}: reported rel_err {rel_err} above budget"
                );
                let measured = true_rel_err(&t, &x);
                assert!(
                    measured <= DEFAULT_SKETCH_BUDGET,
                    "fill {fill} seed {seed}: true rel_err {measured} above budget"
                );
            }
        }
    }
}

#[test]
fn fixed_seed_is_bitwise_identical_across_thread_counts() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    let x = sparse_fill(1, 3);
    for policy in [
        SketchPolicy::Gaussian,
        SketchPolicy::MachBiased { keep: 0.5 },
    ] {
        let cfg = SketchConfig::with_size(6).with_seed(42).with_policy(policy);
        let mut reference: Option<(Vec<f64>, Vec<Vec<f64>>)> = None;
        for threads in [1usize, 2, 8] {
            m2td::par::set_max_threads(threads);
            let (t, _) = hosvd_sparse_sketched(&x, &RANKS, &cfg).unwrap();
            let core: Vec<f64> = t.core.as_slice().to_vec();
            let factors: Vec<Vec<f64>> = t
                .factors
                .iter()
                .map(|f| (0..f.rows()).flat_map(|i| f.row(i).to_vec()).collect())
                .collect();
            match &reference {
                None => reference = Some((core, factors)),
                Some((c0, f0)) => {
                    // Bitwise: exact float equality, no tolerance.
                    assert_eq!(c0, &core, "core diverged at t={threads}");
                    assert_eq!(f0, &factors, "factors diverged at t={threads}");
                }
            }
        }
    }
    m2td::par::set_max_threads(0);
}

#[test]
fn impossible_budget_falls_back_to_exact_and_counts_it() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    m2td::obs::install();
    m2td::obs::reset();
    // A budget no rank-3 truncation of this tensor can meet, so the
    // sketched attempt is always rejected at the gate.
    m2td::guard::install(m2td::guard::GuardConfig::DEFAULT.with_error_budget(1e-12));
    m2td::sketch::install(SketchConfig::with_size(6).with_seed(7));

    let x = sparse_fill(1, 3);
    let via_dispatch = hosvd_sparse(&x, &RANKS).unwrap();

    m2td::sketch::uninstall();
    m2td::guard::uninstall();
    let exact = hosvd_sparse_exact(&x, &RANKS).unwrap();
    let snap = m2td::obs::snapshot();
    m2td::obs::reset();

    // The fallback is the exact route, bit for bit.
    assert_eq!(via_dispatch.core.as_slice(), exact.core.as_slice());
    assert!(
        snap.counter("sketch.fallbacks").unwrap_or(0) >= 1,
        "budget violation must bump sketch.fallbacks: {:?}",
        snap.counters
    );
    // Sketch rejections are not numerical events; guard.* counters are
    // reserved for corruption/instability detections (chaos CI asserts
    // clean runs keep them at zero).
    assert!(
        !snap.counters.iter().any(|(k, _)| k.starts_with("guard.")),
        "sketch fallback must not bump guard counters: {:?}",
        snap.counters
    );
}

#[test]
fn sketched_checkpoints_do_not_resume_an_exact_run() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap();
    // A 12x10x10 pair sharing its two leading (pivot) modes.
    let dims = [12, 10, 10];
    let shape = Shape::new(&dims);
    let pair = |phase: f64| {
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| {
                let idx = shape.multi_index(l);
                let (i0, i1, i2) = (idx[0] as f64, idx[1] as f64, idx[2] as f64);
                let v = (i0 * 0.4 + phase).sin() * (i1 * 0.3 + 1.0) * (i2 * 0.2 + 1.0)
                    + 0.3 * (i0 * 0.9).cos() * (i2 * 0.5 + phase).sin();
                (idx, v)
            })
            .collect();
        SparseTensor::from_entries(&dims, &entries).unwrap()
    };
    let (x1, x2) = (pair(0.0), pair(0.7));
    let ranks = [3, 3, 3, 3];
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(2);
    let exact = d_m2td(&x1, &x2, 2, &ranks, opts, &engine, &DistJob::default()).unwrap();
    let bits = |d: &m2td::dist::DistDecomposition| -> Vec<Vec<f64>> {
        d.tucker
            .factors
            .iter()
            .map(|f| f.as_slice().to_vec())
            .collect()
    };

    for (tag, cfg) in [
        (
            "mach:0.3",
            SketchConfig::with_size(4).with_policy(SketchPolicy::Mach { keep: 0.3 }),
        ),
        ("gaussian:4", SketchConfig::with_size(4)),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "m2td_sketch_ckpt_{}_{}",
            tag.replace(':', "_"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let job = DistJob {
            checkpoint: Some(&store),
            ..Default::default()
        };

        m2td::sketch::install(cfg);
        let sketched = d_m2td(&x1, &x2, 2, &ranks, opts, &engine, &job);
        m2td::sketch::uninstall();
        let sketched = sketched.unwrap();
        assert_ne!(
            bits(&sketched),
            bits(&exact),
            "{tag}: the sketched route left the factors exact — test is vacuous"
        );

        let rerun = d_m2td(&x1, &x2, 2, &ranks, opts, &engine, &job).unwrap();
        assert!(
            !rerun.phase1.resumed,
            "{tag}: an exact run resumed sketched phase-1 factors"
        );
        assert_eq!(bits(&rerun), bits(&exact), "{tag}: factors differ");
        assert_eq!(
            rerun.tucker.core.as_slice(),
            exact.tucker.core.as_slice(),
            "{tag}: core differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
