//! Property-style tests of the tensor kernels on random tensors.
//!
//! The offline build has no `proptest`, so each property loops over a
//! fixed set of seeds and draws its inputs from the in-tree seeded RNG —
//! deterministic, shrink-free, but the same invariants.

use m2td_linalg::Matrix;
use m2td_tensor::{
    hosvd_dense, hosvd_sparse, ttm_dense, ttm_dense_transposed, ttm_sparse, ttm_sparse_transposed,
    ttv_dense, CoreOrdering, DenseTensor, IncrementalEnsemble, Shape, SparseTensor, TtmPlan,
    TuckerDecomp, Workspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const CASES: u64 = 48;

/// `m2td_par::set_max_threads` is process-global; tests that sweep thread
/// counts serialize on this lock so they don't race each other.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Random tensor dims: 2–4 modes of extent 2–5.
fn rand_dims(rng: &mut StdRng) -> Vec<usize> {
    let order = rng.gen_range(2usize..5);
    (0..order).map(|_| rng.gen_range(2usize..6)).collect()
}

/// A dense tensor over random dims with entries in ±2.
fn rand_dense(rng: &mut StdRng) -> DenseTensor {
    let dims = rand_dims(rng);
    DenseTensor::from_fn(&dims, |_| rng.gen_range(-2.0..2.0))
}

#[test]
fn unfold_fold_round_trips_every_mode() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        for mode in 0..t.order() {
            let m = t.unfold(mode).unwrap();
            let back = DenseTensor::fold(&m, mode, t.dims()).unwrap();
            assert_eq!(&back, &t, "mode {mode} round trip failed");
        }
    }
}

#[test]
fn unfold_preserves_frobenius_norm() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        for mode in 0..t.order() {
            let m = t.unfold(mode).unwrap();
            assert!((m.frobenius_norm() - t.frobenius_norm()).abs() < 1e-10);
        }
    }
}

#[test]
fn ttm_with_identity_is_identity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        for mode in 0..t.order() {
            let id = Matrix::identity(t.dims()[mode]);
            let y = ttm_dense(&t, mode, &id).unwrap();
            assert_eq!(&y, &t);
        }
    }
}

#[test]
fn ttm_is_linear_in_the_matrix() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let alpha = rng.gen_range(-2.0..2.0);
        let mode = 0;
        let d = t.dims()[mode];
        let u = Matrix::from_fn(2, d, |i, j| ((i * d + j) as f64 * 0.37).sin());
        let scaled = ttm_dense(&t, mode, &u.scaled(alpha)).unwrap();
        let then_scaled = ttm_dense(&t, mode, &u).unwrap().scaled(alpha);
        let diff = scaled.sub(&then_scaled).unwrap().frobenius_norm();
        assert!(diff < 1e-10 * (1.0 + then_scaled.frobenius_norm()));
    }
}

#[test]
fn ttm_transpose_consistency() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        for mode in 0..t.order() {
            let d = t.dims()[mode];
            let u = Matrix::from_fn(d, 2.min(d), |i, j| ((i + 3 * j) as f64 * 0.29).cos());
            let a = ttm_dense_transposed(&t, mode, &u).unwrap();
            let b = ttm_dense(&t, mode, &u.transpose()).unwrap();
            assert!(a.sub(&b).unwrap().frobenius_norm() < 1e-10);
        }
    }
}

#[test]
fn ttv_equals_ttm_with_row_vector() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let mode = t.order() - 1;
        let d = t.dims()[mode];
        let v: Vec<f64> = (0..d).map(|i| (i as f64 * 0.61).sin() + 0.5).collect();
        let via_ttv = ttv_dense(&t, mode, &v).unwrap();
        let row = Matrix::from_vec(1, d, v.clone()).unwrap();
        let via_ttm = ttm_dense(&t, mode, &row).unwrap();
        // via_ttm keeps the contracted mode with extent 1.
        assert_eq!(via_ttv.num_elements(), via_ttm.num_elements());
        for (a, b) in via_ttv.as_slice().iter().zip(via_ttm.as_slice().iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}

#[test]
fn hosvd_full_rank_is_exact_and_energy_preserving() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let ranks: Vec<usize> = t.dims().to_vec();
        let tucker = hosvd_dense(&t, &ranks).unwrap();
        assert!(tucker.relative_error(&t).unwrap() < 1e-8);
        // Orthonormal factors preserve core energy.
        let core_norm = tucker.core.frobenius_norm();
        assert!((core_norm - t.frobenius_norm()).abs() < 1e-8 * (1.0 + core_norm));
    }
}

#[test]
fn hosvd_truncation_error_monotone_in_rank() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let r_small: Vec<usize> = t.dims().iter().map(|_| 1usize).collect();
        let r_big: Vec<usize> = t.dims().iter().map(|&d| 2usize.min(d)).collect();
        let e_small = hosvd_dense(&t, &r_small)
            .unwrap()
            .relative_error(&t)
            .unwrap();
        let e_big = hosvd_dense(&t, &r_big).unwrap().relative_error(&t).unwrap();
        assert!(
            e_big <= e_small + 1e-9,
            "rank 2 error {e_big} > rank 1 error {e_small}"
        );
    }
}

#[test]
fn sparse_and_dense_hosvd_agree() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let sparse = SparseTensor::from_dense(&t);
        if sparse.nnz() == 0 {
            continue;
        }
        let ranks: Vec<usize> = t.dims().iter().map(|&d| 2usize.min(d)).collect();
        let ed = hosvd_dense(&t, &ranks).unwrap().relative_error(&t).unwrap();
        let es = hosvd_sparse(&sparse, &ranks)
            .unwrap()
            .relative_error(&t)
            .unwrap();
        assert!((ed - es).abs() < 1e-7, "dense {ed} vs sparse {es}");
    }
}

#[test]
fn incremental_grams_equal_batch_for_random_fills() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let keep = rng.gen_range(1usize..5);
        let mut inc = IncrementalEnsemble::new(t.dims());
        let shape = t.shape().clone();
        let mut count = 0;
        for (lin, &v) in t.as_slice().iter().enumerate() {
            if lin % keep == 0 && v != 0.0 {
                inc.add(&shape.multi_index(lin), v).unwrap();
                count += 1;
            }
        }
        if count == 0 {
            continue;
        }
        let sparse = inc.to_sparse();
        for mode in 0..t.order() {
            let diff = inc
                .gram(mode)
                .unwrap()
                .sub(&sparse.unfold_gram(mode).unwrap())
                .unwrap()
                .frobenius_norm();
            assert!(diff < 1e-10, "mode {mode} incremental gram drift {diff}");
        }
    }
}

/// A random Tucker model over `ranks` (factors of 1–3 extra rows per
/// mode) with one core entry set to exactly zero.
fn rand_tucker(rng: &mut StdRng, ranks: &[usize]) -> TuckerDecomp {
    let mut core = DenseTensor::from_fn(ranks, |_| rng.gen_range(-2.0..2.0));
    let zero = rng.gen_range(0..core.num_elements());
    core.as_mut_slice()[zero] = 0.0;
    let factors = ranks
        .iter()
        .map(|&r| {
            let rows = rng.gen_range(r..r + 3);
            Matrix::from_fn(rows, r, |_, _| rng.gen_range(-1.0..1.0))
        })
        .collect();
    TuckerDecomp::new(core, factors).unwrap()
}

#[test]
fn tucker_cell_agrees_with_reconstruction() {
    let mut cases = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rand_dense(&mut rng);
        let ranks: Vec<usize> = t.dims().iter().map(|&d| 2usize.min(d)).collect();
        cases.push(hosvd_dense(&t, &ranks).unwrap());
        // Orders 1–5 at ranks 1–4, always with a rank-1 mode.
        let order = rng.gen_range(1usize..6);
        let mut ranks: Vec<usize> = (0..order).map(|_| rng.gen_range(1usize..5)).collect();
        ranks[rng.gen_range(0..order)] = 1;
        cases.push(rand_tucker(&mut rng, &ranks));
    }
    // Five modes at rank 4: the 4⁴-entry block left after the leading
    // mode overflows the contraction's inline scratch.
    cases.push(rand_tucker(&mut StdRng::seed_from_u64(CASES), &[4; 5]));
    for tucker in &cases {
        let full = tucker.reconstruct().unwrap();
        // Spot-check a quarter of the cells.
        let shape = full.shape().clone();
        for lin in (0..full.num_elements()).step_by(4) {
            let idx = shape.multi_index(lin);
            let direct = tucker.cell(&idx).unwrap();
            assert!(
                (direct - full.get(&idx)).abs() < 1e-9,
                "ranks {:?} cell {idx:?}",
                tucker.ranks()
            );
        }
    }
}

/// The partitioned sparse TTM scatter must match the serial path bitwise
/// on random tensors at every thread count; hosvd_sparse (whose per-mode
/// factors are computed concurrently) must stay within 1e-10 Frobenius.
#[test]
fn parallel_sparse_ttm_matches_serial_on_random_tensors() {
    let _guard = THREADS_LOCK.lock().unwrap();
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        // 3 modes, extents up to 12, randomly thinned — keeps some cases
        // under and some over the internal parallel-scatter threshold.
        let dims: Vec<usize> = (0..3).map(|_| rng.gen_range(4usize..13)).collect();
        let keep = rng.gen_range(1usize..4);
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % keep == 0)
            .map(|l| (shape.multi_index(l), rng.gen_range(-2.0..2.0)))
            .collect();
        let sparse = SparseTensor::from_entries(&dims, &entries).unwrap();
        let mode = rng.gen_range(0usize..3);
        let d = dims[mode];
        let u = Matrix::from_fn(d, 3.min(d), |i, j| ((i * 5 + j) as f64 * 0.23).sin());

        m2td_par::set_max_threads(1);
        let transposed = ttm_sparse_transposed(&sparse, mode, &u).unwrap();
        let plain = ttm_sparse(&sparse, mode, &u.transpose()).unwrap();
        let ranks: Vec<usize> = dims.iter().map(|&d| 2.min(d)).collect();
        let tucker_serial = hosvd_sparse(&sparse, &ranks).unwrap();

        for threads in [2usize, 8] {
            m2td_par::set_max_threads(threads);
            assert_eq!(
                ttm_sparse_transposed(&sparse, mode, &u).unwrap(),
                transposed,
                "ttm_sparse_transposed t={threads} seed={seed}"
            );
            assert_eq!(
                ttm_sparse(&sparse, mode, &u.transpose()).unwrap(),
                plain,
                "ttm_sparse t={threads} seed={seed}"
            );
            let tucker = hosvd_sparse(&sparse, &ranks).unwrap();
            let diff = tucker
                .core
                .sub(&tucker_serial.core)
                .unwrap()
                .frobenius_norm();
            assert!(
                diff < 1e-10,
                "hosvd core drift {diff} t={threads} seed={seed}"
            );
        }
        m2td_par::set_max_threads(0);
    }
}

/// The planned (compression-ratio-ordered, semi-sparse) TTM chain must
/// agree with the naive fixed-order dense chain to 1e-10 Frobenius on
/// random tensors, at both a moderate (~40%) and a low (~10%) fill — the
/// first exercises the mid-chain densify flip, the second keeps the chain
/// semi-sparse to the end.
#[test]
fn ttm_plan_matches_naive_fixed_order_dense_chain() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let order = rng.gen_range(2usize..5);
        let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(2usize..6)).collect();
        let ranks: Vec<usize> = dims.iter().map(|&d| rng.gen_range(1usize..d + 1)).collect();
        let keep = if seed % 2 == 0 { 10 } else { 5 } as usize; // ~10% / ~40% fill
        let shape = Shape::new(&dims);
        let dense = DenseTensor::from_fn(&dims, |idx| {
            let l = shape.linear_index(idx);
            if l % keep < keep.div_ceil(2) {
                rng.gen_range(-2.0..2.0)
            } else {
                0.0
            }
        });
        let sparse = SparseTensor::from_dense(&dense);
        let factors: Vec<Matrix> = dims
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(n, (&d, &r))| {
                Matrix::from_fn(d, r, |i, j| ((i * (2 * n + 3) + 7 * j) as f64 * 0.13).sin())
            })
            .collect();

        // Naive reference: dense kernels in fixed natural mode order.
        let mut reference = dense.clone();
        for (mode, f) in factors.iter().enumerate() {
            reference = ttm_dense_transposed(&reference, mode, f).unwrap();
        }

        for ordering in [CoreOrdering::Natural, CoreOrdering::BestShrinkFirst] {
            let plan = TtmPlan::with_ordering(&dims, &ranks, ordering).unwrap();
            let mut ws = Workspace::new();
            let got = plan.execute_sparse(&sparse, &factors, &mut ws).unwrap();
            let diff = got.sub(&reference).unwrap().frobenius_norm();
            assert!(
                diff < 1e-10,
                "seed={seed} {ordering:?} plan chain drifted {diff} from naive chain"
            );
        }
    }
}

/// The mode-sorted scatter kernel and the semi-sparse plan executor must
/// be bitwise identical at every thread count. Tensors here exceed the
/// direct-path nnz cutoff, so the mode-sorted (cached-index) path runs.
#[test]
fn mode_sorted_scatter_is_bitwise_thread_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let dims: Vec<usize> = (0..3).map(|_| rng.gen_range(12usize..17)).collect();
        let shape = Shape::new(&dims);
        // ~75% fill of a >=1728-cell tensor: nnz > 1024, well past the
        // direct-path cutoff.
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % 4 != 0)
            .map(|l| (shape.multi_index(l), rng.gen_range(-2.0..2.0)))
            .collect();
        assert!(
            entries.len() > 1024,
            "test tensor must take the sorted path"
        );
        let sparse = SparseTensor::from_entries(&dims, &entries).unwrap();
        let mode = rng.gen_range(0usize..3);
        let u = Matrix::from_fn(dims[mode], 4, |i, j| ((i * 3 + j) as f64 * 0.41).cos());
        let ranks = vec![3usize; 3];
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| Matrix::from_fn(d, 3, |i, j| ((i + 11 * j) as f64 * 0.19).sin()))
            .collect();
        let plan = TtmPlan::with_ordering(&dims, &ranks, CoreOrdering::BestShrinkFirst).unwrap();

        m2td_par::set_max_threads(1);
        let scatter_serial = ttm_sparse_transposed(&sparse, mode, &u).unwrap();
        let core_serial = plan
            .execute_sparse(&sparse, &factors, &mut Workspace::new())
            .unwrap();

        for threads in [2usize, 8] {
            m2td_par::set_max_threads(threads);
            assert_eq!(
                ttm_sparse_transposed(&sparse, mode, &u).unwrap(),
                scatter_serial,
                "scatter not bitwise at t={threads} seed={seed}"
            );
            assert_eq!(
                plan.execute_sparse(&sparse, &factors, &mut Workspace::new())
                    .unwrap(),
                core_serial,
                "plan execution not bitwise at t={threads} seed={seed}"
            );
        }
        m2td_par::set_max_threads(0);
    }
}
