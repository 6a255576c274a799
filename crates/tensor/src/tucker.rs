//! Tucker decomposition container and reconstruction.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::ttm::ttm_dense_ws;
use crate::workspace::Workspace;
use crate::Result;
use m2td_linalg::Matrix;

/// A Tucker decomposition `[G; U⁽¹⁾, …, U⁽ᴺ⁾]` of an `N`-mode tensor.
///
/// `factors[n]` has shape `I_n × r_n` and the core `G` has shape
/// `r₁ × … × r_N`. Reconstruction computes
/// `X̃ = G ×₁ U⁽¹⁾ ×₂ U⁽²⁾ ⋯ ×_N U⁽ᴺ⁾` (Section III-B of the paper).
#[derive(Debug, Clone)]
pub struct TuckerDecomp {
    /// The dense core tensor (`r₁ × … × r_N`).
    pub core: DenseTensor,
    /// Per-mode factor matrices (`I_n × r_n`).
    pub factors: Vec<Matrix>,
}

impl TuckerDecomp {
    /// Creates a decomposition after validating that factor column counts
    /// match the core dimensions.
    pub fn new(core: DenseTensor, factors: Vec<Matrix>) -> Result<Self> {
        if factors.len() != core.order() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: factors.len(),
                order: core.order(),
            });
        }
        for (n, f) in factors.iter().enumerate() {
            if f.cols() != core.dims()[n] {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![f.rows(), core.dims()[n]],
                    actual: vec![f.rows(), f.cols()],
                    op: "TuckerDecomp::new",
                });
            }
        }
        Ok(Self { core, factors })
    }

    /// The target ranks `(r₁, …, r_N)`.
    pub fn ranks(&self) -> &[usize] {
        self.core.dims()
    }

    /// The reconstructed tensor's mode extents `(I₁, …, I_N)`.
    pub fn output_dims(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// Recomposes the full tensor `X̃ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾`.
    pub fn reconstruct(&self) -> Result<DenseTensor> {
        self.reconstruct_ws(&mut Workspace::new())
    }

    /// [`Self::reconstruct`] drawing every intermediate's buffers from a
    /// caller-owned [`Workspace`], so repeated recompositions (serve
    /// refreshes, error sweeps) reuse the same few allocations.
    pub fn reconstruct_ws(&self, ws: &mut Workspace) -> Result<DenseTensor> {
        let mut acc = self.core.clone();
        for (mode, u) in self.factors.iter().enumerate() {
            let next = ttm_dense_ws(&acc, mode, u, ws)?;
            ws.recycle_tensor(acc);
            acc = next;
        }
        Ok(acc)
    }

    /// Evaluates a single reconstructed cell without materializing the
    /// full tensor: `X̃[i] = G ×₁ U⁽¹⁾[i₁, :] ×₂ U⁽²⁾[i₂, :] ⋯ ×_N U⁽ᴺ⁾[i_N, :]`.
    ///
    /// The core is contracted with one factor row per mode, leading mode
    /// first, each step a run of contiguous multiply-adds over the
    /// remaining block (`64 + 16 + 4` for a `4×4×4` core). The block after
    /// the first step lives on the stack when it has at most 64 entries
    /// (`CELL_INLINE_SLOTS`), so serving-sized cores evaluate without
    /// allocating. This is the one implementation of the cell sum:
    /// [`CellEvaluator`] and the serve engine call it, so their values are
    /// bitwise identical to it by construction.
    ///
    /// Cost is `Π r_n` multiply-adds per cell — the right tool for in-fill
    /// queries ("how would this unsimulated configuration behave?")
    /// against a decomposition of a large ensemble.
    pub fn cell(&self, index: &[usize]) -> Result<f64> {
        self.check_cell_index(index)?;
        let core = self.core.as_slice();
        if core.is_empty() {
            // An order-0 core or a rank-0 mode: the sum has no terms.
            return Ok(0.0);
        }
        let w = self.factors[0].row(index[0]);
        let mut len = core.len() / w.len();
        let mut inline = [0.0; CELL_INLINE_SLOTS];
        let mut spill = Vec::new();
        let acc: &mut [f64] = if len <= CELL_INLINE_SLOTS {
            &mut inline[..len]
        } else {
            spill.resize(len, 0.0);
            &mut spill
        };
        let (first, slabs) = core.split_at(len);
        for (a, &c) in acc.iter_mut().zip(first) {
            *a = w[0] * c;
        }
        add_scaled_slabs(acc, &w[1..], slabs);
        for (f, &i) in self.factors[1..].iter().zip(&index[1..]) {
            let w = f.row(i);
            len /= w.len();
            let (head, slabs) = acc[..len * w.len()].split_at_mut(len);
            for a in head.iter_mut() {
                *a *= w[0];
            }
            add_scaled_slabs(head, &w[1..], slabs);
        }
        Ok(acc[0])
    }

    /// Validates a reconstruction-space multi-index: every mode is checked
    /// before any allocation, so the error path costs nothing until an
    /// actual error is built.
    fn check_cell_index(&self, index: &[usize]) -> Result<()> {
        if index.len() != self.factors.len() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: index.len(),
                order: self.factors.len(),
            });
        }
        if index
            .iter()
            .zip(self.factors.iter())
            .any(|(&i, f)| i >= f.rows())
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.output_dims(),
            });
        }
        Ok(())
    }

    /// Relative Frobenius reconstruction error
    /// `‖X̃ − Y‖_F / ‖Y‖_F` against a reference tensor `Y`.
    pub fn relative_error(&self, reference: &DenseTensor) -> Result<f64> {
        let recon = self.reconstruct()?;
        let diff_norm = recon.sub(reference)?.frobenius_norm();
        let denom = reference.frobenius_norm();
        if denom == 0.0 {
            return Ok(if diff_norm == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Ok(diff_norm / denom)
    }

    /// The paper's accuracy metric (Section VII-D):
    /// `accuracy = 1 − ‖X̃ − Y‖_F / ‖Y‖_F`.
    pub fn accuracy(&self, reference: &DenseTensor) -> Result<f64> {
        Ok(1.0 - self.relative_error(reference)?)
    }

    /// Number of parameters stored by the decomposition (core + factors);
    /// the compression ratio against the dense tensor follows directly.
    pub fn num_parameters(&self) -> usize {
        self.core.num_elements()
            + self
                .factors
                .iter()
                .map(|f| f.rows() * f.cols())
                .sum::<usize>()
    }
}

/// Largest trailing core block (`Π_{n≥2} r_n`) that
/// [`TuckerDecomp::cell`] contracts in a stack buffer; larger cores spill
/// to one heap allocation per call.
const CELL_INLINE_SLOTS: usize = 64;

/// `acc[j] += Σ_g w[g] · slabs[g·len + j]` with `len = acc.len()`, one
/// contiguous slab per weight, accumulated in `g` order.
fn add_scaled_slabs(acc: &mut [f64], w: &[f64], slabs: &[f64]) {
    for (&wg, slab) in w.iter().zip(slabs.chunks_exact(acc.len())) {
        for (a, &s) in acc.iter_mut().zip(slab) {
            *a += wg * s;
        }
    }
}

/// Single-cell evaluation over a [`TuckerDecomp`] whose output extents
/// are computed once.
///
/// [`Self::cell`] is [`TuckerDecomp::cell`], so results are bitwise
/// identical to it — and, because queries take `&self`, identical across
/// any number of concurrent query threads.
#[derive(Debug, Clone)]
pub struct CellEvaluator {
    decomp: TuckerDecomp,
    /// Cached `decomp.output_dims()`.
    output_dims: Vec<usize>,
}

impl CellEvaluator {
    /// Wraps `decomp`.
    pub fn new(decomp: TuckerDecomp) -> Self {
        let output_dims = decomp.output_dims();
        Self {
            decomp,
            output_dims,
        }
    }

    /// The wrapped decomposition.
    pub fn decomp(&self) -> &TuckerDecomp {
        &self.decomp
    }

    /// The reconstructed tensor's mode extents.
    pub fn output_dims(&self) -> &[usize] {
        &self.output_dims
    }

    /// Evaluates one reconstructed cell with [`TuckerDecomp::cell`].
    pub fn cell(&self, index: &[usize]) -> Result<f64> {
        self.decomp.cell(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_mismatches() {
        let core = DenseTensor::zeros(&[2, 2]);
        // Wrong factor count.
        assert!(TuckerDecomp::new(core.clone(), vec![Matrix::zeros(3, 2)]).is_err());
        // Wrong factor columns.
        assert!(
            TuckerDecomp::new(core.clone(), vec![Matrix::zeros(3, 2), Matrix::zeros(3, 3)])
                .is_err()
        );
        assert!(TuckerDecomp::new(core, vec![Matrix::zeros(3, 2), Matrix::zeros(3, 2)]).is_ok());
    }

    #[test]
    fn identity_factors_reconstruct_core() {
        let core = DenseTensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f64);
        let t = TuckerDecomp::new(core.clone(), vec![Matrix::identity(2), Matrix::identity(3)])
            .unwrap();
        assert_eq!(t.reconstruct().unwrap(), core);
        assert!(t.relative_error(&core).unwrap() < 1e-15);
        assert!((t.accuracy(&core).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rank_one_outer_product() {
        // core = [[2]], factors a=[1,2]ᵀ, b=[3,4,5]ᵀ => X = 2·a bᵀ.
        let core = DenseTensor::from_vec(&[1, 1], vec![2.0]).unwrap();
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0], &[4.0], &[5.0]]).unwrap();
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let x = t.reconstruct().unwrap();
        assert_eq!(x.dims(), &[2, 3]);
        assert_eq!(x.get(&[0, 0]), 6.0);
        assert_eq!(x.get(&[1, 2]), 20.0);
    }

    #[test]
    fn relative_error_zero_reference() {
        let core = DenseTensor::zeros(&[1, 1]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)]).unwrap();
        let zero_ref = DenseTensor::zeros(&[2, 2]);
        assert_eq!(t.relative_error(&zero_ref).unwrap(), 0.0);
    }

    #[test]
    fn cell_matches_full_reconstruction() {
        let core = DenseTensor::from_fn(&[2, 2], |i| (i[0] * 2 + i[1] + 1) as f64);
        let a = Matrix::from_fn(4, 2, |i, j| ((i + j) as f64 * 0.7).sin());
        let b = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f64 * 0.3).cos());
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let full = t.reconstruct().unwrap();
        for i in 0..4 {
            for j in 0..3 {
                let direct = t.cell(&[i, j]).unwrap();
                assert!(
                    (direct - full.get(&[i, j])).abs() < 1e-12,
                    "cell ({i},{j}) mismatch"
                );
            }
        }
    }

    #[test]
    fn cell_validates_index() {
        let core = DenseTensor::zeros(&[1, 1]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)]).unwrap();
        assert!(t.cell(&[0]).is_err());
        assert!(t.cell(&[2, 0]).is_err());
        assert_eq!(t.cell(&[1, 1]).unwrap(), 0.0);
        // Degenerate cores (order 0, a rank-0 mode) sum no terms.
        let scalar = TuckerDecomp::new(DenseTensor::zeros(&[]), vec![]).unwrap();
        assert_eq!(scalar.cell(&[]).unwrap(), 0.0);
        let empty = DenseTensor::zeros(&[1, 0]);
        let t = TuckerDecomp::new(empty, vec![Matrix::zeros(2, 1), Matrix::zeros(2, 0)]).unwrap();
        assert_eq!(t.cell(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn cell_evaluator_matches_cell_bitwise() {
        let core = DenseTensor::from_fn(&[2, 2], |i| {
            if i == [1, 0] {
                0.0
            } else {
                (i[0] * 2 + i[1] + 1) as f64
            }
        });
        let a = Matrix::from_fn(4, 2, |i, j| ((i + j) as f64 * 0.7).sin());
        let b = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f64 * 0.3).cos());
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let eval = CellEvaluator::new(t.clone());
        assert_eq!(eval.output_dims(), &[4, 3]);
        for i in 0..4 {
            for j in 0..3 {
                let direct = t.cell(&[i, j]).unwrap();
                let fast = eval.cell(&[i, j]).unwrap();
                assert_eq!(direct.to_bits(), fast.to_bits(), "cell ({i},{j})");
            }
        }
        // Validation carries over unchanged.
        assert!(matches!(
            eval.cell(&[0]),
            Err(TensorError::WrongNumberOfRanks { .. })
        ));
        assert!(matches!(
            eval.cell(&[4, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn num_parameters_counts_core_and_factors() {
        let core = DenseTensor::zeros(&[2, 2]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(5, 2), Matrix::zeros(6, 2)]).unwrap();
        assert_eq!(t.num_parameters(), 4 + 10 + 12);
        assert_eq!(t.output_dims(), vec![5, 6]);
        assert_eq!(t.ranks(), &[2, 2]);
    }
}
