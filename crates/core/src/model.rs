//! The object-safe estimator / model traits every method implements.
//!
//! [`MultiViewEstimator`] is the *unfitted* side: a named, stateless factory that
//! turns `m` input matrices plus a [`FitSpec`] into a fitted [`MultiViewModel`].
//! Both traits are object safe, so the [`crate::EstimatorRegistry`] can hand out
//! `Box<dyn MultiViewEstimator>` and callers can sweep every method through one code
//! path — the prerequisite for serving, persistence and the experiment harness.

use crate::persist::{self, ModelState};
use crate::{CoreError, FitSpec, MemoryModel, Result};
use linalg::{ColsView, Matrix};
use std::io::Write;

/// What an estimator expects as its input matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Per-view feature matrices, `d_p × N` with instances as columns.
    Views,
    /// Per-view centered Gram matrices, `N × N`.
    Kernels,
}

/// How multiple candidate representations are turned into one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineRule {
    /// Evaluate each candidate on validation data and keep the best (the paper's
    /// "BST" variants, and the BSF / BSK single-view baselines).
    SelectBest,
    /// Combine all candidates — averaged decision scores or majority vote (the
    /// paper's "AVG" variants).
    Average,
}

/// One candidate representation of all instances produced by a fitted model.
#[derive(Debug, Clone)]
pub enum Output {
    /// An `N × dim` embedding; learners use it directly (RLS) or via Euclidean
    /// distances (kNN).
    Embedding(Matrix),
    /// An `N × N` precomputed squared-distance matrix (kernel baselines evaluated by
    /// kNN without an explicit embedding).
    Distances(Matrix),
}

impl Output {
    /// Number of instances (rows) the output covers.
    pub fn len(&self) -> usize {
        match self {
            Output::Embedding(z) => z.rows(),
            Output::Distances(d) => d.rows(),
        }
    }

    /// True when the output covers no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An unfitted, named multi-view dimension-reduction method.
pub trait MultiViewEstimator: Send + Sync {
    /// Display name, matching the paper's tables (e.g. `"TCCA"`, `"CCA (AVG)"`).
    fn name(&self) -> &str;

    /// Whether [`MultiViewEstimator::fit`] expects feature views or Gram matrices.
    fn input_kind(&self) -> InputKind {
        InputKind::Views
    }

    /// Fit the method on the input matrices (one per view, sharing the instance
    /// axis), returning a fitted model.
    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>>;

    /// Reconstruct a fitted model from the named sections written by
    /// [`MultiViewModel::save_state`]. The inverse of persistence: for every model
    /// this estimator can produce, `load_state(model.save_state()?)` must yield a
    /// model whose `transform` output is bit-identical to the original's.
    ///
    /// Callers normally go through [`crate::EstimatorRegistry::load_model`], which
    /// reads the file header and dispatches here by method name.
    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>>;
}

/// A fitted multi-view model that projects instances into the learned subspace.
pub trait MultiViewModel: Send + Sync {
    /// Display name of the method that produced the model.
    fn name(&self) -> &str;

    /// Width of the embedding produced by [`MultiViewModel::transform`]
    /// (0 for models that only produce distance matrices).
    fn dim(&self) -> usize;

    /// Number of input matrices (views or kernel blocks) `transform` expects.
    fn num_views(&self) -> usize;

    /// Whether `transform` expects feature views (`d_p × M`, instances as columns)
    /// or kernel blocks (`M × N`, instances as rows). Mirrors
    /// [`MultiViewEstimator::input_kind`]; the serving layer uses it to decide which
    /// axis to batch along.
    fn input_kind(&self) -> InputKind {
        InputKind::Views
    }

    /// Project every view and produce the method's `N × dim` representation.
    fn transform(&self, views: &[Matrix]) -> Result<Matrix>;

    /// Project a single view (where the method defines a per-view projection).
    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix>;

    /// Project a single view given as the horizontal concatenation of borrowed
    /// column blocks — the shape of a coalesced serving batch. The default
    /// materializes the concatenation (which counts against
    /// [`linalg::input_stitches`]) and delegates to
    /// [`MultiViewModel::transform_view`]; projection-based models override it to
    /// feed the blocked GEMM straight from the borrowed blocks with **zero input
    /// copies**. Every implementation must be bit-identical to the stitched path.
    fn transform_view_cols(&self, which: usize, cols: &ColsView<'_>) -> Result<Matrix> {
        self.transform_view(which, &cols.to_matrix())
    }

    /// All candidate representations of the given instances. Most methods produce one
    /// embedding; the pairwise and single-view baselines produce several candidates
    /// combined under [`MultiViewModel::combine`].
    fn outputs(&self, views: &[Matrix]) -> Result<Vec<Output>> {
        Ok(vec![Output::Embedding(self.transform(views)?)])
    }

    /// Human-readable names for the candidates returned by
    /// [`MultiViewModel::outputs`], parallel to that vector. The serving layer
    /// attaches these labels to multi-candidate replies so clients can tell the
    /// per-view / per-pair candidates apart. The default single-embedding case is
    /// labelled `"embedding"`; implementations whose candidate count depends on the
    /// fitted state override this (per-view baselines, pairwise CCA/KCCA). A
    /// mismatch in length falls back to positional `candidate{i}` labels downstream.
    fn output_labels(&self) -> Vec<String> {
        vec!["embedding".to_string()]
    }

    /// How this model's candidates are combined downstream.
    fn combine(&self) -> CombineRule {
        CombineRule::SelectBest
    }

    /// The allocation model recorded while fitting (the paper's memory-cost curves).
    fn memory(&self) -> &MemoryModel;

    /// Convert the fitted state into named sections for persistence. Together with
    /// the matching [`MultiViewEstimator::load_state`], this must round-trip
    /// `transform` output bit-identically (the codec stores exact `f64` bit
    /// patterns, so faithfully listing the fields is sufficient).
    fn save_state(&self) -> Result<ModelState>;

    /// Serialize the model into the versioned `MVTC` binary format (see
    /// [`crate::persist`]). Load it back with
    /// [`crate::EstimatorRegistry::load_model`].
    fn save(&self, w: &mut dyn Write) -> Result<()> {
        let state = self.save_state()?;
        persist::write_model(
            w,
            self.name(),
            self.dim(),
            self.num_views(),
            self.input_kind(),
            &state,
        )
    }
}

/// Shared validation for kernel estimators: same instance count and every Gram
/// matrix square. Returns the instance count.
pub fn check_square_kernels(kernels: &[Matrix]) -> Result<usize> {
    let n = check_same_instances(kernels)?;
    for (p, k) in kernels.iter().enumerate() {
        if !k.is_square() {
            return Err(CoreError::InvalidInput(format!(
                "kernel {p} must be square, got {}x{}",
                k.rows(),
                k.cols()
            )));
        }
    }
    Ok(n)
}

/// Shared validation: all inputs present, same instance count, no empty views.
pub fn check_same_instances(views: &[Matrix]) -> Result<usize> {
    if views.is_empty() {
        return Err(CoreError::InvalidInput("need at least one view".into()));
    }
    let n = views[0].cols();
    for (p, v) in views.iter().enumerate() {
        if v.cols() != n {
            return Err(CoreError::InvalidInput(format!(
                "view {p} has {} instances, expected {n}",
                v.cols()
            )));
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_len_covers_both_variants() {
        let z = Output::Embedding(Matrix::zeros(4, 2));
        assert_eq!(z.len(), 4);
        assert!(!z.is_empty());
        let d = Output::Distances(Matrix::zeros(3, 3));
        assert_eq!(d.len(), 3);
        let empty = Output::Embedding(Matrix::zeros(0, 2));
        assert!(empty.is_empty());
    }

    #[test]
    fn instance_check_rejects_mismatches() {
        assert!(check_same_instances(&[]).is_err());
        let ok = check_same_instances(&[Matrix::zeros(2, 5), Matrix::zeros(3, 5)]);
        assert_eq!(ok.unwrap(), 5);
        let bad = check_same_instances(&[Matrix::zeros(2, 5), Matrix::zeros(3, 4)]);
        assert!(bad.is_err());
    }
}
