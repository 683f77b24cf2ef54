//! [`Pipeline`]: a composable per-view preprocessing stage list in front of any
//! inner estimator.
//!
//! The paper's DSE and SSMVD runs reduce every view to 100 principal components
//! before learning the consensus; cca_zoo-style workflows standardize features
//! first; million-feature views need a whitening stage that never forms the
//! `d × d` covariance. All of these are [`crate::ViewStage`]s now: the pipeline
//! fits each stage per view (in order), feeds the transformed views to the inner
//! estimator, and replays the fitted stages on held-out instances at transform
//! time. Build one with [`Pipeline::builder`]:
//!
//! ```ignore
//! let pipeline = Pipeline::builder()
//!     .standardize()
//!     .pca()
//!     .whiten(WhitenSpec::randomized())
//!     .build(Box::new(DseConsensus));
//! ```

use crate::model::check_same_instances;
use crate::stage::load_fitted_stage;
use crate::{
    CombineRule, CoreError, FitSpec, FittedStage, InputKind, MemoryModel, ModelState,
    MultiViewEstimator, MultiViewModel, Output, PcaReduce, Result, Standardize, ViewStage,
    WhitenSpec,
};
use linalg::{ColsView, Matrix};

/// An estimator combinator applying an ordered list of per-view preprocessing
/// stages before an inner estimator.
///
/// Each [`ViewStage`] may be inert under the given [`FitSpec`] (e.g.
/// [`Standardize`] when neither `center` nor `scale` is set): inert stages drop
/// out of the fitted model entirely, so a stage-less pipeline delegates
/// `transform_view_cols` straight to the inner model and keeps its zero-copy
/// serving path.
///
/// The pipeline reports the inner estimator's name, so registering
/// `Pipeline::builder().standardize().pca().build(Box::new(DseConsensus))` under
/// `"DSE"` is transparent to callers.
pub struct Pipeline {
    inner: Box<dyn MultiViewEstimator>,
    stages: Vec<Box<dyn ViewStage>>,
}

/// Builder for [`Pipeline`] stage lists. Stages apply in the order they are added.
#[derive(Default)]
pub struct PipelineBuilder {
    stages: Vec<Box<dyn ViewStage>>,
}

impl PipelineBuilder {
    /// Append a spec-gated center/scale stage (active when `spec.center` /
    /// `spec.scale` are set).
    pub fn standardize(mut self) -> Self {
        self.stages.push(Box::new(Standardize));
        self
    }

    /// Append a per-view PCA reduction to `spec.effective_per_view_dim()`
    /// components.
    pub fn pca(mut self) -> Self {
        self.stages.push(Box::new(PcaReduce));
        self
    }

    /// Append a whitening stage with a fixed mode (ignoring `spec.whiten`).
    pub fn whiten(mut self, mode: WhitenSpec) -> Self {
        self.stages.push(Box::new(crate::Whiten::fixed(mode)));
        self
    }

    /// Append a whitening stage that reads its mode from `spec.whiten` at fit
    /// time (inert when the spec says [`WhitenSpec::None`]).
    pub fn whiten_from_spec(mut self) -> Self {
        self.stages.push(Box::new(crate::Whiten::from_spec()));
        self
    }

    /// Append an arbitrary custom stage.
    pub fn stage(mut self, stage: Box<dyn ViewStage>) -> Self {
        self.stages.push(stage);
        self
    }

    /// Wrap the inner estimator with the accumulated stage list.
    pub fn build(self, inner: Box<dyn MultiViewEstimator>) -> Pipeline {
        Pipeline {
            inner,
            stages: self.stages,
        }
    }
}

impl Pipeline {
    /// Start an empty stage list.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }
}

/// One fitted stage across all views (`fitted[p]` transforms view `p`).
struct StageSlot {
    fitted: Vec<Box<dyn FittedStage>>,
}

impl StageSlot {
    fn kind(&self) -> &'static str {
        self.fitted[0].kind()
    }
}

impl MultiViewEstimator for Pipeline {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_kind(&self) -> InputKind {
        self.inner.input_kind()
    }

    fn fit(&self, views: &[Matrix], spec: &FitSpec) -> Result<Box<dyn MultiViewModel>> {
        check_same_instances(views)?;
        let mut memory = MemoryModel::new();

        let mut slots: Vec<StageSlot> = Vec::new();
        // Borrow the raw inputs until a stage actually transforms something — a
        // pipeline of inert stages must not deep-copy every view just to read it.
        let mut owned: Option<Vec<Matrix>> = None;
        for stage in &self.stages {
            let inputs: &[Matrix] = owned.as_deref().unwrap_or(views);
            // Whether the stage is active is a property of the spec, not of any
            // single view — decided on the first view, enforced on the rest.
            let Some(first) = stage.fit(0, &inputs[0], spec)? else {
                continue;
            };
            let mut fitted = vec![first];
            for (p, v) in inputs.iter().enumerate().skip(1) {
                fitted.push(stage.fit(p, v, spec)?.ok_or_else(|| {
                    CoreError::InvalidInput(format!(
                        "stage {:?} fitted view 0 but was inert on view {p}",
                        stage.kind()
                    ))
                })?);
            }
            let mut transformed = Vec::with_capacity(inputs.len());
            for (p, (f, v)) in fitted.iter().zip(inputs.iter()).enumerate() {
                let out = f.apply(v)?;
                memory.add_matrix(format!("{} view {p}", f.kind()), out.rows(), out.cols());
                transformed.push(out);
            }
            owned = Some(transformed);
            slots.push(StageSlot { fitted });
        }

        let inner = self.inner.fit(owned.as_deref().unwrap_or(views), spec)?;
        memory.merge(inner.memory());
        Ok(Box::new(PipelineModel {
            slots,
            inner,
            memory,
        }))
    }

    fn load_state(&self, state: &ModelState) -> Result<Box<dyn MultiViewModel>> {
        let len = state.index("stages/len")?;
        let mut slots = Vec::with_capacity(len);
        for i in 0..len {
            let kind = state.text(&format!("stages/{i}/kind"))?.to_string();
            let views = state.index(&format!("stages/{i}/views"))?;
            if views == 0 {
                return Err(CoreError::Persist(format!(
                    "persisted stage {i} ({kind:?}) covers no views"
                )));
            }
            let fitted = (0..views)
                .map(|p| load_fitted_stage(&kind, state, &format!("stages/{i}/{p}")))
                .collect::<Result<Vec<_>>>()?;
            slots.push(StageSlot { fitted });
        }
        let inner_name = state.text("inner/name")?;
        if inner_name != self.inner.name() {
            return Err(CoreError::Persist(format!(
                "pipeline inner model is {inner_name:?} but this pipeline wraps {:?}",
                self.inner.name()
            )));
        }
        let inner = self.inner.load_state(&state.nested("inner")?)?;
        Ok(Box::new(PipelineModel {
            slots,
            inner,
            memory: state.memory()?,
        }))
    }
}

struct PipelineModel {
    slots: Vec<StageSlot>,
    inner: Box<dyn MultiViewModel>,
    memory: MemoryModel,
}

impl PipelineModel {
    fn preprocessed_views(&self) -> Option<usize> {
        self.slots.first().map(|s| s.fitted.len())
    }

    fn stage_for<'a>(&self, slot: &'a StageSlot, which: usize) -> Result<&'a dyn FittedStage> {
        slot.fitted
            .get(which)
            .map(AsRef::as_ref)
            .ok_or_else(|| CoreError::InvalidInput(format!("view index {which} out of range")))
    }

    fn reduce_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        let mut out = view.clone();
        for slot in &self.slots {
            out = self.stage_for(slot, which)?.apply(&out)?;
        }
        Ok(out)
    }

    fn reduce(&self, views: &[Matrix]) -> Result<Vec<Matrix>> {
        if let Some(m) = self.preprocessed_views() {
            if views.len() != m {
                return Err(CoreError::InvalidInput(format!(
                    "expected {m} views, got {}",
                    views.len()
                )));
            }
        }
        views
            .iter()
            .enumerate()
            .map(|(p, v)| self.reduce_view(p, v))
            .collect()
    }
}

impl MultiViewModel for PipelineModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn transform(&self, views: &[Matrix]) -> Result<Matrix> {
        self.inner.transform(&self.reduce(views)?)
    }

    fn transform_view(&self, which: usize, view: &Matrix) -> Result<Matrix> {
        self.inner
            .transform_view(which, &self.reduce_view(which, view)?)
    }

    fn transform_view_cols(&self, which: usize, cols: &ColsView<'_>) -> Result<Matrix> {
        let Some((head, tail)) = self.slots.split_first() else {
            // No stages: the inner model keeps its own zero-copy path.
            return self.inner.transform_view_cols(which, cols);
        };
        // The first stage consumes the borrowed column blocks directly (projection
        // stages center-while-packing instead of stitching); later stages and the
        // inner model see ordinary owned matrices.
        let mut out = self.stage_for(head, which)?.apply_cols(cols)?;
        for slot in tail {
            out = self.stage_for(slot, which)?.apply(&out)?;
        }
        self.inner.transform_view(which, &out)
    }

    fn outputs(&self, views: &[Matrix]) -> Result<Vec<Output>> {
        self.inner.outputs(&self.reduce(views)?)
    }

    fn output_labels(&self) -> Vec<String> {
        self.inner.output_labels()
    }

    fn combine(&self) -> CombineRule {
        self.inner.combine()
    }

    fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    fn num_views(&self) -> usize {
        self.preprocessed_views()
            .unwrap_or_else(|| self.inner.num_views())
    }

    fn input_kind(&self) -> InputKind {
        self.inner.input_kind()
    }

    fn save_state(&self) -> Result<ModelState> {
        let mut state = ModelState::new();
        state.put_int("stages/len", self.slots.len() as u64);
        for (i, slot) in self.slots.iter().enumerate() {
            state.put_text(format!("stages/{i}/kind"), slot.kind());
            state.put_int(format!("stages/{i}/views"), slot.fitted.len() as u64);
            for (p, f) in slot.fitted.iter().enumerate() {
                f.save(&mut state, &format!("stages/{i}/{p}"));
            }
        }
        state.put_text("inner/name", self.inner.name());
        state.put_nested("inner", &self.inner.save_state()?);
        state.put_memory(&self.memory);
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::PcaEstimator;

    fn toy_views() -> Vec<Matrix> {
        let n = 24;
        let mut v1 = Matrix::zeros(6, n);
        let mut v2 = Matrix::zeros(5, n);
        for j in 0..n {
            let t = if j % 3 == 0 { 1.2 } else { -0.4 };
            for i in 0..6 {
                v1[(i, j)] = t * (i as f64 + 1.0) + 10.0 + (i as f64 * 7.3 + j as f64 * 1.9).sin();
            }
            for i in 0..5 {
                v2[(i, j)] = -t * (i as f64 + 0.5)
                    + (j as f64) * 0.01
                    + (i as f64 * 3.1 + j as f64 * 0.7).cos() * 0.2;
            }
        }
        vec![v1, v2]
    }

    #[test]
    fn pca_pipeline_reduces_each_view() {
        let views = toy_views();
        let pipeline = Pipeline::builder()
            .standardize()
            .pca()
            .build(Box::new(PcaEstimator));
        let spec = FitSpec::with_rank(2).per_view_dim(3);
        let model = pipeline.fit(&views, &spec).unwrap();
        assert_eq!(model.name(), "PCA");
        let z = model.transform(&views).unwrap();
        assert_eq!(z.rows(), 24);
        assert_eq!(z.cols(), model.dim());
        // The pipeline accounted for the PCA stage plus the inner model.
        assert!(model
            .memory()
            .entries()
            .iter()
            .any(|(l, _)| l.contains("pca view")));
    }

    #[test]
    fn standardization_is_replayed_on_new_instances() {
        let views = toy_views();
        let pipeline = Pipeline::builder()
            .standardize()
            .build(Box::new(PcaEstimator));
        let spec = FitSpec::with_rank(2).center(true).scale(true);
        let model = pipeline.fit(&views, &spec).unwrap();
        // Transforming the training views must agree with per-view transforms.
        let z = model.transform(&views).unwrap();
        let z0 = model.transform_view(0, &views[0]).unwrap();
        for i in 0..z.rows() {
            for j in 0..z0.cols() {
                assert!((z[(i, j)] - z0[(i, j)]).abs() < 1e-12);
            }
        }
        // Wrong view count is rejected.
        assert!(model.transform(&views[..1]).is_err());
    }

    #[test]
    fn whitening_stage_composes_and_round_trips() {
        let views = toy_views();
        let pipeline = Pipeline::builder()
            .standardize()
            .whiten_from_spec()
            .build(Box::new(PcaEstimator));
        let spec = FitSpec::with_rank(2)
            .center(true)
            .per_view_dim(3)
            .whiten(WhitenSpec::randomized());
        let model = pipeline.fit(&views, &spec).unwrap();
        let z = model.transform(&views).unwrap();

        // Save → load → transform is bit-identical.
        let reload = Pipeline::builder()
            .standardize()
            .whiten_from_spec()
            .build(Box::new(PcaEstimator));
        let reloaded = reload.load_state(&model.save_state().unwrap()).unwrap();
        assert_eq!(z, reloaded.transform(&views).unwrap());

        // transform_view_cols over split blocks matches the stitched transform.
        let (left, right) = (&views[0], &views[0]);
        let cols = ColsView::from_matrices([left, right]).unwrap();
        let stitched = left.hstack(right).unwrap();
        assert_eq!(
            model.transform_view_cols(0, &cols).unwrap(),
            model.transform_view(0, &stitched).unwrap()
        );
    }

    #[test]
    fn inert_stages_keep_the_inner_projection() {
        let views = toy_views();
        let pipeline = Pipeline::builder()
            .standardize()
            .whiten_from_spec()
            .build(Box::new(PcaEstimator));
        // Nothing active: no centering, no scaling, no whitening.
        let spec = FitSpec::with_rank(2);
        let model = pipeline.fit(&views, &spec).unwrap();
        // The stage-less model delegates straight to the inner model.
        let direct = PcaEstimator.fit(&views, &spec).unwrap();
        let cols = ColsView::from_matrices([&views[0], &views[0]]).unwrap();
        assert_eq!(
            model.transform_view_cols(0, &cols).unwrap(),
            direct.transform_view_cols(0, &cols).unwrap()
        );
        let state = model.save_state().unwrap();
        assert_eq!(state.index("stages/len").unwrap(), 0);
    }
}
