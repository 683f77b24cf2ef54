//! `mvcore` — the workspace-wide unified estimator API.
//!
//! The paper's core claim (Luo et al., ICDE 2016) is that TCCA subsumes the
//! pairwise-correlation family — CCA, CCA-LS, CCA-MAXVAR, DSE, SSMVD, KCCA — under one
//! higher-order objective. This crate gives the *code* the same shape the *math* has:
//!
//! * [`MultiViewEstimator`] / [`MultiViewModel`] — one object-safe `fit`/`transform`
//!   contract for every method, with a single [`CoreError`] every per-crate error
//!   converts into,
//! * [`FitSpec`] — one builder unifying rank / ε / seed / iteration budget /
//!   per-view-PCA width / decomposition method / center+scale preprocessing,
//! * [`EstimatorRegistry`] — name → estimator dispatch for the paper's whole method
//!   table, so harnesses, examples and future serving layers construct methods
//!   uniformly and new methods (DTCCA, higher-order correlation analysis, …)
//!   register in exactly one place,
//! * [`Pipeline`] — the center/scale → per-view PCA → estimator combinator that
//!   replaces the preprocessing previously hand-rolled inside DSE and SSMVD,
//! * [`MemoryModel`] — the allocation model behind the paper's memory-cost curves,
//!   recorded by every model at fit time.
//!
//! ```
//! use linalg::Matrix;
//! use mvcore::{EstimatorRegistry, FitSpec};
//!
//! // Three tiny views of 40 instances sharing a skewed 1-D latent signal.
//! let n = 40;
//! let mut views = vec![Matrix::zeros(3, n), Matrix::zeros(4, n), Matrix::zeros(2, n)];
//! for j in 0..n {
//!     let t = if j % 4 == 0 { 1.5 } else { -0.4 };
//!     for v in views.iter_mut() {
//!         for i in 0..v.rows() {
//!             v[(i, j)] = t * (i as f64 + 1.0);
//!         }
//!     }
//! }
//!
//! // Any registered method fits through the same two lines.
//! let registry = EstimatorRegistry::with_builtin();
//! let spec = FitSpec::with_rank(1).epsilon(1e-2).seed(7);
//! for name in ["TCCA", "CCA-LS", "CCA (AVG)"] {
//!     let model = registry.fit(name, &views, &spec).unwrap();
//!     let z = model.transform(&views).unwrap();
//!     assert_eq!(z.rows(), n);
//!     assert_eq!(z.cols(), model.dim());
//!     assert!(registry.get(model.name()).is_ok()); // names round-trip
//! }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod error;
pub mod estimators;
mod memcost;
mod model;
pub mod persist;
mod pipeline;
mod preprocess;
mod registry;
mod spec;
mod stage;
mod streaming;

pub use error::CoreError;
pub use memcost::MemoryModel;
pub use model::{
    check_same_instances, check_square_kernels, CombineRule, InputKind, MultiViewEstimator,
    MultiViewModel, Output,
};
pub use persist::{ModelMeta, ModelState};
pub use pipeline::{Pipeline, PipelineBuilder};
pub use preprocess::Standardizer;
pub use registry::{EstimatorFactory, EstimatorRegistry};
pub use spec::{
    FitSpec, WhitenSpec, DEFAULT_DECOMPOSITION_ITERATIONS, DEFAULT_PER_VIEW_DIM,
    DEFAULT_WHITEN_OVERSAMPLE, DEFAULT_WHITEN_POWER_ITERS,
};
pub use stage::{FittedStage, PcaReduce, Standardize, ViewStage, Whiten};
pub use streaming::{StreamingEstimator, SufficientStats};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
