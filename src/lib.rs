//! # multiview-tcca
//!
//! A from-scratch Rust reproduction of *Tensor Canonical Correlation Analysis for
//! Multi-view Dimension Reduction* (Luo, Tao, Wen, Ramamohanarao, Xu — ICDE 2016).
//!
//! This façade crate re-exports the workspace's sub-crates so downstream users can add a
//! single dependency:
//!
//! * [`mvcore`] — the unified estimator API: the [`prelude::MultiViewEstimator`] trait,
//!   [`prelude::FitSpec`], [`prelude::EstimatorRegistry`] and [`prelude::Pipeline`],
//!   through which every method below is constructed and driven uniformly.
//! * [`tcca`] — the paper's contribution: linear TCCA and kernel TCCA.
//! * [`baselines`] — every method the paper compares against (CCA, CCA-LS, CCA-MAXVAR,
//!   DSE, SSMVD, PCA, KCCA and the feature-level baselines).
//! * [`linalg`] / [`tensor`] — the dense linear-algebra and tensor-decomposition
//!   substrates (Householder–QL symmetric eigensolver, Cholesky, SVD, CP-ALS, HOPM,
//!   tensor power method).
//! * [`datasets`] — synthetic multi-view generators emulating the paper's SecStr, Ads
//!   and NUS-WIDE benchmarks, plus kernels and split helpers.
//! * [`learners`] — the downstream RLS and kNN classifiers and the evaluation protocol.
//! * [`serve`] — model persistence ([`prelude::ModelStore`]) and the micro-batching
//!   TCP transform server behind the `tcca_serve` binary; fitted models `save` into
//!   the versioned `MVTC` format and load back through the registry with
//!   bit-identical `transform` output.
//!
//! See `examples/` for runnable end-to-end walkthroughs and the `tcca-bench` crate for
//! the harness that regenerates every table and figure of the paper.
//!
//! Every method is available by name through the registry, under one `fit/transform`
//! contract and one error type:
//!
//! ```
//! use multiview_tcca::prelude::*;
//!
//! let data = secstr_dataset(&SecStrConfig { n_instances: 120, seed: 1, difficulty: 0.8 });
//! let registry = EstimatorRegistry::with_builtin();
//! let spec = FitSpec::with_rank(3).epsilon(1e-2).seed(7);
//!
//! let model = registry.fit("TCCA", data.views(), &spec).unwrap();
//! let embedding = model.transform(data.views()).unwrap();
//! assert_eq!(embedding.shape(), (120, 9)); // m views × rank, concatenated
//! assert_eq!(model.dim(), 9);
//!
//! // The inherent APIs still exist and agree with the trait surface:
//! let direct = Tcca::fit(data.views(), &TccaOptions::with_rank(3)).unwrap();
//! assert_eq!(direct.transform(data.views()).unwrap().shape(), (120, 9));
//! ```

#![warn(missing_docs)]

pub use baselines;
pub use datasets;
pub use learners;
pub use linalg;
pub use mvcore;
pub use serve;
pub use tcca;
pub use tensor;

/// Commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use baselines::{Cca, CcaLs, CcaMaxVar, Dse, Kcca, PairwiseCca, Pca, Ssmvd};
    pub use datasets::{
        ads_dataset, center_kernel, gram_matrix, nuswide_dataset, secstr_dataset, AdsConfig,
        Kernel, MultiViewDataset, NusWideConfig, SecStrConfig,
    };
    pub use learners::{accuracy, KnnClassifier, RlsClassifier};
    pub use linalg::Matrix;
    pub use mvcore::{
        CombineRule, CoreError, EstimatorRegistry, FitSpec, InputKind, MemoryModel,
        MultiViewEstimator, MultiViewModel, Output, Pipeline,
    };
    pub use serve::{
        BatchConfig, BatchEngine, Client, ModelStore, Router, RouterBuilder, RouterConfig, Server,
        TransformService,
    };
    pub use tcca::{DecompositionMethod, Ktcca, KtccaOptions, Tcca, TccaOptions};
    pub use tensor::{CpAls, DenseTensor, Hopm, RankRDecomposition, TensorPowerMethod};
}
