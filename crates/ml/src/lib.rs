//! Machine-learning substrate for the XPro cross-end analytic engine.
//!
//! Implements, from scratch, the classifier stack of the generic biosignal
//! classification framework (paper §2.1 and §4.4):
//!
//! * [`kernel`] — linear / RBF / polynomial SVM kernels;
//! * [`svm`] — binary SVM trained with sequential minimal optimization;
//! * [`subspace`] — the random-subspace ensemble (random 12-feature subsets,
//!   candidate ranking by cross-validation, top-fraction survival);
//! * [`fusion`] — least-squares weighted voting over base-classifier votes;
//! * [`scaler`] — per-feature min-max normalization to `[0, 1]`;
//! * [`cv`] — stratified splits and k-fold cross-validation;
//! * [`metrics`] — classification accuracy;
//! * [`linalg`] — the small dense solver backing the fusion stage.
//!
//! The trained [`subspace::RandomSubspaceModel`] is what shapes an XPro
//! hardware instance: its surviving bases and their feature subsets decide
//! which functional cells exist and how much each SVM cell costs.
//!
//! # Examples
//!
//! ```
//! use xpro_ml::subspace::{RandomSubspaceModel, SubspaceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Tiny synthetic problem: feature 0 separates the classes.
//! let xs: Vec<Vec<f64>> = (0..40)
//!     .map(|i| vec![if i % 2 == 0 { 0.1 } else { 0.9 }, 0.5, 0.5])
//!     .collect();
//! let ys: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
//! let cfg = SubspaceConfig { candidates: 6, features_per_base: 2, ..Default::default() };
//! let model = RandomSubspaceModel::train(&xs, &ys, &cfg)?;
//! assert_eq!(model.predict(&[0.05, 0.5, 0.5]), -1.0);
//! # Ok(())
//! # }
//! ```

pub mod cv;
pub mod fusion;
pub mod kernel;
pub mod linalg;
pub mod metrics;
pub mod multiclass;
pub mod scaler;
pub mod subspace;
pub mod svm;

pub use fusion::FusionWeights;
pub use kernel::Kernel;
pub use multiclass::OneVsRestModel;
pub use scaler::MinMaxScaler;
pub use subspace::{BaseClassifier, RandomSubspaceModel, SubspaceConfig};
pub use svm::{Svm, SvmConfig};
