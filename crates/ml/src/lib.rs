//! # ml — classical machine-learning substrate
//!
//! From-scratch reimplementation of every scikit-learn / XGBoost component
//! the paper's hate-generation pipeline (Section IV, Table III/IV) and
//! feature-engineered retweet baselines (Section VII-B) depend on:
//!
//! * [`logreg`] — logistic regression (mini-batch SGD, L2, class weights).
//! * [`svm`] — linear SVM (Pegasos) and an RBF-kernel SVM approximated by
//!   random Fourier features (documented substitution; same decision
//!   family).
//! * [`tree`] — CART decision trees (Gini, depth/leaf limits, class
//!   weights).
//! * [`forest`] — random forests (bagging + feature subsampling).
//! * [`adaboost`] — AdaBoost (SAMME) over decision stumps.
//! * [`gbdt`] — second-order gradient-boosted trees (XGBoost-style
//!   regularized leaf weights, `eta`, `reg_alpha`).
//! * [`pca`] — principal component analysis via subspace iteration.
//! * [`feature_select`] — K-best selection by mutual information.
//! * [`sampling`] — up/down-sampling for class imbalance.
//! * [`scaler`] — feature standardization.
//! * [`metrics`] — macro-F1, accuracy, ROC-AUC, MAP@k, HITS@k.
//!
//! All classifiers implement the [`Classifier`] trait ([`model`]).

pub mod adaboost;
pub mod feature_select;
pub mod forest;
pub mod gbdt;
pub mod linalg;
pub mod logreg;
pub mod metrics;
pub mod model;
pub mod pca;
mod presort;
pub mod sampling;
pub mod scaler;
pub mod svm;
pub mod tree;

pub use adaboost::{AdaBoost, AdaBoostConfig};
pub use feature_select::MutualInfoSelector;
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{Gbdt, GbdtConfig};
pub use logreg::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{accuracy, hits_at_k, macro_f1, map_at_k, roc_auc, ClassificationReport};
pub use model::Classifier;
pub use pca::Pca;
pub use sampling::{downsample_majority, upsample_minority};
pub use scaler::StandardScaler;
pub use svm::{LinearSvm, LinearSvmConfig, RbfSvm, RbfSvmConfig};
pub use tree::{DecisionTree, DecisionTreeConfig};
