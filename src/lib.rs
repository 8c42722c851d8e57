//! Umbrella crate for the PAG reproduction. Re-exports the workspace crates.

#![forbid(unsafe_code)]

pub use pag_analysis as analysis;
pub use pag_baselines as baselines;
pub use pag_bignum as bignum;
pub use pag_core as core;
pub use pag_crypto as crypto;
pub use pag_host as host;
pub use pag_membership as membership;
pub use pag_model as model;
pub use pag_obs as obs;
pub use pag_runtime as runtime;
pub use pag_simnet as simnet;
pub use pag_streaming as streaming;
pub use pag_model::symbolic;
