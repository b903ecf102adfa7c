//! The JSON codec — writer, reader and strict validator over one
//! grammar — lives in the leaf crate [`hpf_json`], which `hpf-machine`,
//! `hpf-service` and `hpf-partition` write through as well. This module
//! is its re-export, so `hpf_obs::json::{validate, escape, ..}` stay
//! the paths `trace-report`, the experiments and the tests use.

pub use hpf_json::*;
