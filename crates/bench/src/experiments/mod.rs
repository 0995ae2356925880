//! The experiment bodies, one module per paper table/figure/ablation.
//!
//! Each module exposes `run(&mut Ctx)`; the `tempo-bench run-all` driver
//! dispatches through the
//! [`harness::REGISTRY`](crate::harness::REGISTRY). Experiments write
//! their report through the context (never stdout) and expand their
//! benchmark × algorithm × config matrices into pool jobs, so every
//! report is byte-identical for any `--jobs` value.

pub mod ablation_chains;
pub mod bounds_soundness;
pub mod cache_sweep;
pub mod chunk_sweep;
pub mod drift_adapt;
pub mod fig1_motivation;
pub mod fig2_trg_walkthrough;
pub mod fig5;
pub mod fig6;
pub mod m88ksim_same_input;
pub mod miss_breakdown;
pub mod padding_sensitivity;
pub mod paging;
pub mod q_bound_sweep;
pub mod reuse_profile;
pub mod s_sweep;
pub mod set_associative;
pub mod splitting;
pub mod stream_scale;
pub mod table1;
