#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-sim — system assembly and experiment drivers
//!
//! Puts the SIPT reproduction together: a [`Machine`] (OS memory model +
//! TLB + SIPT L1 + L2/LLC + DRAM) that plugs under the `sipt-cpu` timing
//! models, single-core and quad-core [`runner`]s, and one driver per paper
//! figure in [`experiments`].
//!
//! ```no_run
//! use sipt_sim::{run_benchmark, Condition, SystemKind};
//! use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w};
//!
//! let cond = Condition::quick();
//! let base = run_benchmark("mcf", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
//! let sipt = run_benchmark("mcf", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
//! println!("mcf speedup: {:.3}", sipt.ipc_vs(&base));
//! ```

pub mod audit;
pub mod block;
pub mod checkpoint;
pub mod env;
pub mod error;
pub mod experiments;
pub mod machine;
pub mod metrics;
pub mod multicore;
pub mod observability;
pub mod prep_cache;
pub mod resilience;
pub mod runner;
pub mod supervisor;
pub mod sweep;
pub mod wire;

pub use block::{
    predictor_stage_enabled, replay_batch, replay_trace, set_predictor_stage, set_replay_batch,
    set_tlb_batch, tlb_batch_enabled, DEFAULT_REPLAY_BATCH,
};
pub use error::SimError;
pub use machine::{Machine, SystemKind};
pub use metrics::{
    arithmetic_mean, harmonic_mean, record_simulation, simulation_totals, try_harmonic_mean,
    NonPositiveValue, PhaseProfile, RunMetrics,
};
pub use multicore::{run_mix, MixMetrics};
pub use prep_cache::{PrepCache, PrepCacheStats, PreparedMix, PreparedMixCore, PreparedWorkload};
pub use resilience::{TaskFailure, WatchdogFlag};
pub use runner::{
    run_benchmark, run_spec, run_spec_per_access, speculation_profile, try_run_benchmark,
    Condition, SpeculationProfile,
};
pub use supervisor::{install_drain_handlers, set_isolation, supervisor_json, Isolation};
pub use sweep::{
    effective_jobs, run_parallel, run_parallel_default, run_parallel_isolated, set_jobs,
    ParallelismProfile, PoolTask, RunRequest, Sweep, SweepResult,
};
