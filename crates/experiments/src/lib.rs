//! # dcn-experiments — the reproduction harness
//!
//! Everything needed to regenerate the paper's evaluation (§VII): build a
//! folded-Clos fabric running one of the three protocol stacks, pin a
//! monitored flow onto the failure chain, inject the TC1–TC4 interface
//! failures, and extract the metrics of Figs. 4–10 and Listings 1–5.
//!
//! Entry points:
//! * [`runspec::RunSpec`] — the unified experiment builder: topology ×
//!   stack × failure × traffic × seed × timing × tuning × telemetry sink
//!   × scheduler backend, with `.run()` / `.run_instrumented()`.
//! * [`figures`] — one function per paper figure, returning printable
//!   tables (these are what the benches and examples call).
//! * [`parallel::run_matrix`] — fan a scenario list out over worker
//!   threads (the emulator itself is deterministic and single-threaded;
//!   scenarios are embarrassingly parallel).
//! * [`campaign`] — fleet-scale orchestration: a [`campaign::CampaignSpec`]
//!   grid expanded over the shared work-stealing [`campaign::pool`],
//!   results landing in an append-only store (`campaign/v1`) that
//!   `fcr campaign diff` turns into a cross-revision regression gate.
//! * [`replicate`] — the paper's multi-run averaging (mean [min–max]
//!   across seeds).
//! * [`ablations`] — quantify Slow-to-Accept, the loss hold-down, and
//!   the §IX timer trade-offs by switching each off or sweeping it.
//! * [`extended_failures`] — §IX's extended cases: node crashes and
//!   multi-point failures.

pub mod ablations;
pub mod bench;
pub mod campaign;
pub mod chaos;
pub mod extended_failures;
pub mod fabric;
pub mod figures;
pub mod flows;
pub mod parallel;
pub mod profile;
pub mod replicate;
pub mod report;
pub mod runspec;
pub mod scenario;
pub mod table;

pub use campaign::CampaignSpec;
pub use chaos::{
    run_campaign, run_chaos, run_chaos_profiled, CampaignConfig, ChaosConfig, FaultSchedule,
};
pub use profile::{
    bundle_from_profiled, run_profiled, warn_if_oversubscribed,
    write_profile_artifacts,
    ProfiledRun,
};
pub use fabric::{
    build_fabric_sim, build_four_tier_sim, build_sim, build_sim_full, build_sim_tuned, BuiltSim,
    Stack, StackTuning,
};
pub use runspec::RunSpec;
pub use scenario::{
    bundle_from_run, run, run_digest, run_instrumented, InstrumentedRun, ScenarioResult, Timing,
    TrafficDir,
};
