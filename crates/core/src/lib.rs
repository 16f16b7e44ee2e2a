#![warn(missing_docs)]

//! The optimal pipeline scheduler of Nisar & Dietz (1990).
//!
//! This crate is the paper's primary contribution: a branch-and-bound
//! search over legal instruction orders of a basic block that finds the
//! schedule needing the **minimum number of NOPs** under a multiple-pipeline
//! machine model, pruned aggressively but without ever pruning the optimum
//! (§4.2), with a curtail point `λ` bounding worst-case work (§2.3).
//!
//! Layout:
//!
//! * [`context`] — per-block scheduling context (DAG + machine binding);
//! * [`timing`] — the incremental NOP-insertion algorithm (§4.2.2) with
//!   O(1) undo, the engine every search below shares;
//! * [`list_sched`] — the machine-independent list-scheduling heuristic that
//!   seeds the search with a good incumbent (§3.2);
//! * [`bnb`] — the pruned search procedure itself (§4.2.3);
//! * [`bounds`] — the paper's α-β bound plus an optional admissible
//!   critical-path strengthening (extension);
//! * [`baselines`] — exhaustive search, legality-only-pruned search, and a
//!   Gross-style greedy scheduler, used by the paper's Table 1 comparison;
//! * [`parallel`] — a parallel branch-and-bound variant (extension) sharing
//!   an atomic incumbent across threads, reached through
//!   [`branch_and_bound`](bnb::branch_and_bound), the one general entry
//!   (serial or pooled, optionally proof-logged and profiled);
//! * [`profile`] — per-depth search profiling (nodes, prune counts, time),
//!   attached through an `Option`-gated hook like the proof logger;
//! * [`windowed`] — §5.3's future-work feature: locally-optimal scheduling
//!   of very large blocks by partitioning the list schedule into windows;
//! * [`sequence`] — footnote 1's block-interaction machinery: scheduling a
//!   straight-line sequence of blocks with pipeline state carried across
//!   each boundary;
//! * [`seed`] — the shared search prologue (heuristic incumbent + global
//!   lower bound) every exact backend starts from;
//! * [`proof`] — recording-side types for machine-checkable optimality
//!   certificates (the independent checker lives in `pipesched-proof`);
//! * [`api`] — the high-level [`Scheduler`](api::Scheduler) facade.

pub mod api;
pub mod baselines;
pub mod bnb;
pub mod bounds;
pub mod context;
pub mod list_sched;
pub mod parallel;
pub mod profile;
pub mod proof;
pub mod seed;
pub mod sequence;
pub mod timing;
pub mod windowed;

pub use api::{Backend, ScheduledBlock, Scheduler};
pub use bnb::{
    branch_and_bound, search, search_with_proof, BoundKind, EquivalenceMode, InitialHeuristic,
    Observed, SearchConfig, SearchOutcome, SearchStats,
};
pub use bounds::global_lower_bound;
pub use context::SchedContext;
pub use list_sched::list_schedule;
pub use parallel::ParallelConfig;
pub use profile::{DepthStats, SearchProfile};
pub use proof::{
    trailer_for, Certificate, CertificateHeader, CertificateTrailer, ProofEvent, ProofLogger,
    ProofOutput,
};
pub use seed::{seed_incumbent, SearchSeed};
pub use sequence::{schedule_sequence, ScheduledRegion, SequenceOutcome};
pub use timing::{BoundaryState, TimingEngine};
pub use windowed::{windowed_schedule, windowed_schedule_bounded, WindowedOutcome};
