//! High-level scheduling facade.
//!
//! ```
//! use pipesched_ir::BlockBuilder;
//! use pipesched_machine::presets;
//! use pipesched_core::Scheduler;
//!
//! let mut b = BlockBuilder::new("demo");
//! let x = b.load("x");
//! let y = b.load("y");
//! let m = b.mul(x, y);
//! b.store("r", m);
//! let block = b.finish().unwrap();
//!
//! let scheduler = Scheduler::new(presets::paper_simulation());
//! let scheduled = scheduler.schedule(&block);
//! assert!(scheduled.optimal);
//! assert!(scheduled.nops <= scheduled.initial_nops);
//! ```

use pipesched_ir::{BasicBlock, DepDag, TupleId};
use pipesched_machine::{Machine, PipelineId};

use crate::bnb::{search, SearchConfig, SearchStats};
use crate::context::SchedContext;

/// Which exact scheduling backend answers a request.
///
/// `pipesched-core` implements the classic search family (serial and
/// parallel branch-and-bound, windowed); the SAT portfolio lives in
/// `pipesched-solve`, which depends on this crate. The selector therefore
/// lives here — the lowest layer every consumer (CLI, service, bench)
/// already sees — while the one dispatcher, `pipesched_solve::solve`,
/// lives in the lowest crate that sees both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The paper's branch-and-bound search (default).
    #[default]
    Bnb,
    /// The CDCL SAT backend: descending time-indexed feasibility queries.
    Sat,
    /// Race branch-and-bound against SAT; first provably-optimal answer
    /// wins and, when both finish, their optima are cross-checked.
    Race,
}

impl Backend {
    /// Stable lowercase name, used in JSON records and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Bnb => "bnb",
            Backend::Sat => "sat",
            Backend::Race => "race",
        }
    }

    /// Parse a backend from its stable name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "bnb" => Some(Backend::Bnb),
            "sat" => Some(Backend::Sat),
            "race" => Some(Backend::Race),
            _ => None,
        }
    }

    /// All backends, in stable order.
    pub const ALL: [Backend; 3] = [Backend::Bnb, Backend::Sat, Backend::Race];
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A configured scheduler bound to a target machine.
#[derive(Debug, Clone)]
pub struct Scheduler {
    machine: Machine,
    config: SearchConfig,
}

impl Scheduler {
    /// Create a scheduler with the paper's default search configuration.
    pub fn new(machine: Machine) -> Self {
        Scheduler {
            machine,
            config: SearchConfig::default(),
        }
    }

    /// Override the full search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the curtail point λ.
    pub fn with_lambda(mut self, lambda: u64) -> Self {
        self.config.lambda = lambda;
        self
    }

    /// Set an anytime wall-clock deadline for every schedule call.
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// The machine this scheduler targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The active search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Schedule one basic block.
    pub fn schedule(&self, block: &BasicBlock) -> ScheduledBlock {
        let dag = DepDag::build(block);
        self.schedule_with_dag(block, &dag)
    }

    /// Schedule a block whose DAG the caller already built.
    pub fn schedule_with_dag(&self, block: &BasicBlock, dag: &DepDag) -> ScheduledBlock {
        let ctx = SchedContext::new(block, dag, &self.machine);
        self.schedule_context(&ctx)
    }

    /// Schedule from a prebuilt [`SchedContext`] — the cheapest entry point
    /// when one block is scheduled repeatedly (escalation tiers, serving):
    /// the DAG, dependence analysis and machine tables are all reused. The
    /// context must target the same machine as this scheduler.
    pub fn schedule_context(&self, ctx: &SchedContext<'_>) -> ScheduledBlock {
        let outcome = search(ctx, &self.config);
        ScheduledBlock {
            order: outcome.order,
            assignment: outcome.assignment,
            etas: outcome.etas,
            nops: outcome.nops,
            initial_order: outcome.initial_order,
            initial_nops: outcome.initial_nops,
            optimal: outcome.optimal,
            stats: outcome.stats,
        }
    }
}

/// A scheduled basic block: the order, its per-position NOP padding, and
/// provenance of the result.
#[derive(Debug, Clone)]
pub struct ScheduledBlock {
    /// Instruction order (a permutation of the block's tuple ids).
    pub order: Vec<TupleId>,
    /// Pipeline unit per tuple (indexed by tuple id).
    pub assignment: Vec<Option<PipelineId>>,
    /// NOPs inserted immediately before each *position* of `order`.
    pub etas: Vec<u32>,
    /// Total NOPs μ(Π).
    pub nops: u32,
    /// The initial list schedule the search started from.
    pub initial_order: Vec<TupleId>,
    /// μ of the initial schedule.
    pub initial_nops: u32,
    /// True when the search completed: the schedule is provably optimal.
    pub optimal: bool,
    /// Search counters.
    pub stats: SearchStats,
}

impl ScheduledBlock {
    /// Iterate `(tuple, nops-before-it)` pairs in schedule order.
    pub fn iter_with_nops(&self) -> impl Iterator<Item = (TupleId, u32)> + '_ {
        self.order.iter().copied().zip(self.etas.iter().copied())
    }

    /// Total execution cycles of the padded schedule
    /// (instructions + NOPs; the last instruction's issue cycle + 1).
    pub fn total_cycles(&self) -> u64 {
        self.order.len() as u64 + u64::from(self.nops)
    }

    /// NOPs eliminated relative to the initial list schedule.
    pub fn nops_removed(&self) -> u32 {
        self.initial_nops.saturating_sub(self.nops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    fn demo_block() -> BasicBlock {
        let mut b = BlockBuilder::new("demo");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let a = b.add(x, y);
        b.store("m", m);
        b.store("a", a);
        b.finish().unwrap()
    }

    #[test]
    fn facade_schedules_optimally() {
        let s = Scheduler::new(presets::paper_simulation());
        let out = s.schedule(&demo_block());
        assert!(out.optimal);
        assert_eq!(out.order.len(), 6);
        assert_eq!(out.etas.len(), 6);
        assert_eq!(out.etas.iter().sum::<u32>(), out.nops);
        assert_eq!(out.total_cycles(), 6 + u64::from(out.nops));
    }

    #[test]
    fn lambda_plumbs_through() {
        let s = Scheduler::new(presets::paper_simulation()).with_lambda(3);
        let out = s.schedule(&demo_block());
        assert!(out.stats.omega_calls <= 3);
    }

    #[test]
    fn nops_removed_reports_improvement() {
        let s = Scheduler::new(presets::paper_simulation());
        let out = s.schedule(&demo_block());
        assert_eq!(out.nops_removed(), out.initial_nops - out.nops);
    }
}
