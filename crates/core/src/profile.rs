//! Per-depth search profiling.
//!
//! A [`SearchProfile`] breaks every [`crate::SearchStats`] counter down by
//! search-tree depth and adds inclusive wall time per depth, answering
//! *where* the branch-and-bound spends its work: which depths visit the
//! most nodes, which prune rule carries the load near the root versus the
//! leaves, and how much time each level costs.
//!
//! Profiling follows the proof logger's `Option`-gated hook: the search
//! takes `Option<&mut SearchProfile>` and the disabled path costs one
//! branch per counter bump. Timing is only read when a profile is
//! attached, so plain [`crate::search`] never touches the clock.

use pipesched_json::{json_object, Json};

/// Counters for one search-tree depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthStats {
    /// Nodes visited at this depth (prefix length = depth).
    pub nodes: u64,
    /// Ω calls made while extending prefixes of this length.
    pub omega_calls: u64,
    /// Candidates rejected by the quick [5a] check.
    pub pruned_quick: u64,
    /// Candidates rejected by the readiness test [5b].
    pub pruned_legality: u64,
    /// Candidates rejected by the equivalence filter [5c].
    pub pruned_equivalence: u64,
    /// Subtrees abandoned by the α-β / lower-bound test [6].
    pub pruned_bound: u64,
    /// Inclusive wall time spent in `dfs` calls at this depth, ns. A
    /// depth-`d+1` call nests in exactly one depth-`d` call, so
    /// `time_ns` is monotonically nonincreasing in `d`.
    pub time_ns: u64,
}

/// Per-depth breakdown of one branch-and-bound run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchProfile {
    /// Stats indexed by depth; grown on demand, so `depths.len()` is one
    /// more than the deepest prefix the search committed.
    pub depths: Vec<DepthStats>,
}

impl SearchProfile {
    /// Empty profile, ready to attach to a search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable stats for `depth`, growing the vector as needed.
    pub fn at(&mut self, depth: usize) -> &mut DepthStats {
        if depth >= self.depths.len() {
            self.depths.resize(depth + 1, DepthStats::default());
        }
        &mut self.depths[depth]
    }

    /// Add `other`'s counters depth by depth (one pool worker's share).
    pub(crate) fn absorb(&mut self, other: &SearchProfile) {
        for (depth, d) in other.depths.iter().enumerate() {
            let into = self.at(depth);
            into.nodes += d.nodes;
            into.omega_calls += d.omega_calls;
            into.pruned_quick += d.pruned_quick;
            into.pruned_legality += d.pruned_legality;
            into.pruned_equivalence += d.pruned_equivalence;
            into.pruned_bound += d.pruned_bound;
            into.time_ns += d.time_ns;
        }
    }

    /// Total nodes across depths; equals the run's
    /// [`crate::SearchStats::nodes_visited`].
    pub fn total_nodes(&self) -> u64 {
        self.depths.iter().map(|d| d.nodes).sum()
    }

    /// *Self* time of a depth: its inclusive time minus the inclusive time
    /// of the next depth (every depth-`d+1` call nests in a depth-`d`
    /// call, so the difference is the time spent at exactly this level).
    pub fn self_time_ns(&self, depth: usize) -> u64 {
        let own = self.depths.get(depth).map_or(0, |d| d.time_ns);
        let nested = self.depths.get(depth + 1).map_or(0, |d| d.time_ns);
        own.saturating_sub(nested)
    }

    /// JSON rendering: an array of per-depth objects.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.depths
                .iter()
                .enumerate()
                .map(|(depth, d)| {
                    json_object![
                        ("depth", depth as i64),
                        ("nodes", d.nodes as i64),
                        ("omega_calls", d.omega_calls as i64),
                        ("pruned_quick", d.pruned_quick as i64),
                        ("pruned_legality", d.pruned_legality as i64),
                        ("pruned_equivalence", d.pruned_equivalence as i64),
                        ("pruned_bound", d.pruned_bound as i64),
                        ("time_ns", d.time_ns as i64),
                    ]
                })
                .collect(),
        )
    }
}
