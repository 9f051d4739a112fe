//! The knobs of the staged online search, grouped into one serializable
//! policy so `compiler.rs`, `serving.rs`, the conformance gate, and bench
//! ablations exercise the exact same configuration surface (they all flow
//! through `OnlineOptions::search`).

use serde::{Deserialize, Serialize};

/// Node-budget multiplier applied per escalation round.
const ESCALATE_BUDGET_FACTOR: usize = 4;

/// Deep-pattern shortlist multiplier applied per escalation round.
const ESCALATE_SHORTLIST_FACTOR: usize = 2;

/// Configuration of the staged polymerization search. The defaults
/// reproduce the paper's search-narrowing heuristics (Algorithm 1) with
/// the adaptive extensions of this crate; every field was previously a
/// hard-coded constant in the monolithic search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchPolicy {
    /// Kernel-shortlist size for deep patterns (three or more regions).
    /// The shortlist is per shape — kernels ranked by predicted region
    /// efficiency with stratified tile-geometry diversity — not the old
    /// global top-16 by library score.
    pub shortlist: usize,
    /// Search-effort budget of the pruned search, counting admitted
    /// descents (recursion plus leaf cost evaluation). Keeps worst-case
    /// polymerization in the low tens of microseconds (Fig. 12(a)).
    pub node_budget: usize,
    /// Occupancy-aware selection refinement: track the region-efficiency
    /// estimate alongside Eq. 2 and select the strategy the estimator
    /// favors (dynamic machines, full cost model only). This is what
    /// closes the hard-shape oracle gap; disable to reproduce the
    /// pre-refinement selection exactly.
    pub refine: bool,
    /// Escalate only when, at budget exhaustion, the incumbent is worse
    /// than `escalate_ratio` times the shape's admissible lower bound —
    /// a cheap proxy for "the budget, not the library, is the limiter".
    pub escalate_ratio: f64,
    /// Maximum escalation rounds per shape (bounds worst-case latency).
    pub max_escalations: usize,
}

impl Default for SearchPolicy {
    fn default() -> Self {
        Self {
            shortlist: 16,
            node_budget: 600,
            refine: true,
            escalate_ratio: 1.10,
            max_escalations: 2,
        }
    }
}

impl SearchPolicy {
    /// Branch-and-bound margin: subtrees whose lower bound is within
    /// `1 - PRUNE_MARGIN` of the incumbent are skipped. The cost model's
    /// own error is several percent, so chasing sub-0.5% improvements
    /// buys nothing.
    pub const PRUNE_MARGIN: f64 = 0.995;

    /// The pre-refactor behaviour: the same budget and shortlist size but
    /// no occupancy-aware refinement and no escalation. Used by the
    /// `oracle-gap-hard` before/after experiment and by tests that pin the
    /// branch-and-bound machinery in isolation.
    pub fn legacy() -> Self {
        Self {
            refine: false,
            max_escalations: 0,
            ..Self::default()
        }
    }

    /// The effective node budget for escalation round `round` (0-based).
    pub(crate) fn budget_for(&self, round: usize) -> usize {
        let factor = ESCALATE_BUDGET_FACTOR.saturating_pow(round as u32);
        self.node_budget.saturating_mul(factor).max(1)
    }

    /// The effective deep-pattern shortlist size for escalation round
    /// `round`, clamped to the usable-kernel count by the generator.
    pub(crate) fn shortlist_for(&self, round: usize) -> usize {
        let factor = ESCALATE_SHORTLIST_FACTOR.saturating_pow(round as u32);
        self.shortlist.saturating_mul(factor).max(1)
    }
}
