//! Stage 1: candidate generation — the single source of truth for the
//! polymerization strategy space.
//!
//! Both the pruned branch-and-bound search ([`super::Searcher::polymerize`])
//! and the exhaustive oracle ([`super::Searcher::enumerate`]) walk the
//! strategy space through this generator, so the searched space and the
//! audited space are identical *by construction*: the oracle cannot
//! "discover" a strategy the search was never offered, and a geometry bug
//! affects both sides equally (the superset test in `super::tests` pins
//! this property).
//!
//! Geometry of a strategy: bands stack top-down; a band led by kernel `a`
//! spans the largest multiple of `a.uM` that fits the remaining rows (the
//! final band absorbs the remainder with local padding); within a band,
//! column segments behave the same way along `N`.

use crate::kernel::MicroKernel;
use crate::pattern::{Pattern, PatternId};
use crate::plan::Region;

/// A visitor's verdict on a proposed region extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Recurse into the subtree below this region; a matching
    /// [`StrategyVisitor::retract`] follows once the subtree is exhausted.
    Descend,
    /// Skip the subtree (a branch-and-bound cut). Pruned subtrees are not
    /// charged against the generator's budget.
    Prune,
}

/// The callbacks through which a search stage consumes the candidate
/// space. The generator owns the *geometry* (which region lists are
/// feasible); visitors own the *economics* (costs, bounds, incumbents).
pub(crate) trait StrategyVisitor {
    /// A region is proposed as the next extension of the current partial
    /// strategy. `rows_remaining` counts output rows still uncovered after
    /// this region's band.
    fn admit(&mut self, kernel_idx: usize, region: &Region, rows_remaining: usize) -> Admit;

    /// Undoes the most recent admitted region (stack discipline).
    fn retract(&mut self);

    /// A complete strategy: `regions` exactly covers the output.
    fn complete(&mut self, pattern: PatternId, regions: &[Region]);

    /// A degenerate branch was skipped (the pattern has more bands than
    /// the remaining rows can populate; a shallower pattern covers it).
    fn degenerate(&mut self) {}
}

/// Walks every feasible polymerization strategy for one shape, feeding a
/// [`StrategyVisitor`]. The budget counts admitted descents (the expensive
/// part: recursion plus leaf cost evaluation) and makes the walk anytime.
pub(crate) struct Generator<'a> {
    kernels: &'a [MicroKernel],
    m: usize,
    n: usize,
    budget: usize,
}

impl<'a> Generator<'a> {
    pub(crate) fn new(kernels: &'a [MicroKernel], m: usize, n: usize, budget: usize) -> Self {
        Self {
            kernels,
            m,
            n,
            budget,
        }
    }

    /// Whether the budget ran out (the walk may have missed strategies).
    pub(crate) fn exhausted(&self) -> bool {
        self.budget == 0
    }

    /// Walks one pattern's strategies, drawing lead/trail kernels from the
    /// first `limit` entries of the kernel order (the shortlist prefix).
    pub(crate) fn run_pattern<V: StrategyVisitor>(
        &mut self,
        pattern: &Pattern,
        limit: usize,
        visitor: &mut V,
    ) {
        let limit = limit.min(self.kernels.len()).max(1);
        let mut regions = Vec::with_capacity(pattern.num_regions());
        self.bands(pattern, limit, 0, 0, &mut regions, visitor);
    }

    fn bands<V: StrategyVisitor>(
        &mut self,
        pattern: &Pattern,
        limit: usize,
        band_idx: usize,
        row_off: usize,
        regions: &mut Vec<Region>,
        visitor: &mut V,
    ) {
        if band_idx == pattern.bands.len() {
            debug_assert_eq!(row_off, self.m, "last band must absorb the remainder");
            visitor.complete(pattern.id, regions);
            return;
        }
        let rem_m = self.m - row_off;
        if rem_m == 0 {
            // A pattern with fewer bands covers this shape; skip the
            // degenerate strategy.
            visitor.degenerate();
            return;
        }
        let last_band = band_idx + 1 == pattern.bands.len();
        let segs = pattern.bands[band_idx];
        for i in 0..limit {
            if self.budget == 0 {
                return;
            }
            let lead = self.kernels[i];
            let um = lead.um;
            let h = if last_band { rem_m } else { (rem_m / um) * um };
            if h == 0 || (!last_band && h == rem_m) {
                continue;
            }
            let (r0, r1) = (row_off, row_off + h);
            match segs {
                1 => {
                    let region = Region::new(r0, r1, 0, self.n, lead);
                    if visitor.admit(i, &region, self.m - r1) == Admit::Prune {
                        continue;
                    }
                    regions.push(region);
                    self.budget = self.budget.saturating_sub(1);
                    self.bands(pattern, limit, band_idx + 1, r1, regions, visitor);
                    regions.pop();
                    visitor.retract();
                }
                2 => {
                    let w = (self.n / lead.un) * lead.un;
                    if w == 0 || w == self.n {
                        // Degenerate split; the single-segment pattern
                        // covers it.
                        continue;
                    }
                    let left = Region::new(r0, r1, 0, w, lead);
                    if visitor.admit(i, &left, self.m - r1) == Admit::Prune {
                        continue;
                    }
                    regions.push(left);
                    for j in 0..limit {
                        if self.budget == 0 {
                            break;
                        }
                        let trail = self.kernels[j];
                        let right = Region::new(r0, r1, w, self.n, trail);
                        if visitor.admit(j, &right, self.m - r1) == Admit::Prune {
                            continue;
                        }
                        regions.push(right);
                        self.budget = self.budget.saturating_sub(1);
                        self.bands(pattern, limit, band_idx + 1, r1, regions, visitor);
                        regions.pop();
                        visitor.retract();
                    }
                    regions.pop();
                    visitor.retract();
                }
                other => panic!("patterns support 1 or 2 column segments, got {other}"),
            }
        }
    }
}
