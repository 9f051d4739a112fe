//! On-the-fly polymerization search (Section 3.4, Algorithm 1 lines 7–15),
//! as a staged, adaptive pipeline.
//!
//! Once the operator's shape is known, MikPoly tries each polymerization
//! pattern, instantiating the pattern's parameterized micro-kernels from
//! the offline library (the *polymerization strategies*), and keeps the
//! strategy with the lowest estimated cost. The search decomposes into
//! explicit stages, each with its own module and its own knobs in
//! [`SearchPolicy`]:
//!
//! 1. **Candidate generation** ([`candidates`]) — one shared generator
//!    walks the strategy space for both the branch-and-bound search and
//!    the conformance oracle's enumeration, so the searched space and the
//!    audited space are identical by construction.
//! 2. **Shape-aware shortlisting** ([`shortlist`]) — kernels are ranked
//!    per shape by predicted region efficiency (occupancy-aware on
//!    dynamically scheduled machines), and deep patterns draw from a
//!    stratified-diversity shortlist over the kernels' tile-geometry
//!    strata, replacing the old global top-16 cut.
//! 3. **Bounding and pruning** ([`bound`]) — the admissible remaining-work
//!    bound; as soon as a partial strategy's bound reaches the incumbent's
//!    cost (under *both* tracked criteria), the subtree is skipped — the
//!    paper's "if the cost of `(R_i, K̃_i)` exceeds the current best
//!    strategy's cost, related strategies are skipped".
//! 4. **Selection refinement** — alongside Eq. 2, the search accumulates
//!    the occupancy-aware region-efficiency estimate of every visited
//!    strategy and (on dynamic machines, full model) selects the strategy
//!    that estimator favors. Eq. 2 remains the ablatable cost model
//!    (`--cost-model` keeps its meaning); refinement is the closed-form
//!    correction that closes the measured hard-shape oracle gap.
//! 5. **Anytime budget escalation** — when the node budget exhausts and
//!    the incumbent is still far from the shape's admissible lower bound,
//!    the search re-runs with escalated budget and shortlist (bounded by
//!    [`SearchPolicy::max_escalations`]); outcomes land in [`SearchStats`]
//!    and the `search.*` telemetry counters.
//!
//! Every per-kernel input of these stages that does not read M or N — the
//! usable kernels, `f_pipe`, the occupancy profiles, the strata and the
//! bound's best FLOP rate — comes from the view's [`family::KernelFamily`],
//! built once per (K, dtype, load scale). Per shape the search only
//! scores, sorts, promotes and walks.
//!
//! **One front door.** A [`Searcher`] is the compiler's configuration —
//! its machine, library, [`OnlineOptions`] and resolved pattern list —
//! and runs each of the search's four jobs over a view's family:
//! the per-shape branch-and-bound ([`Searcher::polymerize`]), the
//! degraded single-kernel plan ([`Searcher::degraded`]), the split-K
//! post-pass ([`Searcher::split_k`]) and the oracle's strategy enumeration
//! ([`Searcher::enumerate`]). [`crate::MikPoly`] is their only caller but
//! for the standalone [`crate::try_polymerize`], which builds a family for
//! one call and runs the same branch-and-bound.
//!
//! Under a serving deadline the search is *anytime*: it checks the wall
//! clock every few dozen descents, and on expiry stops exploring and
//! returns the incumbent (flagged `deadline_cut`). When even pattern I's
//! first strategy did not complete in time, it reports
//! [`MikPolyError::DeadlineExceeded`] and the compiler falls back to the
//! degraded plan — a search-free single-region plan under the shape's
//! shortlist-top-1 kernel.

// Online hot path: failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub(crate) mod bound;
pub(crate) mod candidates;
pub(crate) mod family;
mod policy;
pub(crate) mod shortlist;
mod splitk;

use std::time::Instant;

use accel_sim::{AllocationPolicy, MachineModel};
use tensor_ir::GemmView;

use crate::alloc::{lpt_makespan, pigeonhole_makespan_bound};
use crate::compiler::OnlineOptions;
use crate::cost::CostModelKind;
use crate::error::MikPolyError;
use crate::offline::MicroKernelLibrary;
use crate::pattern::{Pattern, PatternId};
use crate::plan::{CompiledProgram, Region, SearchStats};

use bound::{CostEval, Partial};
use candidates::{Admit, Generator, StrategyVisitor};
use family::KernelFamily;
use shortlist::OccupancyModel;

pub use policy::SearchPolicy;

/// How often the branch-and-bound walk consults the wall clock when a
/// deadline is set: every this-many admitted descents. Cheap enough to
/// bound deadline overshoot to the cost of a few dozen node expansions
/// (single-digit microseconds), rare enough not to tax deadline-free runs.
const DEADLINE_CHECK_INTERVAL: usize = 32;

/// Outcome of a deadline-aware polymerization search.
#[derive(Debug, Clone)]
pub struct SearchRun {
    /// The selected program — the full search's pick, or the incumbent at
    /// the moment the deadline cut exploration short.
    pub program: CompiledProgram,
    /// Whether the deadline stopped the search before it covered the
    /// space it would otherwise have explored. The program is still a
    /// valid, coverage-complete plan — just possibly not the one the full
    /// search would have chosen.
    pub deadline_cut: bool,
}

/// Result of a polymerization search before packaging into a
/// [`CompiledProgram`].
#[derive(Debug, Clone)]
struct Best {
    pattern: PatternId,
    regions: Vec<Region>,
    /// The cost under this incumbent's selection criterion (Eq. 2 / LPT
    /// makespan for the model incumbent, effective latency for the
    /// refined incumbent).
    cost: f64,
    /// The Eq. 2 / makespan cost of the same strategy, for reporting in
    /// [`CompiledProgram::predicted_ns`] regardless of which criterion
    /// selected it.
    model_cost: f64,
}

/// Test/diagnostic hook over the search: sees every complete strategy
/// the branch-and-bound walk visits.
type StrategyObserver<'o> = &'o mut dyn FnMut(PatternId, &[Region]);

/// The branch-and-bound consumer of the candidate generator: accumulates
/// Eq. 2 (and, when refinement is active, the region-efficiency estimate)
/// along the current path, prunes subtrees hopeless under every tracked
/// criterion, and keeps one incumbent per criterion.
struct BnbVisitor<'a, 'o> {
    eval: &'a CostEval<'a>,
    /// Region-efficiency tracking (selection refinement); `None` disables.
    occ: Option<&'a OccupancyModel>,
    prune: bool,
    margin: f64,
    /// Eq. 2 accumulation along the current path (index = depth).
    partials: Vec<Partial>,
    /// Region-efficiency accumulation along the current path.
    eff_stack: Vec<f64>,
    /// `(f_pipe, tasks)` per region of the current partial strategy, for
    /// the exact LPT makespan at static-placement leaves.
    group_stack: Vec<(f64, usize)>,
    best: Option<Best>,
    best_eff: Option<Best>,
    evaluated: usize,
    pruned: usize,
    observer: Option<StrategyObserver<'o>>,
    /// Wall-clock search deadline; `None` disables the clock entirely.
    deadline: Option<Instant>,
    /// Admitted descents since the walk began (drives the periodic
    /// deadline check).
    admits: usize,
    /// Latched once the deadline fires; every later admit prunes, so the
    /// walk unwinds in microseconds.
    deadline_cut: bool,
}

impl<'a, 'o> BnbVisitor<'a, 'o> {
    fn new(
        eval: &'a CostEval<'a>,
        occ: Option<&'a OccupancyModel>,
        prune: bool,
        margin: f64,
        deadline: Option<Instant>,
        observer: Option<StrategyObserver<'o>>,
    ) -> Self {
        Self {
            eval,
            occ,
            prune,
            margin,
            partials: vec![Partial::default()],
            eff_stack: vec![0.0],
            group_stack: Vec::with_capacity(4),
            best: None,
            best_eff: None,
            evaluated: 0,
            pruned: 0,
            observer,
            deadline,
            admits: 0,
            deadline_cut: false,
        }
    }

    fn best_cost(&self) -> f64 {
        self.best.as_ref().map_or(f64::INFINITY, |b| b.cost)
    }
}

// Invariant behind the `expect`s below: `partials`/`eff_stack` are seeded
// with one root element in `new()` and every `retract()` pairs with a
// prior `admit()`, so `last()` is always `Some` — an empty stack is the
// logic bug the message names, not a runtime condition.
#[allow(clippy::expect_used)]
impl StrategyVisitor for BnbVisitor<'_, '_> {
    fn admit(&mut self, kernel_idx: usize, region: &Region, rows_remaining: usize) -> Admit {
        if let Some(deadline) = self.deadline {
            self.admits += 1;
            if self.deadline_cut
                || (self.admits.is_multiple_of(DEADLINE_CHECK_INTERVAL)
                    && Instant::now() >= deadline)
            {
                self.deadline_cut = true;
                self.pruned += 1;
                return Admit::Prune;
            }
        }
        let acc = self.eval.extend(
            *self.partials.last().expect("root partial"),
            region,
            kernel_idx,
        );
        let eff = self.occ.map(|o| {
            self.eff_stack.last().expect("root eff") + o.region_ns(kernel_idx, region.tasks())
        });
        let group = (self.eval.pipe[kernel_idx], region.tasks());
        if self.prune {
            let cutoff = self.best_cost() * self.margin;
            let mut model_cut = self.eval.lower_bound(acc, rows_remaining) >= cutoff;
            if !model_cut && self.eval.lpt_leaves() {
                // Leaves are scored by LPT makespan, which whole rounds
                // bound from below: the pigeonhole bound of the groups
                // placed so far, this region included, only grows as a
                // completion adds regions.
                self.group_stack.push(group);
                model_cut =
                    pigeonhole_makespan_bound(&self.group_stack, self.eval.num_pes) >= cutoff;
                self.group_stack.pop();
            }
            // A subtree survives if it can still improve *either*
            // incumbent: the two rankings disagree exactly where the
            // refinement has value, so the cut must be hopeless under
            // both. The partial efficiency sum is itself admissible
            // (completions only add regions).
            let eff_cut = match (eff, &self.best_eff) {
                (Some(e), Some(b)) => e >= b.cost * self.margin,
                (Some(_), None) => false,
                (None, _) => true,
            };
            if model_cut && eff_cut {
                self.pruned += 1;
                return Admit::Prune;
            }
        }
        self.partials.push(acc);
        if let Some(e) = eff {
            self.eff_stack.push(e);
        }
        self.group_stack.push(group);
        Admit::Descend
    }

    fn retract(&mut self) {
        self.partials.pop();
        if self.occ.is_some() {
            self.eff_stack.pop();
        }
        self.group_stack.pop();
    }

    fn complete(&mut self, pattern: PatternId, regions: &[Region]) {
        self.evaluated += 1;
        if let Some(obs) = self.observer.as_mut() {
            obs(pattern, regions);
        }
        let partial = *self.partials.last().expect("root partial");
        let model_cost = if self.eval.lpt_leaves() {
            // Exact max-min (LPT) allocation makespan of the complete
            // strategy; the additive bound is only used for pruning.
            lpt_makespan(&self.group_stack, self.eval.num_pes)
        } else {
            self.eval.finish(partial)
        };
        if model_cost < self.best_cost() {
            self.best = Some(Best {
                pattern,
                regions: regions.to_vec(),
                cost: model_cost,
                model_cost,
            });
        }
        if self.occ.is_some() {
            let eff_cost = *self.eff_stack.last().expect("root eff");
            if self.best_eff.as_ref().is_none_or(|b| eff_cost < b.cost) {
                self.best_eff = Some(Best {
                    pattern,
                    regions: regions.to_vec(),
                    cost: eff_cost,
                    model_cost,
                });
            }
        }
        // A completed strategy is the natural cut point: an incumbent now
        // exists, so latching here (in addition to the admit-interval
        // sample, which covers long strategy-free stretches) guarantees a
        // blown deadline stops the search even when heavy pruning keeps
        // the admit count below the check interval.
        if let Some(deadline) = self.deadline {
            if !self.deadline_cut && Instant::now() >= deadline {
                self.deadline_cut = true;
            }
        }
    }

    fn degenerate(&mut self) {
        self.pruned += 1;
    }
}

/// The compiler's search configuration: everything the search's four
/// jobs read besides the view's [`KernelFamily`] and the shape. Built from
/// a [`crate::MikPoly`]'s fields (or, by [`crate::try_polymerize`], from
/// its arguments) for each call; it only borrows.
#[derive(Clone, Copy)]
pub(crate) struct Searcher<'a> {
    pub(crate) machine: &'a MachineModel,
    pub(crate) library: &'a MicroKernelLibrary,
    pub(crate) options: &'a OnlineOptions,
    /// The patterns to try: a compiler's `options.patterns`, resolved
    /// against the machine.
    pub(crate) patterns: &'a [Pattern],
}

impl Searcher<'_> {
    /// The per-shape half of the search over the view's `family`, which
    /// must be the view's family of the library: the shape-aware kernel
    /// order, then the branch-and-bound walk, returning the optimized
    /// tensor program `S*`. With a deadline the walk checks the clock
    /// every `DEADLINE_CHECK_INTERVAL` descents and, on expiry, returns
    /// the incumbent flagged [`SearchRun::deadline_cut`]. `observer` sees
    /// every complete strategy visited. Leaves [`SearchStats::search_ns`]
    /// for the caller, who times the family lookup too. Fails as
    /// [`crate::try_polymerize`] does.
    pub(crate) fn polymerize(
        &self,
        family: &KernelFamily,
        view: &GemmView,
        operator: tensor_ir::Operator,
        deadline: Option<Instant>,
        observer: Option<StrategyObserver<'_>>,
    ) -> Result<SearchRun, MikPolyError> {
        if family.is_empty() {
            return Err(MikPolyError::NoFeasibleStrategy { operator });
        }
        let (machine, policy, kind) = (self.machine, &self.options.search, self.options.cost_model);
        let prune = self.options.prune;
        let static_alloc = machine.allocation == AllocationPolicy::StaticCompilerAssigned;

        // Stage 2: shape-aware ordering with stratified-diversity promotion.
        let (m, n) = (view.shape.m, view.shape.n);
        let order = shortlist::shape_order(family, machine.num_pes, m, n, policy.shortlist);
        let kernels: Vec<_> = order.iter().map(|&i| family.kernels[i]).collect();
        let pipe: Vec<f64> = order.iter().map(|&i| family.pipe[i]).collect();

        let eval = CostEval::new(machine, family.best_rate, &pipe, view, kind);
        // Stage 4 applies on dynamically scheduled machines under the full
        // model: static placement already costs leaves exactly (LPT), and
        // the ablated models must keep their deliberately-ablated selection.
        let refine = policy.refine && !static_alloc && kind == CostModelKind::Full;
        let occ = family
            .occupancy
            .as_ref()
            .filter(|_| refine)
            .map(|o| o.permuted(&order));

        let mut stats = SearchStats {
            patterns_tried: self.patterns.len(),
            ..SearchStats::default()
        };
        // The visitor persists across escalation rounds: an escalated round
        // re-walks the (larger) space with the previous round's incumbents
        // already in place, so revisited prefixes prune immediately.
        let mut visitor = BnbVisitor::new(
            &eval,
            occ.as_ref(),
            prune,
            policy.prune_margin,
            deadline,
            observer,
        );
        let mut round = 0usize;
        loop {
            let budget = if prune {
                policy.budget_for(round)
            } else {
                usize::MAX
            };
            let deep_limit = policy.shortlist_for(round).min(kernels.len());
            let mut generator = Generator::new(&kernels, m, n, budget);
            for pattern in self.patterns {
                let limit = if pattern.num_regions() >= 3 {
                    if deep_limit < kernels.len() {
                        stats.shortlist_truncated += 1;
                    }
                    deep_limit
                } else {
                    kernels.len()
                };
                generator.run_pattern(pattern, limit, &mut visitor);
            }
            let exhausted = generator.exhausted();
            if exhausted {
                stats.budget_exhausted += 1;
            }
            // Stage 5: escalate only while the budget is the binding
            // constraint *and* the incumbent is demonstrably far from the
            // shape's admissible lower bound. A blown deadline trumps both:
            // escalation would only dig the hole deeper.
            if exhausted && prune && !visitor.deadline_cut && round < policy.max_escalations {
                let floor = eval.lower_bound(Partial::default(), m);
                let incumbent = visitor.best_cost();
                if floor > 0.0 && incumbent > floor * policy.escalate_ratio {
                    round += 1;
                    stats.escalations += 1;
                    continue;
                }
            }
            break;
        }
        stats.strategies_evaluated = visitor.evaluated;
        stats.strategies_pruned = visitor.pruned;
        let deadline_cut = visitor.deadline_cut;
        let (best, best_eff) = (visitor.best, visitor.best_eff);

        // Pattern I always yields at least one strategy, so an empty
        // incumbent means the deadline fired before even that first
        // strategy completed.
        let Some(model_best) = best else {
            return Err(MikPolyError::DeadlineExceeded { operator });
        };
        let chosen = match best_eff {
            Some(eff_best) if refine => {
                stats.refined = eff_best.pattern != model_best.pattern
                    || eff_best.regions != model_best.regions;
                eff_best
            }
            _ => model_best,
        };
        Ok(SearchRun {
            program: CompiledProgram {
                operator,
                view: *view,
                pattern: chosen.pattern,
                regions: chosen.regions,
                split_k: 1,
                predicted_ns: chosen.model_cost,
                stats,
            },
            deadline_cut,
        })
    }

    /// The search-free degraded compile path: a single region covering
    /// the whole output under the shape's shortlist-top-1 micro-kernel.
    /// This is the bottom rung of the degradation ladder — taken when the
    /// deadline left no room for any search, or when a shape's circuit
    /// breaker is open. The resulting program is coverage-complete and
    /// numerically identical to a full-search program (only slower), and
    /// its [`SearchStats::degraded`] flag is set so it is never mistaken
    /// for a searched plan. Leaves [`SearchStats::search_ns`] for the
    /// caller.
    pub(crate) fn degraded(
        &self,
        family: &KernelFamily,
        view: &GemmView,
        operator: tensor_ir::Operator,
    ) -> Result<CompiledProgram, MikPolyError> {
        let machine = self.machine;
        // Rank with the same shape-aware ordering the full search uses, but
        // keep only the head: one kernel, one region, zero search.
        let (m, n) = (view.shape.m, view.shape.n);
        let order = shortlist::shape_order(family, machine.num_pes, m, n, 1);
        let Some(&top) = order.first() else {
            return Err(MikPolyError::NoFeasibleStrategy { operator });
        };
        let region = Region::new(0, m, 0, n, family.kernels[top]);

        // Cost the plan as the full search costs its leaves so
        // `predicted_ns` stays comparable across grades.
        let eval = CostEval::new(
            machine,
            family.best_rate,
            &family.pipe,
            view,
            CostModelKind::Full,
        );
        let predicted_ns = if eval.lpt_leaves() {
            lpt_makespan(&[(family.pipe[top], region.tasks())], machine.num_pes)
        } else {
            eval.finish(eval.extend(Partial::default(), &region, top))
        };

        let stats = SearchStats {
            strategies_evaluated: 1,
            patterns_tried: 1,
            degraded: true,
            ..SearchStats::default()
        };
        Ok(CompiledProgram {
            operator,
            view: *view,
            pattern: PatternId(1),
            regions: vec![region],
            split_k: 1,
            predicted_ns,
            stats,
        })
    }

    /// Enumerates the polymerization strategies of every pattern (no
    /// pruning, no shortlist), invoking the callback with each complete
    /// region list, and returns `true` when the walk stopped after `cap`
    /// descents before covering the space. The Oracle of Fig. 12(b) and
    /// the conformance subsystem simulate every candidate instead of
    /// trusting the cost model. Kernels are visited in the library's rank
    /// order, so even a truncated enumeration sees the plausible
    /// candidates first; and because the walk goes through the same
    /// [`candidates::Generator`] as [`Searcher::polymerize`], the
    /// enumerated space is a superset of anything the pruned search can
    /// visit.
    ///
    /// # Panics
    ///
    /// When no library kernel is usable for the view.
    pub(crate) fn enumerate(
        &self,
        family: &KernelFamily,
        view: &GemmView,
        cap: usize,
        mut cb: impl FnMut(PatternId, &[Region]),
    ) -> bool {
        assert!(
            !family.is_empty(),
            "micro-kernel library for {} has no kernel usable for {:?} on {}",
            self.library.machine,
            view.shape,
            self.machine.name
        );
        let kernels = &family.kernels;
        let mut generator = Generator::new(kernels, view.shape.m, view.shape.n, cap.max(1));
        let mut visitor = EnumerateVisitor { cb: &mut cb };
        for pattern in self.patterns {
            generator.run_pattern(pattern, kernels.len(), &mut visitor);
        }
        generator.exhausted()
    }
}

/// The enumeration consumer of the candidate generator: no costs, no
/// pruning — every feasible strategy reaches the callback.
struct EnumerateVisitor<'c> {
    cb: &'c mut dyn FnMut(PatternId, &[Region]),
}

impl StrategyVisitor for EnumerateVisitor<'_> {
    fn admit(&mut self, _kernel_idx: usize, _region: &Region, _rows_remaining: usize) -> Admit {
        Admit::Descend
    }
    fn retract(&mut self) {}
    fn complete(&mut self, pattern: PatternId, regions: &[Region]) {
        (self.cb)(pattern, regions);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::compiler::try_polymerize;
    use crate::offline::OfflineOptions;
    use crate::pattern::{all_patterns, gpu_patterns};
    use tensor_ir::{GemmShape, Operator};

    fn setup() -> (MachineModel, MicroKernelLibrary) {
        let m = MachineModel::a100();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&m, &o);
        (m, lib)
    }

    /// The deadline-free search's program for `operator`.
    fn search(
        machine: &MachineModel,
        library: &MicroKernelLibrary,
        operator: Operator,
        patterns: &[Pattern],
        kind: CostModelKind,
        prune: bool,
        policy: &SearchPolicy,
    ) -> CompiledProgram {
        try_polymerize(
            machine,
            library,
            &operator.gemm_view(),
            operator,
            patterns,
            kind,
            prune,
            policy,
            None,
        )
        .expect("a deadline-free search over a generated library cannot fail")
        .program
    }

    /// Every strategy of `patterns` for `view`, enumerated over the view's
    /// family without a cap.
    fn enumerate(
        machine: &MachineModel,
        library: &MicroKernelLibrary,
        view: &GemmView,
        patterns: &[Pattern],
        cb: impl FnMut(PatternId, &[Region]),
    ) {
        let options = OnlineOptions::default();
        let searcher = Searcher {
            machine,
            library,
            options: &options,
            patterns,
        };
        let family = KernelFamily::new(machine, library, view);
        searcher.enumerate(&family, view, usize::MAX, cb);
    }

    /// The degraded plan for `operator`, over its view's family.
    fn degraded(
        machine: &MachineModel,
        library: &MicroKernelLibrary,
        operator: Operator,
    ) -> CompiledProgram {
        let view = operator.gemm_view();
        let options = OnlineOptions::default();
        let searcher = Searcher {
            machine,
            library,
            options: &options,
            patterns: &[],
        };
        let family = KernelFamily::new(machine, library, &view);
        searcher
            .degraded(&family, &view, operator)
            .expect("generated library always has a usable kernel")
    }

    fn compile(m: &MachineModel, lib: &MicroKernelLibrary, shape: GemmShape) -> CompiledProgram {
        let op = Operator::gemm(shape);
        search(
            m,
            lib,
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            true,
            &SearchPolicy::default(),
        )
    }

    #[test]
    fn polymerize_covers_output_exactly() {
        let (m, lib) = setup();
        for &(mm, nn, kk) in &[
            (4096, 1024, 4096),
            (105, 1024, 544),
            (1, 1, 1),
            (33, 65, 17),
        ] {
            let prog = compile(&m, &lib, GemmShape::new(mm, nn, kk));
            prog.verify_coverage().expect("coverage");
            assert!(prog.predicted_ns.is_finite());
            assert!(prog.stats.strategies_evaluated > 0);
        }
    }

    #[test]
    fn awkward_shapes_prefer_polymerization() {
        // With large tiles in the library, a shape whose task count just
        // spills into an extra wave should split off its remainder rows
        // under a second (smaller) micro-kernel — the Fig. 15 effect. (The
        // tiny `setup()` library has no large tiles, so it is generated
        // here with the full `fast()` tile range.)
        let m = MachineModel::a100();
        // Synthetic ranking must reach large shapes (n_syn) for large
        // tiles to survive RankAndPrune.
        let mut options = OfflineOptions::fast();
        options.n_syn = 12;
        let lib = MicroKernelLibrary::generate(&m, &options);
        let mut found_multi = false;
        for mm in (1600..=2400).step_by(16) {
            let op = Operator::gemm(GemmShape::new(mm, 1024, 512));
            let prog = search(
                &m,
                &lib,
                op,
                &gpu_patterns(),
                CostModelKind::Full,
                true,
                &SearchPolicy::default(),
            );
            prog.verify_coverage().expect("coverage");
            if prog.regions.len() > 1 {
                found_multi = true;
            }
        }
        assert!(found_multi, "no awkward shape polymerized into two regions");
    }

    #[test]
    fn pruning_preserves_the_optimum() {
        // Refinement off: this pins the branch-and-bound machinery (the
        // Eq. 2 optimum survives pruning within the margin) independently
        // of the selection-refinement stage.
        let policy = SearchPolicy::legacy();
        let (m, lib) = setup();
        for &(mm, nn, kk) in &[(777, 512, 256), (2048, 384, 128), (96, 96, 96)] {
            let op = Operator::gemm(GemmShape::new(mm, nn, kk));
            let pruned = search(
                &m,
                &lib,
                op,
                &gpu_patterns(),
                CostModelKind::Full,
                true,
                &policy,
            );
            let full = search(
                &m,
                &lib,
                op,
                &gpu_patterns(),
                CostModelKind::Full,
                false,
                &policy,
            );
            // Pruning keeps the result within the branch-and-bound margin
            // of the true optimum.
            assert!(
                pruned.predicted_ns <= full.predicted_ns * 1.006 + 1e-9,
                "shape ({mm},{nn},{kk}): pruned {} vs optimal {}",
                pruned.predicted_ns,
                full.predicted_ns
            );
            assert!(pruned.stats.strategies_evaluated <= full.stats.strategies_evaluated);
        }
    }

    #[test]
    fn wave_only_picks_larger_tiles_than_pipe_only() {
        let (m, lib) = setup();
        let op = Operator::gemm(GemmShape::new(2048, 2048, 1024));
        let wave = search(
            &m,
            &lib,
            op,
            &gpu_patterns(),
            CostModelKind::WaveOnly,
            true,
            &SearchPolicy::default(),
        );
        let pipe = search(
            &m,
            &lib,
            op,
            &gpu_patterns(),
            CostModelKind::PipeOnly,
            true,
            &SearchPolicy::default(),
        );
        let area = |p: &CompiledProgram| {
            p.regions
                .iter()
                .map(|r| r.kernel.um * r.kernel.un)
                .max()
                .unwrap_or(0)
        };
        assert!(
            area(&wave) >= area(&pipe),
            "WaveOnly should favor at-least-as-large micro-kernels"
        );
    }

    #[test]
    fn npu_patterns_search_completes() {
        let m = MachineModel::ascend910a();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&m, &o);
        let op = Operator::gemm(GemmShape::new(1234, 777, 512));
        let prog = search(
            &m,
            &lib,
            op,
            &all_patterns(),
            CostModelKind::Full,
            true,
            &SearchPolicy::default(),
        );
        prog.verify_coverage().expect("coverage");
        assert_eq!(prog.stats.patterns_tried, 9);
    }

    #[test]
    fn enumerate_visits_every_pattern_i_strategy() {
        let (m, lib) = setup();
        let op = Operator::gemm(GemmShape::new(512, 512, 512));
        let mut count = 0usize;
        enumerate(
            &m,
            &lib,
            &op.gemm_view(),
            &gpu_patterns()[..1],
            |_, regions| {
                assert_eq!(regions.len(), 1);
                count += 1;
            },
        );
        // Pattern I has exactly one strategy per usable kernel.
        let usable = lib.usable_kernels(&m, &op.gemm_view()).len();
        assert_eq!(count, usable);
    }

    #[test]
    fn pruned_search_evaluates_far_fewer_strategies() {
        let (m, lib) = setup();
        let op = Operator::gemm(GemmShape::new(1111, 999, 512));
        let policy = SearchPolicy::legacy();
        let pruned = search(
            &m,
            &lib,
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            true,
            &policy,
        );
        let full = search(
            &m,
            &lib,
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            false,
            &policy,
        );
        assert!(pruned.stats.strategies_pruned > 0);
        assert!(pruned.stats.strategies_evaluated < full.stats.strategies_evaluated);
    }

    /// Satellite: the oracle's enumerated space is a superset of every
    /// strategy the pruned online search visits — provable here because
    /// both walks run through the one shared [`candidates::Generator`].
    #[test]
    fn oracle_enumeration_is_a_superset_of_the_pruned_search() {
        fn key(pattern: PatternId, regions: &[Region]) -> String {
            use std::fmt::Write;
            let mut s = format!("{pattern:?}");
            for r in regions {
                write!(
                    s,
                    "|{},{},{},{},k{}",
                    r.row0, r.row1, r.col0, r.col1, r.kernel.id.0
                )
                .unwrap();
            }
            s
        }
        for (machine, patterns, shape) in [
            (
                MachineModel::a100(),
                gpu_patterns(),
                (640usize, 384usize, 128usize),
            ),
            (MachineModel::ascend910a(), all_patterns(), (96, 96, 96)),
        ] {
            let mut o = OfflineOptions::fast();
            o.n_gen = 4;
            let lib = MicroKernelLibrary::generate(&machine, &o);
            let op = Operator::gemm(GemmShape::new(shape.0, shape.1, shape.2));
            let view = op.gemm_view();

            let mut oracle_space = std::collections::HashSet::new();
            enumerate(&machine, &lib, &view, &patterns, |p, r| {
                oracle_space.insert(key(p, r));
            });

            let mut visited = Vec::new();
            let mut observer = |p: PatternId, r: &[Region]| visited.push(key(p, r));
            let options = OnlineOptions::default();
            let searcher = Searcher {
                machine: &machine,
                library: &lib,
                options: &options,
                patterns: &patterns,
            };
            let family = KernelFamily::new(&machine, &lib, &view);
            searcher
                .polymerize(&family, &view, op, None, Some(&mut observer))
                .expect("search");
            assert!(!visited.is_empty());
            for v in &visited {
                assert!(
                    oracle_space.contains(v),
                    "{}: pruned search visited a strategy outside the oracle space: {v}",
                    machine.name
                );
            }
        }
    }

    /// The bound the search prunes with is admissible: at every prefix of
    /// every enumerated strategy it is at most that strategy's leaf cost
    /// (Eq. 2 on the A100; on the Ascend 910A the LPT makespan, bounded by
    /// both the fractional and the pigeonhole bound).
    #[test]
    fn bound_is_admissible_for_completions() {
        let cases = [
            (
                MachineModel::a100(),
                gpu_patterns(),
                vec![
                    (640usize, 384usize, 128usize),
                    (777, 333, 111),
                    (33, 65, 17),
                ],
            ),
            (
                MachineModel::ascend910a(),
                all_patterns(),
                vec![(96, 96, 96), (161, 130, 64), (40, 768, 768)],
            ),
        ];
        for (machine, patterns, shapes) in cases {
            let mut o = OfflineOptions::fast();
            o.n_gen = 4;
            let lib = MicroKernelLibrary::generate(&machine, &o);
            let mut discrete_binds = 0usize;
            for (mm, nn, kk) in shapes {
                let view = Operator::gemm(GemmShape::new(mm, nn, kk)).gemm_view();
                let family = KernelFamily::new(&machine, &lib, &view);
                let pipe = &family.pipe;
                let eval =
                    CostEval::new(&machine, family.best_rate, pipe, &view, CostModelKind::Full);
                let index_of = |r: &Region| {
                    family
                        .kernels
                        .iter()
                        .position(|k| k.id == r.kernel.id)
                        .expect("an enumerated region uses a usable kernel")
                };
                let mut strategies = 0usize;
                enumerate(&machine, &lib, &view, &patterns, |_, regions| {
                    strategies += 1;
                    let mut partial = Partial::default();
                    let mut groups = Vec::new();
                    let mut bounds = Vec::new();
                    for r in regions {
                        let i = index_of(r);
                        partial = eval.extend(partial, r, i);
                        groups.push((pipe[i], r.tasks()));
                        let mut bound = eval.lower_bound(partial, mm - r.row1);
                        if eval.lpt_leaves() {
                            let discrete = pigeonhole_makespan_bound(&groups, machine.num_pes);
                            discrete_binds += usize::from(discrete > bound);
                            bound = bound.max(discrete);
                        }
                        bounds.push(bound);
                    }
                    let leaf = if eval.lpt_leaves() {
                        lpt_makespan(&groups, machine.num_pes)
                    } else {
                        eval.finish(partial)
                    };
                    for (depth, bound) in bounds.iter().enumerate() {
                        assert!(
                            *bound <= leaf * (1.0 + 1e-9),
                            "{} {mm}x{nn}x{kk}: prefix {} of {regions:?} bounds {bound} \
                             above its completion's cost {leaf}",
                            machine.name,
                            depth + 1
                        );
                    }
                });
                assert!(strategies > 0, "{} {mm}x{nn}x{kk}", machine.name);
            }
            // On the NPU the pigeonhole bound must actually be exercised:
            // somewhere it is tighter than the fractional one.
            let static_alloc = machine.allocation == AllocationPolicy::StaticCompilerAssigned;
            assert_eq!(discrete_binds > 0, static_alloc, "{}", machine.name);
        }
    }

    /// The refinement stage only ever replaces the Eq. 2 pick with another
    /// strategy from the same visited space, and it reports having done so.
    #[test]
    fn refined_selection_stays_within_the_search_space_and_is_flagged() {
        let m = MachineModel::a100();
        let lib = MicroKernelLibrary::generate(&m, &OfflineOptions::fast());
        let mut refined_any = false;
        for &(mm, nn, kk) in &[(512, 512, 256), (768, 768, 128), (777, 333, 111)] {
            let op = Operator::gemm(GemmShape::new(mm, nn, kk));
            let view = op.gemm_view();
            let prog = search(
                &m,
                &lib,
                op,
                &gpu_patterns(),
                CostModelKind::Full,
                true,
                &SearchPolicy::default(),
            );
            prog.verify_coverage().expect("coverage");
            assert!(prog.predicted_ns.is_finite() && prog.predicted_ns > 0.0);
            let mut in_space = false;
            enumerate(&m, &lib, &view, &gpu_patterns(), |p, r| {
                if p == prog.pattern && r == prog.regions.as_slice() {
                    in_space = true;
                }
            });
            assert!(in_space, "refined pick must be a generated candidate");
            refined_any |= prog.stats.refined;
        }
        assert!(
            refined_any,
            "refinement should change the pick on at least one hard shape"
        );
    }

    /// An already-expired deadline still yields a valid program — the
    /// incumbent at the cut — and reports the cut, while exploring a tiny
    /// fraction of the space.
    #[test]
    fn expired_deadline_returns_incumbent_and_flags_the_cut() {
        let (m, lib) = setup();
        let op = Operator::gemm(GemmShape::new(1111, 999, 512));
        let view = op.gemm_view();
        let full = search(
            &m,
            &lib,
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            false,
            &SearchPolicy::default(),
        );
        let cut = try_polymerize(
            &m,
            &lib,
            &view,
            op,
            &gpu_patterns(),
            CostModelKind::Full,
            true,
            &SearchPolicy::default(),
            Some(Instant::now() - std::time::Duration::from_millis(1)),
        )
        .expect("the first strategies complete before the deadline check");
        assert!(cut.deadline_cut, "expired deadline must cut the search");
        cut.program.verify_coverage().expect("coverage");
        assert!(cut.program.predicted_ns.is_finite());
        assert!(
            cut.program.stats.strategies_evaluated < full.stats.strategies_evaluated,
            "cut search must explore less than the exhaustive one"
        );
        assert_eq!(cut.program.stats.escalations, 0, "no escalation past a cut");
    }

    /// The degraded fallback is search-free, single-region, coverage
    /// complete, and flagged.
    #[test]
    fn degraded_fallback_is_single_region_and_flagged() {
        let (m, lib) = setup();
        for &(mm, nn, kk) in &[(4096, 1024, 4096), (105, 1024, 544), (1, 1, 1)] {
            let op = Operator::gemm(GemmShape::new(mm, nn, kk));
            let prog = degraded(&m, &lib, op);
            assert_eq!(prog.regions.len(), 1, "degraded plan is one region");
            prog.verify_coverage().expect("coverage");
            assert!(prog.stats.degraded, "degraded plans must say so");
            assert!(prog.predicted_ns.is_finite() && prog.predicted_ns > 0.0);
            // Never better than what the full search would pick.
            let full = compile(&m, &lib, GemmShape::new(mm, nn, kk));
            assert!(
                prog.predicted_ns >= full.predicted_ns * 0.999,
                "degraded ({}) cannot beat the searched plan ({})",
                prog.predicted_ns,
                full.predicted_ns
            );
        }
    }

    /// On static-placement machines the degraded plan is priced like a
    /// full-search leaf: by the LPT makespan of its one region's tasks,
    /// not by the fractional `max(work / |P|, d_max)` bound.
    #[test]
    fn degraded_plans_are_priced_by_lpt_makespan_on_the_npu() {
        let m = MachineModel::ascend910a();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&m, &o);
        let op = Operator::gemm(GemmShape::new(135, 768, 768));
        let prog = degraded(&m, &lib, op);
        let region = prog.regions[0];
        let task_ns = lib
            .get(region.kernel.id)
            .expect("a library kernel")
            .perf
            .predict(region.instances(768));
        let makespan = lpt_makespan(&[(task_ns, region.tasks())], m.num_pes);
        assert_eq!(prog.predicted_ns.to_bits(), makespan.to_bits());
        assert!(
            (prog.predicted_ns - 6_785.7).abs() < 1.0,
            "{}",
            prog.predicted_ns
        );
    }

    /// Escalation rounds are visible in the stats and bounded by the
    /// policy.
    #[test]
    fn budget_exhaustion_escalates_and_is_reported() {
        let m = MachineModel::ascend910a();
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let lib = MicroKernelLibrary::generate(&m, &o);
        let op = Operator::gemm(GemmShape::new(1234, 777, 512));
        let starved = SearchPolicy {
            node_budget: 16,
            max_escalations: 2,
            escalate_ratio: 1.0,
            ..SearchPolicy::default()
        };
        let prog = search(
            &m,
            &lib,
            op,
            &all_patterns(),
            CostModelKind::Full,
            true,
            &starved,
        );
        assert!(
            prog.stats.budget_exhausted > 0,
            "16 nodes cannot cover IX patterns"
        );
        assert!(prog.stats.escalations > 0 && prog.stats.escalations <= 2);

        let capped = SearchPolicy {
            node_budget: 16,
            max_escalations: 0,
            ..SearchPolicy::default()
        };
        let fixed = search(
            &m,
            &lib,
            op,
            &all_patterns(),
            CostModelKind::Full,
            true,
            &capped,
        );
        assert_eq!(fixed.stats.escalations, 0);
        // The escalated search saw strictly more of the space.
        assert!(prog.stats.strategies_evaluated >= fixed.stats.strategies_evaluated);
    }
}
