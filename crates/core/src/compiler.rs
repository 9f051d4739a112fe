//! The `MikPoly` facade: two-stage compilation end to end.
//!
//! Fault tolerance: [`MikPoly::try_compile`] is the one fallible compile
//! path. Everything a compile depends on besides the shape arrives in its
//! [`CompileBudget`]: a per-request deadline (falling back to the degraded
//! single-kernel plan when the search cannot finish in time) and an
//! optional per-call [`FaultInjection`] context. A program-cache slot
//! filled under an active fault plan is marked, and every reader
//! validates a marked slot whatever its own plan (evicting and recompiling
//! poisoned entries), so one call's faults never reach another call's
//! results. Every failure is a typed [`MikPolyError`]. The infallible
//! [`MikPoly::compile`] / [`MikPoly::run`] remain for deadline-free,
//! fault-free callers.

// Online hot path: failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use accel_sim::{FaultPlan, Launch, MachineModel, SimReport, TaskShape, TaskSpec, TimingMode};
use mikpoly_telemetry::{span, Clock, Registry, Telemetry};
use tensor_ir::Operator;

use crate::cache::{CacheOutcome, CacheStats, ShardedCache};
use crate::cost::CostModelKind;
use crate::error::MikPolyError;
use crate::offline::{MicroKernelLibrary, OfflineOptions};
use crate::pattern::{default_patterns, Pattern};
use crate::plan::{CompiledProgram, ReductionGrid, Region, SearchStats};
use crate::search::family::{FamilyKey, KernelFamily};
use crate::search::{SearchPolicy, SearchRun, Searcher};
use crate::serving::colaunch::repeat_launch;

/// Options of the online (polymerization) stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineOptions {
    /// Cost model driving strategy selection.
    pub cost_model: CostModelKind,
    /// Pattern set; `None` selects the machine default (I–II on GPUs,
    /// I–IX on NPUs).
    pub patterns: Option<Vec<Pattern>>,
    /// Branch-and-bound pruning of the strategy space (Algorithm 1's
    /// heuristic). Disable only for overhead ablations.
    pub prune: bool,
    /// Cache compiled programs by operator (repeated shapes in model
    /// inference compile once).
    pub cache: bool,
    /// Enable the split-K post-pass (extension; off by default so the
    /// reproduction matches the paper's pattern set).
    pub split_k: bool,
    /// Bound on the number of cached compiled programs; `None` (the
    /// default) keeps every program. With a bound, a segmented-LRU policy
    /// evicts unreferenced programs in insertion order while shapes that
    /// were hit while resident are promoted and survive churn — a
    /// deployment knob for serving fleets whose shape universe outgrows
    /// memory. The compiler's degraded-plan cache, its launch memo (one
    /// simulated device time per distinct launch) and its kernel-family
    /// table share the bound.
    #[serde(default)]
    pub cache_capacity: Option<usize>,
    /// Knobs of the staged polymerization search (shortlist size, node
    /// budget, prune margin, selection refinement, escalation). One policy
    /// flows to the compiler, the serving runtime, the conformance gate,
    /// and the bench ablations alike.
    #[serde(default)]
    pub search: SearchPolicy,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        Self {
            cost_model: CostModelKind::Full,
            patterns: None,
            prune: true,
            cache: true,
            split_k: false,
            cache_capacity: None,
            search: SearchPolicy::default(),
        }
    }
}

/// Per-request constraints on one online compilation, and the call's
/// fault-injection context.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileBudget<'a> {
    /// Hard wall-clock deadline for the compile. The search itself aborts
    /// at a *soft* deadline (80% of the remaining time) so the degraded
    /// fallback still fits inside the hard one.
    pub deadline: Option<Instant>,
    /// Skip the full search entirely and take the degraded path — the
    /// circuit breaker's open-state routing.
    pub degrade_only: bool,
    /// The calling context's fault-injection schedule; `None`
    /// (production) makes every fault hook a no-op.
    pub faults: Option<&'a FaultInjection>,
}

impl CompileBudget<'_> {
    /// A budget of `limit` from now, full path allowed, no faults.
    pub fn within(limit: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + limit),
            ..Self::default()
        }
    }
}

/// One calling context's fault injection: a deterministic [`FaultPlan`]
/// plus the per-shape compile-attempt counters that drive the plan's
/// `attempt` dimension (transient faults clear on retry). A serving call
/// builds one per [`crate::ServingRuntime::serve`], so a fresh context
/// replays its schedule from attempt zero and never sees another call's
/// attempts.
#[derive(Debug)]
pub struct FaultInjection {
    plan: Arc<FaultPlan>,
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FaultInjection {
    /// A context that replays `plan` from attempt zero.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        Self {
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The fault schedule.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Returns the current compile-attempt number for `key` and advances
    /// the counter (0-based; the fault schedule is indexed by attempt).
    fn next_attempt(&self, key: u64) -> u32 {
        let mut attempts = self.attempts.lock();
        let slot = attempts.entry(key).or_insert(0);
        let current = *slot;
        *slot += 1;
        current
    }
}

/// Which rung of the degradation ladder produced a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileGrade {
    /// The full staged search ran to its normal termination.
    Full,
    /// The deadline cut the search (incumbent returned), or the degraded
    /// single-kernel fallback ran. The program is numerically identical to
    /// a full-grade one — only its predicted performance may be worse.
    Degraded,
}

/// A program-cache value: the compiled program plus its simulated device
/// time. Serving simulates in noise-free [`TimingMode::Evaluate`], so the
/// time is a pure function of the program's launch. It is read on the
/// slot's first read, after the compile has been timed (never inside the
/// single-flight fill), from the compiler's launch memo, which simulates
/// each distinct [`LaunchKey`] once. The slot's copy lives and dies with
/// the slot: eviction, poison removal and a cache reset drop it, and
/// neither it nor the launch memo is ever persisted.
#[derive(Debug)]
pub(crate) struct CachedProgram {
    program: Arc<CompiledProgram>,
    device_ns: OnceLock<f64>,
    /// Filled under an active fault plan, so possibly corrupted: every
    /// reader validates the program before using it.
    faulted: bool,
}

impl CachedProgram {
    fn new(program: CompiledProgram, faulted: bool) -> Self {
        Self {
            program: Arc::new(program),
            device_ns: OnceLock::new(),
            faulted,
        }
    }
}

/// Outcome of one budgeted compilation.
#[derive(Debug, Clone)]
pub struct CompileReply {
    /// The compiled program (always coverage-complete).
    pub program: Arc<CompiledProgram>,
    /// How the program cache answered.
    pub outcome: CacheOutcome,
    /// Which rung of the degradation ladder answered.
    pub grade: CompileGrade,
    /// Poisoned cache entries evicted and recompiled on the way (only
    /// non-zero under an active fault plan).
    pub poison_retries: u32,
    /// The cache slot `program` came from, which carries its device time.
    slot: Arc<CachedProgram>,
}

impl CompileReply {
    fn new(
        slot: Arc<CachedProgram>,
        outcome: CacheOutcome,
        grade: CompileGrade,
        poison_retries: u32,
    ) -> Self {
        Self {
            program: Arc::clone(&slot.program),
            outcome,
            grade,
            poison_retries,
            slot,
        }
    }
}

/// One operator execution: the compiled program, the device timing, and the
/// online compilation overhead MikPoly paid for it.
#[derive(Debug, Clone)]
pub struct OperatorRun {
    /// The program that ran.
    pub program: Arc<CompiledProgram>,
    /// Simulated device timing.
    pub report: SimReport,
    /// Online polymerization time for this call (0 on a cache hit).
    pub compile_ns: u128,
    /// How the program cache answered this call: `compile_ns` is fresh
    /// polymerization work on `Computed` but a coalesced wait on another
    /// thread's flight on `Waited`.
    pub outcome: CacheOutcome,
    /// Which rung of the degradation ladder compiled the program.
    pub grade: CompileGrade,
}

impl OperatorRun {
    /// End-to-end latency: device time plus the polymerization overhead, as
    /// the paper reports for MikPoly ("the end-to-end model inference
    /// latency for MikPoly encompasses both the operator execution time ...
    /// and the runtime overhead attributed to MikPoly's cost model").
    pub fn total_ns(&self) -> f64 {
        self.report.time_ns + self.compile_ns as f64
    }
}

/// Result of an Oracle search (exhaustive simulation, Fig. 12(b)).
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// The best program found.
    pub program: CompiledProgram,
    /// Number of candidate strategies simulated.
    pub candidates: usize,
    /// Whether the enumeration hit the candidate cap before exhausting
    /// the strategy space (always `false` for [`MikPoly::compile_oracle`]).
    pub truncated: bool,
    /// Wall-clock time the exhaustive search took.
    pub search: std::time::Duration,
}

/// The MikPoly dynamic-shape tensor compiler.
///
/// Construction runs (or receives) the offline stage; [`MikPoly::compile`]
/// performs on-the-fly micro-kernel polymerization for a runtime shape;
/// [`MikPoly::run`] also executes the program on the simulated device.
///
/// # Example
///
/// ```
/// use accel_sim::MachineModel;
/// use mikpoly::{MikPoly, OfflineOptions};
/// use tensor_ir::{GemmShape, Operator};
///
/// let mut options = OfflineOptions::fast();
/// options.n_gen = 4; // tiny library for the example
/// let compiler = MikPoly::offline(MachineModel::a100(), &options);
/// let run = compiler.run(&Operator::gemm(GemmShape::new(1234, 512, 768)));
/// assert!(run.report.time_ns > 0.0);
/// assert!(run.program.verify_coverage().is_ok());
/// ```
#[derive(Debug)]
pub struct MikPoly {
    machine: MachineModel,
    library: Arc<MicroKernelLibrary>,
    options: OnlineOptions,
    /// The pattern set of `options`, resolved against the machine.
    patterns: Vec<Pattern>,
    cache: ShardedCache<Operator, CachedProgram>,
    /// Programs from the degraded fallback path, cached separately: a
    /// degraded plan must never shadow (or be shadowed by) the full
    /// search's plan for the same shape. Bounded like the program cache.
    degraded: ShardedCache<Operator, CachedProgram>,
    /// Simulated device time per distinct launch and wave width k (k = 1
    /// is solo, behind the program-cache slots; k > 1 times co-launched
    /// waves). Bounded like the program cache.
    launch_memo: ShardedCache<(LaunchKey, usize), f64>,
    /// The shape-invariant half of the search, per (K, dtype, load
    /// scale): every fill of the family reads it instead of re-filtering
    /// and re-costing the library. Bounded like the program cache; never
    /// persisted.
    families: ShardedCache<FamilyKey, KernelFamily>,
    telemetry: Arc<Telemetry>,
}

/// A program's launch as it looks before placement: everything
/// [`MikPoly::launch_for`] and [`CompiledProgram::reduction_launch`] read
/// from it. Equal keys build equal launches, so programs of different
/// shapes whose regions round to the same task grids share one simulated
/// device time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    grids: Vec<GridKey>,
    reduction: Option<ReductionGrid>,
}

impl LaunchKey {
    /// [`crate::serving::colaunch::warp_slots`] of the launch, from its grids.
    pub(crate) fn warp_slots(&self) -> u64 {
        self.grids
            .iter()
            .map(|g| g.count as u64 * g.task[GridKey::WARPS])
            .sum()
    }
}

/// One region's task grid: its task (the [`TaskShape`] fields, `f64`s as
/// bits, then warps and instances) and task count, plus, under
/// static placement, the predicted task duration the max-min allocator
/// places it by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GridKey {
    task: [u64; 11],
    count: usize,
    task_ns: Option<u64>,
}

impl GridKey {
    /// The index of the task's warps in `task`.
    const WARPS: usize = 9;

    fn new(spec: &TaskSpec, count: usize, task_ns: Option<f64>) -> Self {
        // Exhaustive destructuring: a new task field must join the key.
        let TaskSpec {
            shape,
            warps,
            instances,
        } = *spec;
        let TaskShape {
            um,
            un,
            uk,
            in_elem_bytes,
            out_elem_bytes,
            acc_elem_bytes,
            load_scale,
            stages,
            quality,
        } = shape;
        Self {
            task: [
                um as u64,
                un as u64,
                uk as u64,
                in_elem_bytes as u64,
                out_elem_bytes as u64,
                acc_elem_bytes as u64,
                load_scale.to_bits(),
                stages as u64,
                quality.to_bits(),
                warps as u64,
                instances as u64,
            ],
            count,
            task_ns: task_ns.map(f64::to_bits),
        }
    }
}

/// The stable per-shape key used by the fault plan, the circuit breaker,
/// and the attempt counters.
pub fn shape_key(operator: &Operator) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    operator.hash(&mut hasher);
    hasher.finish()
}

impl MikPoly {
    /// Runs the offline stage on `machine` and wraps the result.
    pub fn offline(machine: MachineModel, offline: &OfflineOptions) -> Self {
        Self::offline_with_telemetry(machine, offline, Telemetry::disabled())
    }

    /// Like [`MikPoly::offline`], but the offline tuning and every later
    /// online compilation record spans and metrics into `telemetry`.
    pub fn offline_with_telemetry(
        machine: MachineModel,
        offline: &OfflineOptions,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let library = MicroKernelLibrary::generate_with_telemetry(&machine, offline, &telemetry);
        Self::with_library(machine, library).with_telemetry(telemetry)
    }

    /// Uses a pre-generated (e.g. cached-on-disk) micro-kernel library.
    pub fn with_library(machine: MachineModel, library: MicroKernelLibrary) -> Self {
        Self {
            patterns: default_patterns(&machine),
            machine,
            library: Arc::new(library),
            options: OnlineOptions::default(),
            cache: ShardedCache::new(),
            degraded: ShardedCache::new(),
            launch_memo: ShardedCache::new(),
            families: ShardedCache::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the online options (builder style). Clears the program
    /// cache, the degraded-plan cache, the launch memo and the
    /// kernel-family table, all bounded by [`OnlineOptions::cache_capacity`].
    #[must_use]
    pub fn with_options(mut self, options: OnlineOptions) -> Self {
        fn table<K: Eq + Hash + Clone, V>(capacity: Option<usize>) -> ShardedCache<K, V> {
            capacity.map_or_else(ShardedCache::new, ShardedCache::bounded)
        }
        self.cache = table(options.cache_capacity);
        self.degraded = table(options.cache_capacity);
        self.launch_memo = table(options.cache_capacity);
        self.families = table(options.cache_capacity);
        self.patterns = options
            .patterns
            .clone()
            .unwrap_or_else(|| default_patterns(&self.machine));
        self.options = options;
        self
    }

    /// Attaches a telemetry handle (builder style): online compilations
    /// record `online.compile` / `online.search` spans and the
    /// `search.*` / `online.*` metrics into it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        if telemetry.is_enabled() {
            let registry = telemetry.registry();
            for (name, help) in [
                (
                    "online.compile_ns",
                    "real wall-clock per fresh polymerization",
                ),
                (
                    "cache.wait_ns",
                    "real wall-clock spent coalesced behind an in-flight compile",
                ),
                (
                    "compile.degraded",
                    "requests answered by the degraded compile path",
                ),
                ("cache.poisoned", "poisoned cache entries retried past"),
                ("oracle.searches", "exhaustive oracle searches run"),
                (
                    "oracle.candidates",
                    "candidate strategies the oracle simulated",
                ),
                (
                    "oracle.truncated",
                    "oracle searches cut short by the candidate cap",
                ),
            ] {
                registry.describe(name, help);
            }
        }
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle this compiler records into (the shared no-op
    /// handle unless one was attached).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The machine this compiler targets.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// The offline micro-kernel library.
    pub fn library(&self) -> &MicroKernelLibrary {
        &self.library
    }

    /// The active online options.
    pub fn options(&self) -> &OnlineOptions {
        &self.options
    }

    /// The kernel family of `view`, from the family table.
    fn family(&self, view: &tensor_ir::GemmView) -> Arc<KernelFamily> {
        let key = FamilyKey::of(view);
        let build = || KernelFamily::new(&self.machine, &self.library, view);
        self.families.get_or_compute(&key, build).0
    }

    /// The search's front door, configured as this compiler.
    fn searcher(&self) -> Searcher<'_> {
        Searcher {
            machine: &self.machine,
            library: &self.library,
            options: &self.options,
            patterns: &self.patterns,
        }
    }

    /// On-the-fly polymerization for a runtime shape (Algorithm 1, lines
    /// 7–15). Cached per operator when [`OnlineOptions::cache`] is set;
    /// concurrent misses on one operator compile exactly once (single
    /// flight).
    pub fn compile(&self, operator: &Operator) -> Arc<CompiledProgram> {
        match self.try_compile(operator, CompileBudget::default()) {
            Ok(reply) => reply.program,
            // With no deadline and no fault plan every failure is the
            // logic bug the infallible contract documents as a panic.
            Err(err) => panic!("infallible compilation failed: {err}"),
        }
    }

    /// Budgeted, fallible compilation — the serving runtime's entry point.
    ///
    /// The degradation ladder, top to bottom:
    ///
    /// 1. full staged search (possibly cut at the deadline, returning the
    ///    incumbent — still [`CompileGrade::Degraded`] for *this* request,
    ///    though the cached program serves later hits at full grade);
    /// 2. the search-free single-kernel fallback, when the deadline left
    ///    no room for any search or `degrade_only` routed here directly.
    ///
    /// A slot filled under an active [`FaultPlan`] (this call's or any
    /// other's) is validated on every read; a poisoned entry is evicted
    /// ([`CacheStats::invalidations`]) and recompiled, bounded by an
    /// internal retry cap.
    ///
    /// # Errors
    ///
    /// [`MikPolyError::NoFeasibleStrategy`] when the library has no usable
    /// kernel, [`MikPolyError::CachePoisoned`] when recompiles keep
    /// producing invalid programs. A deadline that cuts even the fallback
    /// is *not* an error: the fallback is search-free, so it always
    /// completes. Injected compile panics propagate as panics — isolation
    /// is the caller's `catch_unwind` at the worker boundary.
    pub fn try_compile(
        &self,
        operator: &Operator,
        budget: CompileBudget<'_>,
    ) -> Result<CompileReply, MikPolyError> {
        if budget.degrade_only {
            return self.degraded_reply(operator);
        }
        match self.try_compile_full(operator, budget) {
            Ok(reply) => Ok(reply),
            // The search ran out of time before costing any strategy:
            // drop to the bottom rung.
            Err(MikPolyError::DeadlineExceeded { .. }) => self.degraded_reply(operator),
            Err(other) => Err(other),
        }
    }

    /// The full-search rung: cached, single-flight, deadline-aware, with
    /// validation of every slot filled under an active fault plan.
    fn try_compile_full(
        &self,
        operator: &Operator,
        budget: CompileBudget<'_>,
    ) -> Result<CompileReply, MikPolyError> {
        const MAX_POISON_RETRIES: u32 = 2;
        let mut poison_retries = 0u32;
        loop {
            let deadline_cut = Cell::new(false);
            let compute = || self.try_compile_uncached(operator, budget, &deadline_cut);
            let attempt = if self.options.cache {
                self.cache.try_get_or_compute(operator, compute)
            } else {
                compute().map(|slot| (Arc::new(slot), CacheOutcome::Computed))
            };
            let (slot, outcome) = attempt?;
            // Only a fault plan can corrupt a program, so a slot filled
            // without one skips the coverage re-check. A marked slot is
            // checked whatever this call's own plan: a clean call can
            // coalesce onto, or hit, a faulty call's fill.
            if slot.faulted && slot.program.verify_coverage().is_err() {
                // Poisoned entry: evict and recompile. The fault schedule
                // corrupts only a shape's first compile, so the retry
                // normally comes back clean; the cap bounds the pathological
                // always-corrupt schedule.
                self.cache.remove(operator);
                poison_retries += 1;
                if poison_retries > MAX_POISON_RETRIES {
                    return Err(MikPolyError::CachePoisoned {
                        operator: *operator,
                        attempts: poison_retries,
                    });
                }
                continue;
            }
            let grade = if deadline_cut.get() {
                CompileGrade::Degraded
            } else {
                CompileGrade::Full
            };
            return Ok(CompileReply::new(slot, outcome, grade, poison_retries));
        }
    }

    /// The bottom rung: the search-free single-kernel plan, cached in the
    /// dedicated degraded cache.
    fn degraded_reply(&self, operator: &Operator) -> Result<CompileReply, MikPolyError> {
        let (slot, outcome) = self.degraded.try_get_or_compute(operator, || {
            let start = Instant::now();
            let view = operator.gemm_view();
            let family = self.family(&view);
            let mut program = self.searcher().degraded(&family, &view, *operator)?;
            program.stats.search_ns = start.elapsed().as_nanos();
            Ok(CachedProgram::new(program, false))
        })?;
        Ok(CompileReply::new(slot, outcome, CompileGrade::Degraded, 0))
    }

    /// Counter snapshot of the program cache (hits, polymerizations,
    /// coalesced waits, …).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counter snapshot of the launch memo: `computations` is the number
    /// of device simulations the serving path ran.
    pub fn launch_memo_stats(&self) -> CacheStats {
        self.launch_memo.stats()
    }

    /// Counter snapshot of the kernel-family table: `computations` is
    /// the number of families built, one per (K, dtype, load scale) the
    /// compiler has searched or enumerated since its last reset.
    pub fn family_stats(&self) -> CacheStats {
        self.families.stats()
    }

    /// Checks the structural invariants of the compiler's four tables —
    /// the program cache, the degraded-plan cache, the launch memo and the
    /// kernel-family table — at quiescence (see
    /// [`ShardedCache::check_invariants`]), and that none holds more
    /// entries than [`OnlineOptions::cache_capacity`] when one is set.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant, naming its table.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn check<K: Eq + Hash + Clone, V>(
            name: &str,
            table: &ShardedCache<K, V>,
            capacity: Option<usize>,
        ) -> Result<(), String> {
            table
                .check_invariants()
                .map_err(|e| format!("{name}: {e}"))?;
            let entries = table.stats().entries;
            match capacity {
                Some(capacity) if entries > capacity as u64 => Err(format!(
                    "{name}: {entries} entries exceed the cache capacity {capacity}"
                )),
                _ => Ok(()),
            }
        }
        // `ShardedCache::bounded` treats a capacity of zero as one.
        let capacity = self.options.cache_capacity.map(|c| c.max(1));
        check("program cache", &self.cache, capacity)?;
        check("degraded-plan cache", &self.degraded, capacity)?;
        check("launch memo", &self.launch_memo, capacity)?;
        check("kernel-family table", &self.families, capacity)
    }

    /// Compiles a batch of operators, in parallel across OS threads, and
    /// warms the program cache — ahead-of-time preparation for a known
    /// shape set (model warm-up, serving with a published shape menu).
    /// Returns the programs in input order; duplicates compile once.
    pub fn compile_many(&self, operators: &[Operator]) -> Vec<Arc<CompiledProgram>> {
        // Deduplicate first so each worker thread gets distinct shapes;
        // single flight in the cache makes any residual overlap (a shape
        // another thread is already compiling) coalesce rather than race.
        let mut unique: Vec<Operator> = Vec::new();
        {
            let mut seen = std::collections::HashSet::new();
            for op in operators {
                if seen.insert(*op) {
                    unique.push(*op);
                }
            }
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(16);
        let chunk = unique.len().div_ceil(threads).max(1);
        let compiled: std::collections::HashMap<Operator, Arc<CompiledProgram>> =
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for part in unique.chunks(chunk) {
                    handles.push(scope.spawn(move || {
                        part.iter()
                            .map(|op| (*op, self.compile(op)))
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(pairs) => pairs,
                        // `compile` takes no budget and no faults reach
                        // this path, so a panic here is a logic bug —
                        // resume the unwind rather than mask it.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
        operators
            .iter()
            .map(|op| Arc::clone(&compiled[op]))
            .collect()
    }

    /// Serializes the current program cache as a checksummed binary
    /// bundle in memory — an ahead-of-time bundle for deployments with a
    /// known shape menu (compile once with [`MikPoly::compile_many`],
    /// ship the bytes, [`MikPoly::load_program_cache_bytes`] at startup).
    /// The format is the checksummed record layout of [`crate::persist`];
    /// [`crate::Engine::save_program_caches`] commits it durably.
    /// Snapshots Arc clones shard by shard, so concurrent compiles
    /// proceed during encoding (no cache lock is held).
    pub fn encode_program_cache(&self) -> Vec<u8> {
        let slots = self.cache.snapshot();
        crate::persist::encode_bundle(slots.iter().map(|s| &*s.program))
    }

    /// Loads a bundle made by [`MikPoly::encode_program_cache`] into the
    /// cache, all or nothing: every program must tile its output and use
    /// only kernels in this compiler's library (a bundle from a different
    /// machine or library version fails), and the batch is inserted
    /// through the cache's bulk path, which is what keeps restart-to-warm
    /// fast for large bundles.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] if `bytes` is not a bundle of
    /// the current format, is damaged, or a program fails validation;
    /// nothing is loaded then.
    pub fn load_program_cache_bytes(&self, bytes: &[u8]) -> std::io::Result<usize> {
        let (programs, failure) = self.valid_restored_prefix(crate::persist::decode_bundle(bytes)?);
        match failure {
            Some(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
            None => Ok(self.adopt_restored_programs(programs)),
        }
    }

    /// Checks restored programs in order and cuts them at the first that
    /// fails, returning the valid prefix and that failure. A valid
    /// program's regions tile its output exactly, its view is its
    /// operator's, and its kernels all exist in this compiler's library
    /// (the guard against a bundle from a different machine or library
    /// version). A restored slot is adopted unmarked and served without
    /// further checks, so a bundle whose checksums pass must still not
    /// smuggle in a broken program.
    pub(crate) fn valid_restored_prefix(
        &self,
        mut programs: Vec<CompiledProgram>,
    ) -> (Vec<CompiledProgram>, Option<String>) {
        for (i, p) in programs.iter().enumerate() {
            let reason = if let Err(e) = p.verify_coverage() {
                format!("does not cover its output: {e:?}")
            } else if p.view != p.operator.gemm_view() {
                "carries a view that is not its operator's".to_string()
            } else if let Some(kernel) = p
                .regions
                .iter()
                .map(|r| r.kernel)
                .find(|k| self.library.get(k.id).map(|t| t.kernel) != Some(*k))
            {
                format!("references {kernel} absent from this library")
            } else {
                continue;
            };
            let reason = format!("program for {} {reason}", p.operator);
            programs.truncate(i);
            return (programs, Some(reason));
        }
        (programs, None)
    }

    /// Bulk-inserts programs that passed
    /// [`MikPoly::valid_restored_prefix`] through the cache's
    /// one-republish-per-shard path.
    pub(crate) fn adopt_restored_programs(&self, programs: Vec<CompiledProgram>) -> usize {
        let count = programs.len();
        self.cache.insert_many(
            programs
                .into_iter()
                .map(|p| (p.operator, Arc::new(CachedProgram::new(p, false)))),
        );
        count
    }

    /// One fresh polymerization with the call's fault hooks applied, in
    /// schedule order: injected panic → injected search stall →
    /// deadline-aware search → injected program corruption. The search
    /// runs under the `online.search` span, and its [`SearchStats`] are
    /// recorded into the telemetry registry. `deadline_cut` reports (via
    /// the captured cell — the closure runs inside the cache's single
    /// flight, so a plain return channel is unavailable) whether the
    /// deadline cut the search for *this* computation.
    fn try_compile_uncached(
        &self,
        operator: &Operator,
        budget: CompileBudget<'_>,
        deadline_cut: &Cell<bool>,
    ) -> Result<CachedProgram, MikPolyError> {
        let faults = budget.faults.filter(|f| f.plan.is_active());
        let key = shape_key(operator);
        let attempt = faults.map_or(0, |f| f.next_attempt(key));
        if let Some(plan) = faults.map(FaultInjection::plan) {
            if plan.compile_panics(key, attempt) {
                panic!("injected compile fault for {operator}");
            }
            if let Some(stall_ns) = plan.search_stall(key) {
                self.stall(operator, stall_ns, budget.deadline)?;
            }
        }
        let view = operator.gemm_view();
        let (run, family) = {
            let mut span = span!(
                self.telemetry,
                "online.search",
                m = view.shape.m,
                n = view.shape.n,
                k = view.shape.k,
            );
            let start = Instant::now();
            let family = self.family(&view);
            let deadline = budget.deadline.map(soft_deadline);
            let mut run = self
                .searcher()
                .polymerize(&family, &view, *operator, deadline, None)?;
            run.program.stats.search_ns = start.elapsed().as_nanos();
            if self.telemetry.is_enabled() {
                let stats = &run.program.stats;
                span.arg("strategies_evaluated", stats.strategies_evaluated);
                span.arg("strategies_pruned", stats.strategies_pruned);
                span.arg("patterns_tried", stats.patterns_tried);
                span.arg("escalations", stats.escalations);
                span.arg("deadline_cut", usize::from(run.deadline_cut));
                record_search_stats(stats, self.telemetry.registry());
            }
            (run, family)
        };
        deadline_cut.set(run.deadline_cut);
        let mut program = self.searcher().split_k(&family, run);
        if faults.is_some_and(|f| f.plan.corrupts_program(key, attempt)) {
            // Drop a region so `verify_coverage` fails: the poisoned
            // program is structurally plausible but provably incomplete.
            program.regions.pop();
        }
        Ok(CachedProgram::new(program, faults.is_some()))
    }

    /// Burns out an injected search stall, honoring the deadline: a stall
    /// that cannot finish before the *soft* deadline burns only the time
    /// up to it and reports [`MikPolyError::DeadlineExceeded`] so the
    /// caller can still fall back within the hard deadline.
    fn stall(
        &self,
        operator: &Operator,
        stall_ns: u64,
        deadline: Option<Instant>,
    ) -> Result<(), MikPolyError> {
        let stall = Duration::from_nanos(stall_ns);
        match deadline {
            None => {
                burn_until(Instant::now() + stall);
                Ok(())
            }
            Some(hard) => {
                let soft = soft_deadline(hard);
                let end = Instant::now() + stall;
                if end < soft {
                    burn_until(end);
                    Ok(())
                } else {
                    burn_until(soft);
                    Err(MikPolyError::DeadlineExceeded {
                        operator: *operator,
                    })
                }
            }
        }
    }

    /// The device launch for a compiled program, with static placement
    /// (via the library's performance models and the max-min allocator) on
    /// machines that require it.
    pub fn launch_for(&self, program: &CompiledProgram) -> Launch {
        match self.task_durations(program) {
            None => program.launch_dynamic(),
            Some(durations) => program.launch_static(&self.machine, &durations),
        }
    }

    /// The key of the program's launch: the task grids [`MikPoly::launch_for`]
    /// places, without placing them, and the split-K reduction.
    pub fn launch_key(&self, program: &CompiledProgram) -> LaunchKey {
        let durations = self.task_durations(program);
        // Static placement runs whole-reduction tasks, as `launch_static`.
        let ways = match durations {
            None => program.split_k.max(1),
            Some(_) => 1,
        };
        let grids = program
            .task_grids(ways)
            .enumerate()
            .map(|(i, (spec, count))| GridKey::new(&spec, count, durations.as_ref().map(|d| d[i])))
            .collect();
        LaunchKey {
            grids,
            reduction: program.reduction_grid(),
        }
    }

    /// The predicted duration of one task of each region on machines with
    /// compiler-assigned placement (the max-min allocator's input); `None`
    /// where the hardware places tasks.
    fn task_durations(&self, program: &CompiledProgram) -> Option<Vec<f64>> {
        match self.machine.allocation {
            accel_sim::AllocationPolicy::DynamicHardware => None,
            accel_sim::AllocationPolicy::StaticCompilerAssigned => {
                let k = program.view.shape.k;
                Some(
                    program
                        .regions
                        .iter()
                        .map(|r| self.predict_task_ns(r, k))
                        .collect(),
                )
            }
        }
    }

    fn predict_task_ns(&self, region: &Region, k: usize) -> f64 {
        self.library
            .get(region.kernel.id)
            .map(|t| t.perf.predict(region.instances(k)))
            .unwrap_or_else(|| {
                accel_sim::pipelined_task_ns(
                    &self.machine,
                    &region
                        .kernel
                        .task_spec(&region_view(region), region.instances(k)),
                )
            })
    }

    /// Simulates a compiled program on the target (noise-free evaluation
    /// mode), including the split-K reduction pass when present.
    ///
    /// # Panics
    ///
    /// Panics when the program's launch is malformed; the serving path
    /// goes through [`MikPoly::try_simulate`] instead.
    pub fn simulate(&self, program: &CompiledProgram) -> SimReport {
        self.try_simulate(program).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`MikPoly::simulate`]: a launch the simulator
    /// rejects surfaces as [`MikPolyError::MalformedLaunch`] so a bad
    /// program reaching a serving worker is a disposition, not a crash.
    ///
    /// # Errors
    ///
    /// [`MikPolyError::MalformedLaunch`] carrying the simulator's typed
    /// rejection.
    pub fn try_simulate(&self, program: &CompiledProgram) -> Result<SimReport, MikPolyError> {
        match program.reduction_launch() {
            None => accel_sim::try_simulate(
                &self.machine,
                &self.launch_for(program),
                TimingMode::Evaluate,
            ),
            Some(reduction) => accel_sim::try_simulate_launches(
                &self.machine,
                &[self.launch_for(program), reduction],
                TimingMode::Evaluate,
            ),
        }
        .map_err(|source| MikPolyError::MalformedLaunch { source })
    }

    /// Compiles and simulates an operator in one call, with the
    /// `online.compile` span, the `online.compile_ns` / `cache.wait_ns`
    /// histograms and the `compile.degraded` / `cache.poisoned` counters
    /// recorded. Every call simulates, to return the full [`SimReport`];
    /// the serving path ([`crate::Engine::try_plan_graph`]) reads only the
    /// device time, through the cache slot from the launch memo.
    pub fn run(&self, operator: &Operator) -> OperatorRun {
        let (reply, compile_ns) = self
            .try_compile_timed(operator, CompileBudget::default())
            // With no deadline and no fault plan every failure is the
            // logic bug the infallible contract documents as a panic.
            .unwrap_or_else(|err| panic!("infallible run failed: {err}"));
        OperatorRun {
            report: self.simulate(&reply.program),
            program: reply.program,
            compile_ns,
            outcome: reply.outcome,
            grade: reply.grade,
        }
    }

    /// [`MikPoly::try_compile`] under the `online.compile` span, returning
    /// the reply with the wall-clock it charged as compile time (0 on a
    /// hit) and recording the `online.compile_ns` / `cache.wait_ns`
    /// histograms and the `compile.degraded` / `cache.poisoned` counters.
    pub(crate) fn try_compile_timed(
        &self,
        operator: &Operator,
        budget: CompileBudget<'_>,
    ) -> Result<(CompileReply, u128), MikPolyError> {
        let start = Instant::now();
        let reply = {
            let mut span = span!(self.telemetry, "online.compile", op = operator.to_string());
            let reply = self.try_compile(operator, budget)?;
            span.arg(
                "outcome",
                match reply.outcome {
                    CacheOutcome::Hit => "hit",
                    CacheOutcome::Computed => "computed",
                    CacheOutcome::Waited => "waited",
                },
            );
            if reply.grade == CompileGrade::Degraded {
                span.arg("grade", "degraded");
            }
            reply
        };
        let compile_ns = match reply.outcome {
            CacheOutcome::Hit => 0,
            // Both a fresh polymerization and a coalesced wait spend real
            // wall-clock on the request path.
            CacheOutcome::Computed | CacheOutcome::Waited => start.elapsed().as_nanos(),
        };
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            let clamped = compile_ns.min(u128::from(u64::MAX)) as u64;
            match reply.outcome {
                CacheOutcome::Hit => {}
                CacheOutcome::Computed => registry
                    .histogram("online.compile_ns", Clock::Real)
                    .record(clamped),
                CacheOutcome::Waited => registry
                    .histogram("cache.wait_ns", Clock::Real)
                    .record(clamped),
            }
            if reply.grade == CompileGrade::Degraded {
                registry.counter("compile.degraded").inc();
            }
            if reply.poison_retries > 0 {
                registry
                    .counter("cache.poisoned")
                    .add(u64::from(reply.poison_retries));
            }
        }
        Ok((reply, compile_ns))
    }

    /// Simulated device time of a reply's program, ns: read from its cache
    /// slot, or on the slot's first read from the launch memo's solo
    /// (k = 1) entry. Bit-identical to `self.simulate(&reply.program).time_ns`.
    ///
    /// # Errors
    ///
    /// [`MikPolyError::MalformedLaunch`], as [`MikPoly::try_simulate`]; a
    /// rejected launch is not memoized.
    pub(crate) fn try_device_ns(&self, reply: &CompileReply) -> Result<f64, MikPolyError> {
        if let Some(&ns) = reply.slot.device_ns.get() {
            return Ok(ns);
        }
        let ns = self.try_wave_ns(&reply.program, 1)?;
        Ok(*reply.slot.device_ns.get_or_init(|| ns))
    }

    /// Simulated device time of `k` co-launched copies of the program, ns:
    /// its launch merged k times, then its split-K reduction merged k
    /// times. Read from the launch memo, which simulates each distinct
    /// `(launch, k)` once.
    ///
    /// # Errors
    ///
    /// [`MikPolyError::MalformedLaunch`] when the simulator rejects the
    /// merged launch; a rejected launch is not memoized.
    pub(crate) fn try_wave_ns(
        &self,
        program: &CompiledProgram,
        k: usize,
    ) -> Result<f64, MikPolyError> {
        let simulate = || {
            let copies = |launch: &Launch| repeat_launch(launch, k);
            let mut sequence = vec![copies(&self.launch_for(program))];
            sequence.extend(program.reduction_launch().as_ref().map(copies));
            accel_sim::try_simulate_launches(&self.machine, &sequence, TimingMode::Evaluate)
                .map(|report| report.time_ns)
                .map_err(|source| MikPolyError::MalformedLaunch { source })
        };
        let key = (self.launch_key(program), k);
        Ok(*self.launch_memo.try_get_or_compute(&key, simulate)?.0)
    }

    /// The Oracle of Fig. 12(b): exhaustively simulates every strategy and
    /// returns the truly best program, together with how expensive that
    /// was. `MikPoly-Oracle` "takes about 1.6 seconds to find the best
    /// polymerization solution, whereas MikPoly accomplishes the same task
    /// in just about 2 microseconds".
    pub fn compile_oracle(&self, operator: &Operator) -> OracleResult {
        self.compile_oracle_capped(operator, usize::MAX)
    }

    /// Like [`MikPoly::compile_oracle`], but the enumeration visits at
    /// most `cap` candidate descents — the conformance subsystem's bounded
    /// oracle. Kernels are ranked, so a truncated search still simulates
    /// the plausible candidates first; `truncated` reports whether the cap
    /// cut the space. When telemetry is attached, records the
    /// `oracle.searches` / `oracle.candidates` / `oracle.truncated`
    /// counters.
    pub fn compile_oracle_capped(&self, operator: &Operator, cap: usize) -> OracleResult {
        let start = Instant::now();
        let view = operator.gemm_view();
        let mut candidates = 0usize;
        let mut best: Option<(f64, CompiledProgram)> = None;
        let family = self.family(&view);
        let truncated = self
            .searcher()
            .enumerate(&family, &view, cap, |pattern, regions| {
                candidates += 1;
                let prog = CompiledProgram {
                    operator: *operator,
                    view,
                    pattern,
                    regions: regions.to_vec(),
                    split_k: 1,
                    predicted_ns: f64::NAN,
                    stats: Default::default(),
                };
                let ns = self.simulate(&prog).time_ns;
                if best.as_ref().is_none_or(|(b, _)| ns < *b) {
                    best = Some((ns, prog));
                }
            });
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            registry.counter("oracle.searches").inc();
            registry.counter("oracle.candidates").add(candidates as u64);
            if truncated {
                registry.counter("oracle.truncated").inc();
            }
        }
        let Some((ns, mut program)) = best else {
            // A cap of at least one admits pattern I's first strategy.
            unreachable!("enumeration visits at least one strategy");
        };
        program.predicted_ns = ns;
        OracleResult {
            program,
            candidates,
            truncated,
            search: start.elapsed(),
        }
    }
}

/// Runs the online polymerization search once, outside any compiler:
/// builds the view's kernel family (the library's per-kernel inputs for
/// its K, dtype and load scale) for this one call and runs the same
/// branch-and-bound a [`MikPoly`] configured with `patterns`, `kind`,
/// `prune` and `policy` runs over its family table. `search_ns` includes
/// the family build. With a deadline the search checks the clock every
/// few dozen descents and, on expiry, returns the incumbent flagged
/// [`SearchRun::deadline_cut`]. No split-K post-pass runs.
///
/// # Errors
///
/// * [`MikPolyError::DeadlineExceeded`] — the deadline fired before any
///   complete strategy was costed (no incumbent to return);
/// * [`MikPolyError::NoFeasibleStrategy`] — the library holds no kernel
///   usable for this view (which cannot happen for libraries produced by
///   [`MicroKernelLibrary::generate`] on the same machine).
// The positional signature predates `MikPoly`'s search front door and is
// kept for callers outside this workspace.
#[allow(clippy::too_many_arguments)]
pub fn try_polymerize(
    machine: &MachineModel,
    library: &MicroKernelLibrary,
    view: &tensor_ir::GemmView,
    operator: Operator,
    patterns: &[Pattern],
    kind: CostModelKind,
    prune: bool,
    policy: &SearchPolicy,
    deadline: Option<Instant>,
) -> Result<SearchRun, MikPolyError> {
    let start = Instant::now();
    let options = OnlineOptions {
        cost_model: kind,
        prune,
        search: *policy,
        ..OnlineOptions::default()
    };
    let searcher = Searcher {
        machine,
        library,
        options: &options,
        patterns,
    };
    let family = KernelFamily::new(machine, library, view);
    let mut run = searcher.polymerize(&family, view, operator, deadline, None)?;
    run.program.stats.search_ns = start.elapsed().as_nanos();
    Ok(run)
}

/// How far before its end a stall stops sleeping and starts yielding.
/// An OS sleep can overshoot by milliseconds on a loaded host; yielding
/// the last stretch ends the stall on time.
const STALL_YIELD_MARGIN: Duration = Duration::from_millis(4);

/// Holds the calling thread until `end`: one coarse sleep to
/// [`STALL_YIELD_MARGIN`] before it, then yields until it. A stalled
/// search occupies its core, so the stall does too.
fn burn_until(end: Instant) {
    let coarse = end
        .saturating_duration_since(Instant::now())
        .saturating_sub(STALL_YIELD_MARGIN);
    if !coarse.is_zero() {
        std::thread::sleep(coarse);
    }
    while Instant::now() < end {
        std::thread::yield_now();
    }
}

/// The search's soft deadline: 80% of the time remaining to the hard
/// deadline, reserving the tail for the degraded fallback so the hard
/// deadline holds even when the search uses its whole allowance.
fn soft_deadline(hard: Instant) -> Instant {
    let now = Instant::now();
    match hard.checked_duration_since(now) {
        Some(remaining) => now + remaining.mul_f64(0.8),
        // Already past: the search gets no time at all.
        None => hard,
    }
}

/// Accumulates one shape's [`SearchStats`] into the registry's
/// search-efficiency counters (`search.shapes`, `search.strategies_*`,
/// `search.patterns_tried`, and the stage counters
/// `search.budget_exhausted` / `search.shortlist_truncated` /
/// `search.escalations` / `search.refined`) and the real-clock
/// `online.search_ns` histogram — the numbers the `fig*` / `abl_search`
/// experiments report, and what lets a gap report attribute slack to
/// pruning vs. library coverage directly.
fn record_search_stats(stats: &SearchStats, registry: &Registry) {
    registry.counter("search.shapes").inc();
    registry
        .counter("search.strategies_evaluated")
        .add(stats.strategies_evaluated as u64);
    registry
        .counter("search.strategies_pruned")
        .add(stats.strategies_pruned as u64);
    registry
        .counter("search.patterns_tried")
        .add(stats.patterns_tried as u64);
    registry
        .counter("search.budget_exhausted")
        .add(stats.budget_exhausted as u64);
    registry
        .counter("search.shortlist_truncated")
        .add(stats.shortlist_truncated as u64);
    registry
        .counter("search.escalations")
        .add(stats.escalations as u64);
    if stats.refined {
        registry.counter("search.refined").inc();
    }
    registry
        .histogram("online.search_ns", Clock::Real)
        .record(stats.search_ns.min(u128::from(u64::MAX)) as u64);
}

fn region_view(region: &Region) -> tensor_ir::GemmView {
    tensor_ir::GemmView {
        shape: tensor_ir::GemmShape::new(region.rows().max(1), region.cols().max(1), 1),
        dtype: tensor_ir::DType::F16,
        load_scale: 1.0,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use tensor_ir::GemmShape;

    fn compiler() -> MikPoly {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        MikPoly::offline(MachineModel::a100(), &o)
    }

    #[test]
    fn run_produces_time_and_coverage() {
        let c = compiler();
        let run = c.run(&Operator::gemm(GemmShape::new(4096, 1024, 4096)));
        assert!(run.report.time_ns > 0.0);
        assert!(run.program.verify_coverage().is_ok());
        assert!(run.total_ns() >= run.report.time_ns);
    }

    #[test]
    fn cache_hits_skip_compilation() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(777, 512, 256));
        let first = c.run(&op);
        let second = c.run(&op);
        assert!(first.compile_ns > 0);
        assert_eq!(second.compile_ns, 0);
        assert!(Arc::ptr_eq(&first.program, &second.program));
    }

    #[test]
    fn concurrent_compiles_coalesce_to_one_polymerization() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(640, 320, 160));
        let programs: Vec<Arc<CompiledProgram>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| c.compile(&op))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &programs[1..] {
            assert!(Arc::ptr_eq(&programs[0], p));
        }
        let stats = c.cache_stats();
        assert_eq!(stats.computations, 1, "stampede: {stats:?}");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced_waits, 7);
    }

    /// The device-time memo of `op`'s resident slot, read from a snapshot
    /// (a lookup would count as a hit and reorder eviction).
    fn memo(c: &MikPoly, op: &Operator) -> Option<Option<f64>> {
        c.cache
            .snapshot()
            .iter()
            .find(|s| s.program.operator == *op)
            .map(|s| s.device_ns.get().copied())
    }

    #[test]
    fn device_time_memo_fills_on_first_read_and_dies_with_its_slot() {
        let c = compiler().with_options(OnlineOptions {
            cache_capacity: Some(1),
            ..OnlineOptions::default()
        });
        let a = Operator::gemm(GemmShape::new(777, 512, 256));
        let b = Operator::gemm(GemmShape::new(300, 300, 300));
        let (reply, compile_ns) = c.try_compile_timed(&a, CompileBudget::default()).unwrap();
        assert!(compile_ns > 0);
        assert_eq!(memo(&c, &a), Some(None), "the fill does not simulate");
        let ns = c.try_device_ns(&reply).unwrap();
        assert_eq!(ns.to_bits(), c.simulate(&reply.program).time_ns.to_bits());
        assert_eq!(memo(&c, &a), Some(Some(ns)));
        // Eviction drops the memo with the slot; the refill starts empty.
        c.try_compile(&b, CompileBudget::default()).unwrap();
        assert_eq!(memo(&c, &a), None, "a was evicted");
        let refill = c.try_compile(&a, CompileBudget::default()).unwrap();
        assert_eq!(refill.outcome, CacheOutcome::Computed);
        assert_eq!(memo(&c, &a), Some(None));
        // A restored program simulates on its first hit.
        let restored = MikPoly::with_library(c.machine().clone(), c.library().clone());
        restored
            .load_program_cache_bytes(&c.encode_program_cache())
            .unwrap();
        assert_eq!(memo(&restored, &a), Some(None), "memos are not persisted");
        // A cache reset drops every memo.
        assert_eq!(c.try_device_ns(&refill).unwrap().to_bits(), ns.to_bits());
        let c = c.with_options(OnlineOptions::default());
        assert_eq!(memo(&c, &a), None);
    }

    #[test]
    fn rejected_launches_are_never_memoized() {
        let c = compiler();
        let mut program = (*c.compile(&Operator::gemm(GemmShape::new(300, 300, 300)))).clone();
        program.regions[0].kernel.warps = c.machine().warp_cap_per_pe + 1;
        let slot = Arc::new(CachedProgram::new(program, false));
        let reply = CompileReply::new(slot, CacheOutcome::Computed, CompileGrade::Full, 0);
        for _ in 0..2 {
            assert!(matches!(
                c.try_device_ns(&reply),
                Err(MikPolyError::MalformedLaunch { .. })
            ));
        }
        assert!(reply.slot.device_ns.get().is_none());
        let memo = c.launch_memo_stats();
        assert_eq!((memo.misses, memo.computations, memo.entries), (2, 0, 0));
    }

    #[test]
    fn disabling_cache_recompiles() {
        let c = compiler().with_options(OnlineOptions {
            cache: false,
            ..OnlineOptions::default()
        });
        let op = Operator::gemm(GemmShape::new(300, 300, 300));
        let a = c.run(&op);
        let b = c.run(&op);
        assert!(a.compile_ns > 0 && b.compile_ns > 0);
    }

    #[test]
    fn oracle_never_worse_than_cost_model_choice() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(1090, 512, 512));
        let model_run = c.run(&op);
        let oracle = c.compile_oracle(&op);
        assert!(oracle.candidates >= 1);
        let oracle_ns = c.simulate(&oracle.program).time_ns;
        assert!(oracle_ns <= model_run.report.time_ns + 1e-6);
    }

    #[test]
    fn npu_compiler_uses_static_placement() {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let c = MikPoly::offline(MachineModel::ascend910a(), &o);
        let run = c.run(&Operator::gemm(GemmShape::new(2048, 1024, 512)));
        assert!(run.report.time_ns > 0.0);
        // All nine patterns are in play on the NPU.
        assert_eq!(run.program.stats.patterns_tried, 9);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod fault_tests {
    use super::*;
    use tensor_ir::GemmShape;

    fn compiler() -> MikPoly {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        MikPoly::offline(MachineModel::a100(), &o)
    }

    #[test]
    fn degrade_only_budget_takes_the_fallback_path() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(1024, 512, 256));
        let reply = c
            .try_compile(
                &op,
                CompileBudget {
                    degrade_only: true,
                    ..CompileBudget::default()
                },
            )
            .expect("degraded path cannot fail on a generated library");
        assert_eq!(reply.grade, CompileGrade::Degraded);
        assert!(reply.program.stats.degraded);
        assert_eq!(reply.program.regions.len(), 1);
        reply.program.verify_coverage().expect("coverage");
        // The degraded cache is separate: a later full compile still
        // searches and the full program shadows nothing.
        let full = c
            .try_compile(&op, CompileBudget::default())
            .expect("full path");
        assert_eq!(full.grade, CompileGrade::Full);
        assert!(!full.program.stats.degraded);
        // And the degraded plan is now a hit in its own cache.
        let again = c
            .try_compile(
                &op,
                CompileBudget {
                    degrade_only: true,
                    ..CompileBudget::default()
                },
            )
            .expect("degraded path");
        assert_eq!(again.outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&again.program, &reply.program));
    }

    /// The degraded-plan cache shares the program cache's bound, and the
    /// compiler's invariant check holds every table to it.
    #[test]
    fn degraded_plans_stay_within_the_cache_capacity() {
        let c = compiler().with_options(OnlineOptions {
            cache_capacity: Some(2),
            ..OnlineOptions::default()
        });
        let degrade_only = CompileBudget {
            degrade_only: true,
            ..CompileBudget::default()
        };
        for i in 1..=16 {
            let op = Operator::gemm(GemmShape::new(64 * i, 256, 128 * (i % 3 + 1)));
            let reply = c.try_compile(&op, degrade_only).expect("degraded path");
            assert_eq!(reply.outcome, CacheOutcome::Computed, "{op}");
            assert!(reply.program.stats.degraded);
            c.check_invariants().expect("every table within the bound");
        }
        assert!(c.degraded.stats().evictions > 0);
    }

    /// A fault context for `plan`.
    fn faults(plan: FaultPlan) -> FaultInjection {
        FaultInjection::new(Arc::new(plan))
    }

    /// A deadline-free budget under `faults`.
    fn under(faults: &FaultInjection) -> CompileBudget<'_> {
        CompileBudget {
            faults: Some(faults),
            ..CompileBudget::default()
        }
    }

    #[test]
    fn injected_compile_panic_fires_then_clears() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(640, 320, 160));
        let faults = faults(FaultPlan {
            compile_panic_rate: 1.0,
            panic_attempts: 1,
            ..FaultPlan::none()
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.try_compile(&op, under(&faults))
        }));
        assert!(caught.is_err(), "attempt 0 must panic");
        // Attempt 1: the transient fault has cleared and (crucially) the
        // panicked flight did not wedge the cache.
        let reply = c
            .try_compile(&op, under(&faults))
            .expect("attempt 1 compiles");
        assert_eq!(reply.grade, CompileGrade::Full);
        reply.program.verify_coverage().expect("coverage");
    }

    #[test]
    fn corrupted_cache_entry_is_evicted_and_recompiled() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(777, 512, 256));
        let faults = faults(FaultPlan {
            cache_corrupt_rate: 1.0,
            ..FaultPlan::none()
        });
        let reply = c
            .try_compile(&op, under(&faults))
            .expect("poison retry must recover");
        assert!(reply.poison_retries > 0, "attempt 0 was corrupted");
        reply.program.verify_coverage().expect("recompile is clean");
        assert!(c.cache_stats().invalidations > 0);
        // A clean call hits the recompiled entry: it validates (the slot
        // was filled under a plan) and finds nothing to evict.
        let hit = c.try_compile(&op, CompileBudget::default()).expect("hit");
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(hit.poison_retries, 0);
    }

    /// Poison does not cross calls: a clean call that coalesces onto a
    /// faulty call's in-flight fill validates what it receives, evicts
    /// the corrupted program and compiles its own.
    #[test]
    fn clean_call_waiting_on_a_faulty_fill_never_gets_its_poison() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(777, 512, 256));
        let faulty = faults(FaultPlan {
            cache_corrupt_rate: 1.0,
            search_stall_rate: 1.0,
            search_stall_ns: 300_000_000,
            ..FaultPlan::none()
        });
        let clean = std::thread::scope(|scope| {
            let leader = scope.spawn(|| c.try_compile(&op, under(&faulty)));
            // The stall holds the faulty flight open: it is in flight
            // from the miss until its (corrupted) commit.
            while c.cache_stats().in_flight() == 0 {
                std::thread::yield_now();
            }
            let clean = c.try_compile(&op, CompileBudget::default());
            leader.join().unwrap().expect("the faulty call recovers");
            clean
        })
        .expect("the clean call recovers");
        // The clean lookup coalesced onto the faulty flight and received
        // its corrupted program; it then evicted the program, and its own
        // retry either refilled the slot or waited on the faulty call's
        // clean refill.
        assert!(c.cache_stats().coalesced_waits > 0);
        assert_ne!(clean.outcome, CacheOutcome::Hit);
        assert_eq!(clean.poison_retries, 1, "{clean:?}");
        clean.program.verify_coverage().expect("no poison served");
        assert!(c.cache_stats().invalidations > 0);
    }

    #[test]
    fn search_stall_degrades_within_the_deadline() {
        let c = compiler();
        let op = Operator::gemm(GemmShape::new(1111, 999, 512));
        // A 50 ms stall against a 5 ms budget: the full path cannot finish,
        // so the compile must degrade — and stay within the hard deadline.
        let faults = faults(FaultPlan {
            search_stall_rate: 1.0,
            search_stall_ns: 50_000_000,
            ..FaultPlan::none()
        });
        let budget = Duration::from_millis(5);
        let start = Instant::now();
        let reply = c
            .try_compile(
                &op,
                CompileBudget {
                    faults: Some(&faults),
                    ..CompileBudget::within(budget)
                },
            )
            .expect("must degrade, not fail");
        let elapsed = start.elapsed();
        assert_eq!(reply.grade, CompileGrade::Degraded);
        assert!(reply.program.stats.degraded, "fallback plan expected");
        reply.program.verify_coverage().expect("coverage");
        assert!(
            elapsed < budget + Duration::from_millis(20),
            "compile took {elapsed:?} against a {budget:?} budget"
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod aot_bundle_tests {
    use super::*;
    use tensor_ir::GemmShape;

    #[test]
    fn bundle_round_trips_and_restores_cache_hits() {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let machine = MachineModel::a100();
        let a = MikPoly::offline(machine.clone(), &o);
        let ops: Vec<Operator> = [(64, 64, 64), (1000, 300, 200)]
            .into_iter()
            .map(|(m, n, k)| Operator::gemm(GemmShape::new(m, n, k)))
            .collect();
        a.compile_many(&ops);
        let bundle = a.encode_program_cache();

        let b = MikPoly::with_library(machine, a.library().clone());
        assert_eq!(b.load_program_cache_bytes(&bundle).expect("load"), 2);
        for op in &ops {
            let run = b.run(op);
            assert_eq!(run.compile_ns, 0, "bundle must pre-warm the cache");
            assert_eq!(run.program.regions, a.compile(op).regions);
        }
    }

    #[test]
    fn unrecognized_bundle_format_is_rejected() {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let a = MikPoly::offline(MachineModel::a100(), &o);
        // Garbage, and a JSON array shaped like the retired JSON bundles.
        for bytes in [&b"not a bundle at all"[..], b"[{\"operator\": 1}]"] {
            let err = a.load_program_cache_bytes(bytes).expect_err("must reject");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        assert_eq!(a.cache_stats().entries, 0);
    }

    #[test]
    fn bundle_from_foreign_library_is_rejected() {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let a = MikPoly::offline(MachineModel::a100(), &o);
        let op = Operator::gemm(GemmShape::new(128, 128, 128));
        let _ = a.compile(&op);
        let bundle = a.encode_program_cache();

        // A different machine's library has different tuned kernels (NPU
        // kernels are single-warp), so the bundle must be rejected.
        let mut other_options = OfflineOptions::fast();
        other_options.n_gen = 4;
        let b = MikPoly::offline(MachineModel::ascend910a(), &other_options);
        let err = b
            .load_program_cache_bytes(&bundle)
            .expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod compile_many_tests {
    use super::*;
    use tensor_ir::GemmShape;

    #[test]
    fn batch_compilation_matches_sequential() {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        let c = MikPoly::offline(MachineModel::a100(), &o);
        let ops: Vec<Operator> = [
            (100, 200, 50),
            (4096, 1024, 4096),
            (100, 200, 50),
            (7, 9, 11),
        ]
        .into_iter()
        .map(|(m, n, k)| Operator::gemm(GemmShape::new(m, n, k)))
        .collect();
        let batch = c.compile_many(&ops);
        assert_eq!(batch.len(), ops.len());
        // Duplicates share a program through the cache.
        assert!(Arc::ptr_eq(&batch[0], &batch[2]));
        // Results equal what sequential compilation would have produced.
        let fresh = MikPoly::with_library(c.machine().clone(), c.library().clone());
        for (op, program) in ops.iter().zip(&batch) {
            let seq = fresh.compile(op);
            assert_eq!(program.regions, seq.regions);
            assert_eq!(program.pattern, seq.pattern);
        }
        // Every shape is now a cache hit.
        for op in &ops {
            assert_eq!(c.run(op).compile_ns, 0);
        }
    }
}
