//! The serving runtime: one two-phase dispatcher whose device placement
//! is a policy.
//!
//! Every [`ServingRuntime::serve`] call runs in two phases:
//!
//! * **Phase A: parallel compile.** The worker threads pull requests in
//!   arrival order from a shared cursor, and admission is decided exactly
//!   once, here: a request that arrived past the drain point, or whose
//!   deadline passed before it arrived, is shed uncompiled. Every other
//!   request goes through `ServingRuntime::compile_request`: breaker
//!   check, panic-isolated budgeted compile, degraded fallback, and the
//!   deterministic device-fault retry schedule. Under the solo policy the
//!   cursor runs at most one request per worker past the oldest
//!   unfinished one, since a solo worker holds its request to the end;
//!   the set of compiles in flight together, and so which lookups
//!   coalesce on one fill, follows from that.
//! * **Phase B: single-threaded replay.** The virtual timeline is
//!   computed in arrival order: the deadline/tenant/queue shed and worker
//!   placement, then device placement under the policy
//!   [`ServingOptions::batching`] selects.
//!   * **Solo** (`None`, the default): the worker holds the request
//!     through device execution, which starts on the earliest-free device
//!     once the compile is done and lasts the request's own simulated
//!     time.
//!   * **Batched**: the worker is released at compile-done; ready
//!     requests enter shape buckets ([`super::batching`]) and flushed
//!     buckets are packed into co-launch waves ([`super::colaunch`]) that
//!     share one device launch. A wave of k members costs each operator's
//!     time for k merged copies of its launch, read from the compiler's
//!     launch memo, which simulates each `(launch, k)` once across serve
//!     calls.
//!
//! Real compile work overlaps across OS threads, but one thread replays
//! the timeline, so it never depends on OS scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accel_sim::{Cluster, FaultPlan};
use mikpoly_telemetry::{Clock, ClockNs, Telemetry};
use parking_lot::{Condvar, Mutex};

use super::admission::{FairMeter, TenantPolicy, WaitQueue};
use super::batching::{form_batches, BatchingOptions, ReadyEvent};
use super::colaunch::{plan_waves, warp_capacity};
use super::lifecycle::{drained_count, DrainReport, Lifecycle};
use super::report::{
    describe_serving_metrics, emit_request_telemetry, EmitContext, ServingReport, WorkerStats,
};
use super::request::{
    request_shape_key, shed_record, Disposition, Request, RequestRecord, ShedReason, NO_SLOT,
};
use crate::compiler::{CompileBudget, FaultInjection};
use crate::engine::{Engine, ServedPlan};
use crate::resilience::{BreakerDecision, BreakerPolicy, CircuitBreaker, RetryPolicy};

/// Fault-tolerance and dispatch policy for one [`ServingRuntime`]. The
/// default is the fault-free solo fast path: no deadlines enforced beyond
/// the requests' own, unbounded queue, no breaker, no injected faults,
/// no batching, no tenant quotas.
#[derive(Debug, Clone, Default)]
pub struct ServingOptions {
    /// Bound on requests admitted but waiting for a worker; `None` is
    /// unbounded. A request that would wait behind a full queue is shed.
    pub queue_capacity: Option<usize>,
    /// Per-request real-time compile budget. The staged search degrades
    /// to its incumbent (and then to the search-free fallback) rather
    /// than overrun it.
    pub compile_budget: Option<Duration>,
    /// Retry schedule for transient device faults.
    pub retry: RetryPolicy,
    /// Per-shape circuit breaker for persistent compile failures.
    pub breaker: Option<BreakerPolicy>,
    /// Deterministic fault-injection plan. Each [`ServingRuntime::serve`]
    /// call replays it from attempt zero in a [`FaultInjection`] context
    /// of its own, which travels with that call's compiles only. Serve
    /// calls on one engine may overlap, each with its own plan: a program
    /// a faulty call puts into the shared cache is marked, and every
    /// reader validates marked programs, so no call is served another
    /// call's corrupted program.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Continuous batching + co-launch. `None` (default) selects the
    /// solo policy.
    pub batching: Option<BatchingOptions>,
    /// Per-tenant quotas and fair-share weights. `None` (default) treats
    /// the stream as single-tenant.
    pub tenancy: Option<TenantPolicy>,
}

/// What phase A's compile produced for one admitted request.
struct CompileOutcome {
    /// The compiled forward pass; `None` when both the full path and the
    /// degraded fallback failed.
    plan: Option<ServedPlan>,
    /// Real wall-clock of the compile phase, ns: the graph's own
    /// measurement, plus the failed attempt's window when the fallback
    /// ran. Device simulation is never charged here; when both attempts
    /// failed, the whole window is.
    compile_ns: u128,
    /// Device-fault retries the request will pay for.
    retries: u32,
    /// All retries faulted too: the request fails after occupying the
    /// device for every attempt.
    device_failed: bool,
    /// Total virtual device time across attempts and backoffs, ns.
    total_device_ns: f64,
    /// Breaker transition this compile triggered or rode, if any.
    breaker_event: Option<&'static str>,
}

/// An admitted, compiled request placed on a worker, awaiting its device
/// in phase B.
struct Pending<'a> {
    request: &'a Request,
    worker: usize,
    start_ns: f64,
    ready_ns: f64,
    compile: ClockNs,
    plan: ServedPlan,
    retries: u32,
    device_failed: bool,
    /// Virtual device time across every attempt and backoff, ns.
    total_device_ns: f64,
    breaker_event: Option<&'static str>,
}

/// Phase B's output: every request's record, filed together with its
/// telemetry.
struct Records<'a> {
    telemetry: &'a Telemetry,
    /// Interconnect dispatch latency in force, ns.
    dispatch_ns: f64,
    tenancy: bool,
    batched: bool,
    records: Vec<RequestRecord>,
}

impl Records<'_> {
    /// Files `record` and emits its telemetry: `start` is the request's
    /// service-start instant, `exec` its `(ready, device_start)` times
    /// when a device ran it.
    fn file(
        &mut self,
        request: &Request,
        record: RequestRecord,
        start: f64,
        exec: Option<(f64, f64)>,
    ) {
        if self.telemetry.is_enabled() {
            emit_request_telemetry(
                self.telemetry,
                request,
                &record,
                &EmitContext {
                    start,
                    exec,
                    dispatch_ns: self.dispatch_ns,
                    tenancy: self.tenancy,
                    batched: self.batched,
                },
            );
        }
        self.records.push(record);
    }

    /// Files the record of `p` once it ran on `device` from
    /// `device_start` (dispatch latency included) for `device_ns`, plus
    /// `extra_ns` of device time charged to it alone, in a wave of
    /// `batch_size`. Returns its finish time.
    fn executed(
        &mut self,
        p: &Pending<'_>,
        device: usize,
        device_start: f64,
        device_ns: f64,
        extra_ns: f64,
        batch_size: usize,
    ) -> f64 {
        let disposition = if p.device_failed {
            Disposition::Failed
        } else if p.plan.run.degraded > 0 {
            Disposition::Degraded
        } else {
            Disposition::Completed
        };
        let finish_ns = device_start + device_ns + extra_ns;
        let record = RequestRecord {
            id: p.request.id,
            tenant: p.request.tenant,
            worker: p.worker,
            device,
            queue_ns: (p.start_ns - p.request.arrival_ns)
                + (device_start - self.dispatch_ns - p.ready_ns),
            compile: p.compile,
            search_ns: p.plan.run.search_ns,
            cache_wait_ns: p.plan.run.cache_wait_ns,
            device_ns: device_ns + self.dispatch_ns + extra_ns,
            finish_ns,
            disposition,
            shed_reason: None,
            retries: p.retries,
            deadline_ns: p.request.deadline_ns,
            breaker_event: p.breaker_event,
            batch_size,
        };
        self.file(
            p.request,
            record,
            p.start_ns,
            Some((p.ready_ns, device_start)),
        );
        finish_ns
    }

    /// Files a request shed by admission control.
    fn shed(&mut self, request: &Request, reason: ShedReason) {
        self.file(
            request,
            shed_record(request, reason),
            request.arrival_ns,
            None,
        );
    }
}

/// A multi-worker request executor over a shared engine and a simulated
/// device pool.
pub struct ServingRuntime {
    engine: Arc<Engine>,
    cluster: Cluster,
    workers: usize,
    telemetry: Arc<Telemetry>,
    options: ServingOptions,
    breaker: Option<CircuitBreaker>,
    lifecycle: Arc<Lifecycle>,
}

impl ServingRuntime {
    /// Creates a runtime with `workers` threads over `cluster`'s devices.
    /// Telemetry defaults to the engine's handle (so an engine built with
    /// [`Engine::offline_with_telemetry`] gets serving spans for free).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the cluster's device model differs
    /// from the engine's machine (programs would be timed on the wrong
    /// accelerator).
    pub fn new(engine: Arc<Engine>, cluster: Cluster, workers: usize) -> Self {
        assert!(workers > 0, "serving needs at least one worker");
        assert_eq!(
            cluster.machine.name,
            engine.machine().name,
            "device pool and engine must model the same machine"
        );
        let telemetry = Arc::clone(engine.telemetry());
        Self {
            engine,
            cluster,
            workers,
            telemetry,
            options: ServingOptions::default(),
            breaker: None,
            lifecycle: Arc::new(Lifecycle::new()),
        }
    }

    /// Replaces the telemetry handle (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the fault-tolerance and dispatch policy (builder style).
    /// Creates the per-shape circuit breaker when the options ask for
    /// one.
    #[must_use]
    pub fn with_options(mut self, options: ServingOptions) -> Self {
        self.breaker = options.breaker.map(CircuitBreaker::new);
        self.options = options;
        self
    }

    /// The telemetry handle serving spans and metrics are recorded into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fault-tolerance policy in force.
    pub fn options(&self) -> &ServingOptions {
        &self.options
    }

    /// The per-shape circuit breaker, when enabled.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// The drain handle. Clone it out to trigger a graceful shutdown
    /// from another thread ([`Lifecycle::request_drain`]) or pin a
    /// deterministic virtual drain point before serving
    /// ([`Lifecycle::request_drain_at`]); requests arriving past the
    /// drain point are shed as [`ShedReason::Draining`].
    pub fn lifecycle(&self) -> &Arc<Lifecycle> {
        &self.lifecycle
    }

    /// Finalizes a graceful drain after [`ServingRuntime::serve`]
    /// returns: closes admission for good, persists the warm program
    /// caches into `snapshot_dir` (atomic generation commit) when one is
    /// given, and accounts for the run — every admitted request's
    /// disposition, the draining sheds, and the retained
    /// flight-recorder chains. A persist failure is reported in the
    /// [`DrainReport`], never panicked on: dispositions are not held
    /// hostage by disk.
    pub fn drain(
        &self,
        report: &ServingReport,
        snapshot_dir: Option<&std::path::Path>,
    ) -> DrainReport {
        self.lifecycle.request_drain();
        let dispositions = report.dispositions();
        let drained = drained_count(&report.records);
        let (persisted_generation, persist_error) = match snapshot_dir {
            Some(dir) => match self.engine.save_program_caches(dir) {
                Ok(generation) => (Some(generation), None),
                Err(e) => (None, Some(e.to_string())),
            },
            None => (None, None),
        };
        let chains_retained = self.telemetry.recorder().retained();
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            registry.describe(
                "serving.drain.drained",
                "Requests shed because admission was closed by a graceful drain",
            );
            registry.describe(
                "serving.drain.generation",
                "Warm-state generation committed by the drain's final persist",
            );
            registry
                .counter("serving.drain.drained")
                .add(drained as u64);
            if let Some(generation) = persisted_generation {
                registry
                    .gauge("serving.drain.generation")
                    .set(generation as f64);
            }
        }
        DrainReport {
            drained,
            dispositions,
            chains_retained,
            persisted_generation,
            persist_error,
        }
    }

    /// Whether a tenant policy is configured (gates per-tenant metrics).
    fn tenancy(&self) -> bool {
        self.options.tenancy.is_some()
    }

    /// The tenant's waiting-slot bound under the configured policy.
    fn tenant_waiting_cap(&self, request: &Request) -> Option<usize> {
        self.options
            .tenancy
            .as_ref()
            .and_then(|p| p.max_waiting_for(request.tenant))
    }

    /// The parallel compile phase for one admitted request under the serve
    /// call's fault context: breaker check, panic-isolated full compile
    /// under the budget, degraded fallback, and the deterministic
    /// device-fault retry schedule.
    fn compile_request(
        &self,
        request: &Request,
        faults: Option<&FaultInjection>,
    ) -> CompileOutcome {
        let key = request_shape_key(request);
        let breaker = self.breaker.as_ref();
        let decision = breaker.map_or(BreakerDecision::Allow, |b| b.check(key, request.arrival_ns));
        let degrade_only = decision == BreakerDecision::Degrade;
        let compile_start = Instant::now();
        let budget = CompileBudget {
            deadline: self
                .options
                .compile_budget
                .map(|limit| compile_start + limit),
            degrade_only,
            faults,
        };
        let run = |budget: CompileBudget| {
            catch_unwind(AssertUnwindSafe(|| {
                self.engine
                    .plan_graph(request.ops.iter().map(|(op, count)| (op, *count)), budget)
            }))
        };
        // Breaker transitions are recorded onto the request's chain: a
        // `Degrade` decision short-circuits, a tripping failure opens,
        // and a successful half-open probe closes.
        let mut breaker_event = degrade_only.then_some("short-circuit");
        // On the fallback path, `failed_ns` is the failed attempt's window.
        let (plan, failed_ns) = match run(budget) {
            Ok(Ok(plan)) => {
                if !degrade_only {
                    if let Some(b) = breaker {
                        if b.record_success(key) {
                            breaker_event = Some("closed");
                        }
                    }
                }
                (Some(plan), None)
            }
            // Typed failure or panic: both feed the breaker and fall
            // through to the search-free fallback, itself panic-isolated
            // so a poisoned shape cannot kill the worker.
            Ok(Err(_)) | Err(_) => {
                let failed_ns = compile_start.elapsed().as_nanos();
                if !degrade_only {
                    if let Some(b) = breaker {
                        if b.record_failure(key, request.arrival_ns) {
                            breaker_event = Some("opened");
                        }
                    }
                }
                let fallback = CompileBudget {
                    deadline: None,
                    degrade_only: true,
                    faults,
                };
                match run(fallback) {
                    Ok(Ok(plan)) => (Some(plan), Some(failed_ns)),
                    Ok(Err(_)) | Err(_) => (None, Some(failed_ns)),
                }
            }
        };
        // Only compile work is charged: a plan's own `compile_ns` excludes
        // the host time of its device simulations.
        let compile_ns = match &plan {
            Some(plan) => failed_ns.unwrap_or(0) + plan.run.compile_ns,
            None => compile_start.elapsed().as_nanos(),
        };
        // Device faults are a pure function of (plan, request id, attempt),
        // so the whole retry schedule — and its virtual cost — is known
        // before phase B places the request.
        let mut retries = 0u32;
        let mut device_failed = false;
        let mut total_device_ns = plan.as_ref().map_or(0.0, |p| p.run.device_ns);
        if let (Some(plan), Some(fault_plan)) = (&plan, faults.map(FaultInjection::plan)) {
            let retry = self.options.retry;
            let mut attempt = 0u32;
            while fault_plan.device_fault(request.id as u64, attempt) {
                if attempt >= retry.max_retries {
                    device_failed = true;
                    break;
                }
                total_device_ns += retry.backoff_for(attempt) + plan.run.device_ns;
                retries += 1;
                attempt += 1;
            }
        }
        CompileOutcome {
            plan,
            compile_ns,
            retries,
            device_failed,
            total_device_ns,
            breaker_event,
        }
    }

    /// Serves `requests` (any order; they are dispatched by arrival time)
    /// to completion and reports per-request latency decompositions plus
    /// worker and cache counters. Every request terminates with exactly
    /// one [`Disposition`]. [`ServingOptions::batching`] selects the
    /// device-placement policy (see the module docs).
    pub fn serve(&self, requests: &[Request]) -> ServingReport {
        let faults = self
            .options
            .fault_plan
            .as_ref()
            .map(|plan| FaultInjection::new(Arc::clone(plan)));
        let batching = self.options.batching;
        let mut ordered: Vec<&Request> = requests.iter().collect();
        ordered.sort_by(|a, b| f64::total_cmp(&a.arrival_ns, &b.arrival_ns));
        let admissions = self.compile_phase(&ordered, batching.is_some(), faults.as_ref());

        // Phase B: admission at dispatch and worker placement in arrival
        // order, against virtual free times per worker slot and per
        // device. Slots are virtual-time identities, decoupled from the
        // OS threads that did the real compile work.
        let mut records = Records {
            telemetry: &self.telemetry,
            // Dispatch over the interconnect only when the pool is remote.
            dispatch_ns: if self.cluster.devices > 1 {
                self.cluster.interconnect.latency_ns
            } else {
                0.0
            },
            tenancy: self.tenancy(),
            batched: batching.is_some(),
            records: Vec::with_capacity(ordered.len()),
        };
        let mut worker_pool = vec![0.0f64; self.workers];
        let mut device_pool = vec![0.0f64; self.cluster.devices];
        let mut waiting = WaitQueue::new();
        let mut pending: Vec<Pending<'_>> = Vec::new();
        for (&request, admission) in ordered.iter().zip(admissions) {
            let outcome = match admission {
                Ok(outcome) => outcome,
                Err(reason) => {
                    records.shed(request, reason);
                    continue;
                }
            };
            waiting.expire(request.arrival_ns);
            let (worker, worker_free) = earliest_free(&worker_pool);
            let start = request.arrival_ns.max(worker_free);
            let shed = if request.deadline_ns.is_some_and(|d| start > d) {
                Some(ShedReason::DeadlineAtDispatch)
            } else if start > request.arrival_ns
                && self
                    .tenant_waiting_cap(request)
                    .is_some_and(|cap| waiting.tenant_len(request.tenant) >= cap)
            {
                Some(ShedReason::TenantThrottled)
            } else if start > request.arrival_ns
                && self
                    .options
                    .queue_capacity
                    .is_some_and(|cap| waiting.len() >= cap)
            {
                Some(ShedReason::QueueFull)
            } else {
                if start > request.arrival_ns {
                    waiting.push(start, request.tenant);
                }
                None
            };
            if let Some(reason) = shed {
                // Shed: no virtual resources consumed.
                records.shed(request, reason);
                continue;
            }
            // The worker is genuinely occupied for the real compile
            // wall-clock while virtual arrivals keep accumulating — the
            // one sanctioned projection of real time onto the timeline.
            let compile = ClockNs::real(outcome.compile_ns as f64);
            let ready = start + compile.onto_virtual_timeline();
            let Some(plan) = outcome.plan else {
                // Both compile paths failed: the worker was occupied for
                // the compile window; no device is ever dispatched.
                worker_pool[worker] = ready;
                let record = RequestRecord {
                    id: request.id,
                    tenant: request.tenant,
                    worker,
                    device: NO_SLOT,
                    queue_ns: start - request.arrival_ns,
                    compile,
                    search_ns: 0,
                    cache_wait_ns: 0,
                    device_ns: 0.0,
                    finish_ns: ready,
                    disposition: Disposition::Failed,
                    shed_reason: None,
                    retries: outcome.retries,
                    deadline_ns: request.deadline_ns,
                    breaker_event: outcome.breaker_event,
                    batch_size: 0,
                };
                records.file(request, record, start, None);
                continue;
            };
            let admitted = Pending {
                request,
                worker,
                start_ns: start,
                ready_ns: ready,
                compile,
                plan,
                retries: outcome.retries,
                device_failed: outcome.device_failed,
                total_device_ns: outcome.total_device_ns,
                breaker_event: outcome.breaker_event,
            };
            if batching.is_some() {
                // Continuous batching releases the worker at compile-done.
                worker_pool[worker] = ready;
                pending.push(admitted);
            } else {
                // Solo: the earliest-free device runs the request alone,
                // retries included, and the worker waits for it.
                let (device, device_free) = earliest_free(&device_pool);
                let device_start = ready.max(device_free) + records.dispatch_ns;
                let finish = records.executed(
                    &admitted,
                    device,
                    device_start,
                    admitted.total_device_ns,
                    0.0,
                    1,
                );
                device_pool[device] = finish;
                worker_pool[worker] = finish;
            }
        }
        if let Some(batching) = batching {
            self.launch_waves(&pending, batching, &mut device_pool, &mut records);
        }

        debug_assert_eq!(
            records.records.len(),
            ordered.len(),
            "every request gets exactly one record"
        );
        let first_arrival = ordered.first().map_or(0.0, |r| r.arrival_ns);
        self.build_report(records.records, first_arrival, !records.batched)
    }

    /// Phase A: the worker threads pull requests in arrival order, decide
    /// each one's admission, and compile the admitted ones in parallel.
    /// Returns one slot per request, in arrival order: the compile
    /// outcome, or the reason the request was shed uncompiled (a drain
    /// point it arrived past, then a deadline already passed at arrival).
    /// The solo policy (`batched` false) bounds the cursor's lookahead to
    /// the worker count. Every compile runs under the serve call's fault
    /// context `faults`.
    fn compile_phase(
        &self,
        ordered: &[&Request],
        batched: bool,
        faults: Option<&FaultInjection>,
    ) -> Vec<Result<CompileOutcome, ShedReason>> {
        let lookahead = if batched { usize::MAX } else { self.workers };
        let cursor = ArrivalCursor::new(ordered.len(), lookahead);
        let mut slots: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut slots = Vec::new();
                        while let Some(taken) = cursor.take() {
                            let slot = self.admit(ordered[taken.index], faults);
                            slots.push((taken.index, slot));
                        }
                        slots
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    // The compile is panic-isolated; if a worker dies
                    // anyway, surface the panic rather than silently
                    // dropping its requests.
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        slots.sort_unstable_by_key(|&(i, _)| i);
        slots.into_iter().map(|(_, slot)| slot).collect()
    }

    /// One request's phase-A slot: its pre-admission shed reason, or its
    /// compile outcome.
    fn admit(
        &self,
        request: &Request,
        faults: Option<&FaultInjection>,
    ) -> Result<CompileOutcome, ShedReason> {
        if self.lifecycle.draining_at(request.arrival_ns) {
            return Err(ShedReason::Draining);
        }
        if request.deadline_ns.is_some_and(|d| d <= request.arrival_ns) {
            return Err(ShedReason::DeadlineAtEnqueue);
        }
        Ok(self.compile_request(request, faults))
    }

    /// The batched policy's device placement: shape-bucket formation over
    /// compile-ready events, then co-launch waves onto the device pool in
    /// flush order. Bucket members run identical programs, so a wave of
    /// k members is k merged copies of one launch sequence; its duration
    /// is [`Engine::wave_device_ns`], from the compiler's launch memo.
    fn launch_waves(
        &self,
        pending: &[Pending<'_>],
        batching: BatchingOptions,
        device_pool: &mut [f64],
        records: &mut Records<'_>,
    ) {
        let mut events: Vec<ReadyEvent> = pending
            .iter()
            .enumerate()
            .map(|(index, p)| ReadyEvent {
                pending: index,
                id: p.request.id,
                ready_ns: p.ready_ns,
                shape_key: request_shape_key(p.request),
            })
            .collect();
        events.sort_by(|a, b| f64::total_cmp(&a.ready_ns, &b.ready_ns).then(a.id.cmp(&b.id)));
        let policy = self.options.tenancy.clone().unwrap_or_default();
        let capacity = warp_capacity(&self.cluster.machine);
        let mut meter = FairMeter::new();
        for flush in form_batches(&events, batching) {
            let mut members = flush.members;
            meter.order_by_fairness(&policy, &mut members, |index| pending[index].request.tenant);
            let demands: Vec<u64> = members
                .iter()
                .map(|&index| self.engine.wave_demand(&pending[index].plan))
                .collect();
            for wave in plan_waves(&demands, capacity) {
                let k = wave.len();
                let wave_ns = self
                    .engine
                    .wave_device_ns(&pending[members[wave[0]]].plan, k);
                let (device, device_free) = earliest_free(device_pool);
                let wave_start = flush.flush_ns.max(device_free) + records.dispatch_ns;
                device_pool[device] = wave_start + wave_ns;
                if self.telemetry.is_enabled() {
                    let registry = self.telemetry.registry();
                    registry.counter("serving.waves").inc();
                    let load: u64 = wave.iter().map(|&w| demands[w]).sum();
                    registry
                        .histogram("serving.wave_occupancy_pct", Clock::Virtual)
                        .record_f64(100.0 * load as f64 / capacity.max(1) as f64);
                }
                for &w in &wave {
                    let p = &pending[members[w]];
                    // Fault backoffs and re-runs stay the member's own
                    // device time, not the shared wave's.
                    let retry_extra_ns = p.total_device_ns - p.plan.run.device_ns;
                    records.executed(p, device, wave_start, wave_ns, retry_extra_ns, k);
                    meter.charge(p.request.tenant, wave_ns / k as f64);
                }
            }
        }
    }

    /// The shared reporting tail: makespan, per-worker accounting, cache
    /// counters, and the collector-style metric export.
    ///
    /// `device_on_worker` states whether workers held their requests
    /// through device execution (solo) or only through compile (batched);
    /// worker busy time follows.
    fn build_report(
        &self,
        mut records: Vec<RequestRecord>,
        first_arrival: f64,
        device_on_worker: bool,
    ) -> ServingReport {
        let last_finish = records
            .iter()
            .map(|r| r.finish_ns)
            .fold(first_arrival, f64::max);
        let makespan_ns = (last_finish - first_arrival).max(f64::MIN_POSITIVE);
        records.sort_by_key(|r| r.id);
        let workers = (0..self.workers)
            .map(|worker| {
                let mine = records.iter().filter(|r| r.worker == worker);
                let busy_ns = mine
                    .clone()
                    .map(|r| {
                        let device = if device_on_worker { r.device_ns } else { 0.0 };
                        r.compile.onto_virtual_timeline() + device
                    })
                    .sum::<f64>();
                WorkerStats {
                    worker,
                    requests: mine.count(),
                    busy_ns,
                    utilization: busy_ns / makespan_ns,
                }
            })
            .collect();
        let cache = self
            .engine
            .gemm_compiler()
            .cache_stats()
            .merged(self.engine.conv_compiler().cache_stats());
        let breaker_opens = self.breaker.as_ref().map_or(0, CircuitBreaker::opens);
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            // Collector-style export: the registry's cache.* counters are
            // overwritten with the caches' own (authoritative) atomics, so
            // a metrics snapshot taken now exactly equals `cache`.
            cache.export_to(registry);
            registry.gauge("serving.workers").set(self.workers as f64);
            registry
                .gauge("serving.devices")
                .set(self.cluster.devices as f64);
            registry.gauge("serving.makespan_ms").set(makespan_ns / 1e6);
            registry
                .gauge("serving.throughput_rps")
                .set(records.len() as f64 / (makespan_ns / 1e9));
            registry
                .gauge("serving.breaker_opens")
                .set(breaker_opens as f64);
            describe_serving_metrics(registry);
            self.telemetry.export_health();
        }
        ServingReport {
            records,
            workers,
            cache,
            makespan_ns,
            breaker_opens,
        }
    }
}

/// Phase A's shared arrival cursor. It hands out request indices in
/// order, but never one that lies `lookahead` or more past the oldest
/// request still in phase A.
struct ArrivalCursor {
    lookahead: usize,
    state: Mutex<CursorState>,
    finished: Condvar,
}

struct CursorState {
    next: usize,
    /// Every request before this index has left phase A.
    oldest_open: usize,
    done: Vec<bool>,
}

/// A request index taken from an [`ArrivalCursor`]; dropping it, on
/// return or unwind, marks the request finished.
struct Taken<'a> {
    cursor: &'a ArrivalCursor,
    index: usize,
}

impl ArrivalCursor {
    fn new(len: usize, lookahead: usize) -> Self {
        Self {
            lookahead,
            state: Mutex::new(CursorState {
                next: 0,
                oldest_open: 0,
                done: vec![false; len],
            }),
            finished: Condvar::new(),
        }
    }

    /// The next request index, once it is inside the window; `None` when
    /// the stream is exhausted.
    fn take(&self) -> Option<Taken<'_>> {
        let mut state = self.state.lock();
        while state.next < state.done.len() && state.next - state.oldest_open >= self.lookahead {
            self.finished.wait(&mut state);
        }
        let index = state.next;
        (index < state.done.len()).then(|| {
            state.next += 1;
            Taken {
                cursor: self,
                index,
            }
        })
    }
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        let mut state = self.cursor.state.lock();
        state.done[self.index] = true;
        let before = state.oldest_open;
        while state.done.get(state.oldest_open) == Some(&true) {
            state.oldest_open += 1;
        }
        if state.oldest_open > before {
            self.cursor.finished.notify_all();
        }
    }
}

/// The index and virtual free time of the earliest-free pool slot (the
/// highest index among ties). An empty pool — excluded by the
/// constructor asserts — yields the infinity sentinel.
fn earliest_free(pool: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (slot, &free_at) in pool.iter().enumerate() {
        if free_at <= best.1 {
            best = (slot, free_at);
        }
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::admission::TenantQuota;
    use super::super::request::poisson_arrivals;
    use super::*;
    use crate::offline::OfflineOptions;
    use accel_sim::{Interconnect, MachineModel};
    use tensor_ir::{GemmShape, Operator};

    fn engine() -> Arc<Engine> {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        Arc::new(Engine::offline(MachineModel::a100(), &o))
    }

    fn local_cluster(engine: &Engine) -> Cluster {
        Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3())
    }

    fn stream(n: usize, gap: f64) -> Vec<Request> {
        let shapes = [(256, 256, 256), (777, 512, 256), (64, 64, 64)];
        poisson_arrivals(n, gap, 7)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let (m, nn, k) = shapes[i % shapes.len()];
                Request::single(i, t, Operator::gemm(GemmShape::new(m, nn, k)))
            })
            .collect()
    }

    #[test]
    fn decomposition_adds_up_and_all_requests_complete() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime =
            ServingRuntime::new(engine, cluster, 2).with_telemetry(Arc::clone(&telemetry));
        let requests = stream(24, 50_000.0);
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 24);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.queue_ns >= -1e-6, "negative queue: {r:?}");
            assert!(r.device_ns > 0.0);
            assert_eq!(r.compile.clock(), Clock::Real);
            assert_eq!(r.disposition, Disposition::Completed);
            assert!(r.executed());
            assert_eq!(r.batch_size, 1, "solo records are singleton waves");
            assert!((r.timeline_total_ns() - (r.finish_ns - requests[i].arrival_ns)).abs() < 1e-3);
        }
        // 3 unique shapes → 3 polymerizations, regardless of worker count.
        assert_eq!(report.cache.computations, 3);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers.iter().map(|w| w.requests).sum::<usize>(), 24);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 24);
        assert_eq!(counts.total(), 24);
        assert_eq!(report.breaker_opens, 0);
        // Telemetry: every request got queue/request/compile/device spans,
        // and the exported cache counters equal the report's snapshot.
        let spans = telemetry.drain_spans();
        for name in [
            "serving.queue",
            "serving.request",
            "serving.compile",
            "serving.device",
        ] {
            let count = spans.iter().filter(|s| s.name == name).count();
            assert_eq!(count, 24, "{name}: {count} spans");
        }
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(report.cache.hits));
        assert_eq!(
            snap.counter("cache.computations"),
            Some(report.cache.computations)
        );
        assert_eq!(
            snap.counter("cache.coalesced_waits"),
            Some(report.cache.coalesced_waits)
        );
        assert_eq!(snap.counter("serving.requests"), Some(24));
        assert_eq!(snap.counter("serving.completed"), Some(24));
        // Single-tenant stream without a policy: no per-tenant counters.
        assert_eq!(snap.counter("serving.tenant.0.requests"), None);
        let summary = report.latency_summary();
        assert_eq!(summary.total.count, 24);
        assert_eq!(summary.compile.clock, Clock::Real);
        assert_eq!(summary.total.clock, Clock::Virtual);
    }

    #[test]
    fn more_workers_do_not_reduce_saturated_throughput() {
        // Near-zero inter-arrival gap = saturating load: service is the
        // bottleneck, so throughput must improve with workers.
        // The device pool stays fixed while the worker count varies, so
        // the comparison isolates host-side parallelism; the cache is
        // warmed first so real compile wall-clock (identical work, but
        // paid once per engine) does not blur the virtual-time comparison.
        let requests = stream(48, 1.0);
        let mut last = 0.0;
        for workers in [1usize, 2, 4] {
            let engine = engine();
            for request in &requests {
                for (op, _) in &request.ops {
                    engine.run_operator(op);
                }
            }
            let cluster = Cluster::new(engine.machine().clone(), 4, Interconnect::nvlink3());
            let report = ServingRuntime::new(engine, cluster, workers).serve(&requests);
            let rps = report.throughput_rps();
            assert!(
                rps >= last * 0.99,
                "{workers} workers: {rps} rps after {last}"
            );
            last = rps;
        }
    }

    #[test]
    fn expired_deadline_requests_are_shed_without_compiling() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 2);
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                let arrival = i as f64 * 10_000.0;
                Request::single(i, arrival, Operator::gemm(GemmShape::new(256, 256, 256)))
                    .with_deadline(arrival - 1.0)
            })
            .collect();
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 6);
        for r in &report.records {
            assert_eq!(r.disposition, Disposition::Shed);
            assert_eq!(r.shed_reason, Some(ShedReason::DeadlineAtEnqueue));
            assert!(!r.executed());
            assert_eq!(r.compile.real_ns(), 0.0);
        }
        // The whole point: a request shed at enqueue is never compiled.
        assert_eq!(report.cache.computations, 0);
        assert_eq!(report.dispositions().shed, 6);
        assert_eq!(report.goodput_rps(), 0.0);
    }

    #[test]
    fn bounded_queue_sheds_bursts_and_late_starts_shed_on_deadline() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 1).with_options(ServingOptions {
            queue_capacity: Some(2),
            ..ServingOptions::default()
        });
        let op = || Operator::gemm(GemmShape::new(256, 256, 256));
        // A burst of 8 simultaneous arrivals against 1 worker and a
        // 2-deep queue: the first starts immediately, two wait, the rest
        // overflow. A ninth, slightly later request has a deadline far
        // tighter than the backlog, so it sheds at dispatch (the deadline
        // check dominates the queue check).
        let mut requests: Vec<Request> = (0..8).map(|i| Request::single(i, 0.0, op())).collect();
        requests.push(Request::single(8, 1.0, op()).with_deadline(2.0));
        let report = runtime.serve(&requests);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 3, "{counts:?}");
        assert_eq!(counts.shed, 6, "{counts:?}");
        assert_eq!(counts.total(), 9);
        let queue_full = report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::QueueFull))
            .count();
        assert_eq!(queue_full, 5);
        assert_eq!(
            report.records[8].shed_reason,
            Some(ShedReason::DeadlineAtDispatch)
        );
        // Shed requests never occupy a worker slot.
        assert!(report
            .records
            .iter()
            .filter(|r| r.disposition == Disposition::Shed)
            .all(|r| r.worker == usize::MAX && !r.executed()));
    }

    #[test]
    fn breaker_opens_probes_and_recovers() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        // Compilation of the (single) shape panics on its first 5
        // attempts, then heals. Threshold 2 and a cooldown shorter than
        // the arrival gap give a fully deterministic single-worker
        // timeline: fail, fail-and-open, three failed probes (re-opens),
        // a successful probe that closes, then cache hits.
        let plan = FaultPlan {
            seed: 11,
            compile_panic_rate: 1.0,
            panic_attempts: 5,
            ..FaultPlan::none()
        };
        let runtime = ServingRuntime::new(engine, cluster, 1).with_options(ServingOptions {
            breaker: Some(BreakerPolicy {
                failure_threshold: 2,
                cooldown_ns: 5_000.0,
            }),
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 10_000.0,
                    Operator::gemm(GemmShape::new(256, 256, 256)),
                )
            })
            .collect();
        let report = runtime.serve(&requests);
        let counts = report.dispositions();
        assert_eq!(counts.degraded, 5, "{counts:?}");
        assert_eq!(counts.completed, 3, "{counts:?}");
        assert_eq!(counts.failed, 0, "{counts:?}");
        // Open on the second failure, then three failed probes re-open.
        assert_eq!(report.breaker_opens, 4);
        for r in &report.records[..5] {
            assert_eq!(r.disposition, Disposition::Degraded, "{r:?}");
            assert!(r.executed(), "degraded requests still run: {r:?}");
        }
        for r in &report.records[5..] {
            assert_eq!(r.disposition, Disposition::Completed, "{r:?}");
        }
    }

    #[test]
    fn batched_dispatcher_preserves_invariants_and_forms_waves() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime = ServingRuntime::new(engine, cluster, 4)
            .with_telemetry(Arc::clone(&telemetry))
            .with_options(ServingOptions {
                batching: Some(BatchingOptions::new(200_000.0, 8)),
                ..ServingOptions::default()
            });
        // A tight burst of one small shape: the whole burst should share
        // waves instead of running 16 solo launches.
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 100.0,
                    Operator::gemm(GemmShape::new(64, 64, 64)),
                )
            })
            .collect();
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 16);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 16, "{counts:?}");
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.executed());
            assert!(r.batch_size >= 1);
            assert!(r.queue_ns >= -1e-6, "negative queue: {r:?}");
            // The timeline identity holds under batching too: queueing
            // (including batch-forming delay) + compile + wave device
            // time equals end-to-end latency.
            assert!(
                (r.timeline_total_ns() - (r.finish_ns - requests[i].arrival_ns)).abs() < 1e-3,
                "identity broken: {r:?}"
            );
        }
        assert!(
            report.mean_batch_size() > 1.0,
            "burst formed no waves: mean batch {}",
            report.mean_batch_size()
        );
        let snap = telemetry.registry().snapshot();
        let waves = snap.counter("serving.waves").unwrap_or(0);
        assert!(waves >= 1, "no waves counted");
        assert!(
            (waves as usize) < 16,
            "every request launched solo: {waves} waves"
        );
        assert_eq!(snap.counter("serving.requests"), Some(16));
    }

    #[test]
    fn virtual_drain_point_sheds_exactly_the_late_arrivals() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime =
            ServingRuntime::new(engine, cluster, 2).with_telemetry(Arc::clone(&telemetry));
        let requests = stream(16, 50_000.0);
        // Pin the drain point to request 10's arrival: the shed set is a
        // pure function of arrival times, so exactly requests 10..16 are
        // shed as draining and everything earlier runs to completion.
        runtime
            .lifecycle()
            .request_drain_at(requests[10].arrival_ns);
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 16);
        for r in &report.records[..10] {
            assert_eq!(r.disposition, Disposition::Completed, "{r:?}");
        }
        for r in &report.records[10..] {
            assert_eq!(r.disposition, Disposition::Shed, "{r:?}");
            assert_eq!(r.shed_reason, Some(ShedReason::Draining));
            assert!(!r.executed(), "drained requests consume no device");
        }
        let dir = std::env::temp_dir().join(format!("mikpoly-drain-solo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let drain = runtime.drain(&report, Some(&dir));
        // The nothing-lost invariant: every request has a disposition,
        // the draining sheds are counted, and the caches committed.
        assert_eq!(drain.dispositions.total(), 16);
        assert_eq!(drain.drained, 6);
        assert_eq!(drain.dispositions.shed, 6);
        assert_eq!(drain.persisted_generation, Some(1));
        assert!(drain.persist_error.is_none());
        assert!(
            drain.chains_retained >= 6,
            "every shed request retains a chain: {drain:?}"
        );
        assert!(runtime.lifecycle().is_draining());
        // Admission stays closed after the drain: a fresh serve sheds
        // everything.
        let after = runtime.serve(&stream(4, 50_000.0));
        assert!(after
            .records
            .iter()
            .all(|r| r.shed_reason == Some(ShedReason::Draining)));
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("serving.drain.drained"), Some(6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_drain_keeps_the_disposition_invariant() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 4).with_options(ServingOptions {
            batching: Some(BatchingOptions::new(200_000.0, 8)),
            ..ServingOptions::default()
        });
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 100.0,
                    Operator::gemm(GemmShape::new(64, 64, 64)),
                )
            })
            .collect();
        runtime
            .lifecycle()
            .request_drain_at(requests[12].arrival_ns);
        let report = runtime.serve(&requests);
        let drain = runtime.drain(&report, None);
        assert_eq!(drain.dispositions.total(), 16);
        assert_eq!(drain.drained, 4);
        assert_eq!(drain.dispositions.completed, 12);
        assert_eq!(drain.persisted_generation, None);
        assert!(drain.persist_error.is_none());
        for r in &report.records[12..] {
            assert_eq!(r.shed_reason, Some(ShedReason::Draining), "{r:?}");
            assert_eq!(r.batch_size, 0, "drained requests join no wave");
        }
        // Deterministic replay: the same stream and drain point produce
        // the same shed set on a fresh runtime.
        let fresh = self::engine();
        let cluster = local_cluster(&fresh);
        let rerun = ServingRuntime::new(fresh, cluster, 4).with_options(ServingOptions {
            batching: Some(BatchingOptions::new(200_000.0, 8)),
            ..ServingOptions::default()
        });
        rerun.lifecycle().request_drain_at(requests[12].arrival_ns);
        let rerun_report = rerun.serve(&requests);
        let sheds: Vec<usize> = rerun_report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::Draining))
            .map(|r| r.id)
            .collect();
        assert_eq!(sheds, vec![12, 13, 14, 15]);
    }

    #[test]
    fn batched_waves_beat_solo_execution_on_a_homogeneous_burst() {
        // The co-launch claim itself: for a burst of identical small
        // kernels, merged waves recover idle PEs, so batched serving
        // finishes the burst no later than solo serving. Compile cost is
        // excluded by warming the cache first (both runtimes share one
        // engine).
        let engine = engine();
        let shape = GemmShape::new(64, 64, 64);
        engine.run_operator(&Operator::gemm(shape));
        let requests: Vec<Request> = (0..24)
            .map(|i| Request::single(i, i as f64, Operator::gemm(shape)))
            .collect();
        let solo =
            ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 4).serve(&requests);
        let batched = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 4)
            .with_options(ServingOptions {
                batching: Some(BatchingOptions::new(100_000.0, 8)),
                ..ServingOptions::default()
            })
            .serve(&requests);
        assert_eq!(batched.dispositions().completed, 24);
        assert!(
            batched.makespan_ns <= solo.makespan_ns * 1.001,
            "batched {} ns vs solo {} ns",
            batched.makespan_ns,
            solo.makespan_ns
        );
        assert!(batched.mean_batch_size() > 1.0);
    }

    #[test]
    fn wave_times_are_simulated_once_across_serve_calls() {
        // The launch memo keeps every wave width it has timed, so a
        // second serve of the same burst simulates nothing. The window is
        // far longer than any compile, so buckets flush only when full and
        // both serves form the same waves whatever the host's timing.
        let mut offline = OfflineOptions::fast();
        offline.n_gen = 4;
        for machine in [MachineModel::a100(), MachineModel::ascend910a()] {
            let engine = Arc::new(Engine::offline(machine, &offline));
            let runtime = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 4)
                .with_options(ServingOptions {
                    batching: Some(BatchingOptions::new(1e9, 8)),
                    ..ServingOptions::default()
                });
            let op = Operator::gemm(GemmShape::new(64, 64, 64));
            let requests: Vec<Request> =
                (0..24).map(|i| Request::single(i, i as f64, op)).collect();
            let first = runtime.serve(&requests);
            let name = &engine.machine().name;
            assert!(first.mean_batch_size() > 1.0, "{name}: no waves formed");
            let memo = engine.gemm_compiler().launch_memo_stats();
            // One program: one solo entry, and one per wider wave.
            assert!(memo.entries > 1, "{name}: no wave memoized: {memo:?}");
            let second = runtime.serve(&requests);
            let again = engine.gemm_compiler().launch_memo_stats();
            assert_eq!(again.computations, memo.computations, "{name}: {again:?}");
            for (a, b) in first.records.iter().zip(&second.records) {
                assert_eq!(a.device_ns.to_bits(), b.device_ns.to_bits(), "{b:?}");
            }
        }
    }

    #[test]
    fn tenant_quota_isolates_a_flooding_tenant() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime = ServingRuntime::new(engine, cluster, 1)
            .with_telemetry(Arc::clone(&telemetry))
            .with_options(ServingOptions {
                queue_capacity: Some(8),
                tenancy: Some(TenantPolicy::new(vec![
                    TenantQuota::new(1, 2),
                    TenantQuota::new(2, 8).with_weight(2.0),
                ])),
                ..ServingOptions::default()
            });
        let op = || Operator::gemm(GemmShape::new(256, 256, 256));
        // Tenant 1 floods 12 simultaneous requests; tenant 2 sends 4
        // well-spaced ones afterward. The flood saturates its own
        // 2-waiting-slot quota, not the global queue, so every tenant-2
        // request is served.
        let mut requests: Vec<Request> = (0..12)
            .map(|i| Request::single(i, 0.0, op()).with_tenant(1))
            .collect();
        for i in 0..4 {
            requests.push(Request::single(12 + i, 1e9 + i as f64 * 1e9, op()).with_tenant(2));
        }
        let report = runtime.serve(&requests);
        let throttled = report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::TenantThrottled))
            .count();
        assert_eq!(throttled, 9, "flood beyond the quota is throttled");
        let tenants = report.tenant_stats();
        let t1 = tenants.iter().find(|t| t.tenant == 1).unwrap();
        let t2 = tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert_eq!(t1.dispositions.served(), 3, "{t1:?}");
        assert_eq!(
            t2.dispositions.served(),
            4,
            "victim tenant fully served: {t2:?}"
        );
        assert_eq!(t2.dispositions.shed, 0);
        // Per-tenant counters are live once a policy is configured, and
        // throttled chains land in the flight recorder with their tenant.
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("serving.tenant.1.requests"), Some(12));
        assert_eq!(snap.counter("serving.tenant.2.requests"), Some(4));
        assert_eq!(snap.counter("serving.tenant.2.served"), Some(4));
        assert_eq!(snap.counter("serving.tenant.1.shed"), Some(9));
        let shed_id = report
            .records
            .iter()
            .find(|r| r.shed_reason == Some(ShedReason::TenantThrottled))
            .unwrap()
            .id;
        let chain = telemetry.recorder().find(shed_id as u64).unwrap();
        assert_eq!(chain.chain.tenant, 1);
        assert_eq!(chain.chain.error.as_deref(), Some("tenant-throttled"));
    }

    #[test]
    fn real_time_drain_runs_every_compiled_request() {
        // Every compile stalls 100 ms on one worker, and a drain fires as
        // soon as the first compile is done: the requests admitted by
        // then must run to their normal disposition; the rest shed as
        // draining. Holds under both policies. The drain would have to
        // come four stalls late for all six to compile.
        let shapes = [
            (256, 256, 256),
            (777, 512, 256),
            (64, 64, 64),
            (320, 192, 128),
            (511, 257, 96),
            (128, 1024, 64),
        ];
        let requests: Vec<Request> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k))| {
                Request::single(
                    i,
                    i as f64 * 10_000.0,
                    Operator::gemm(GemmShape::new(m, n, k)),
                )
            })
            .collect();
        for batching in [None, Some(BatchingOptions::new(200_000.0, 8))] {
            let engine = engine();
            let cluster = local_cluster(&engine);
            let runtime = ServingRuntime::new(engine, cluster, 1).with_options(ServingOptions {
                fault_plan: Some(Arc::new(FaultPlan {
                    seed: 5,
                    search_stall_rate: 1.0,
                    search_stall_ns: 100_000_000,
                    ..FaultPlan::none()
                })),
                batching,
                ..ServingOptions::default()
            });
            let lifecycle = Arc::clone(runtime.lifecycle());
            let compiler = runtime.engine().gemm_compiler();
            let report = std::thread::scope(|scope| {
                scope.spawn(|| {
                    while compiler.cache_stats().computations == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    lifecycle.request_drain();
                });
                runtime.serve(&requests)
            });
            let counts = report.dispositions();
            let computed = report.cache.computations as usize;
            assert!(
                0 < computed && computed < 6,
                "batching {batching:?}: {computed} compiles"
            );
            assert_eq!(
                computed,
                counts.completed + counts.degraded,
                "batching {batching:?}: {counts:?}"
            );
            assert_eq!(
                counts.shed,
                6 - computed,
                "batching {batching:?}: {counts:?}"
            );
        }
    }

    #[test]
    fn solo_lookahead_is_one_request_per_worker() {
        // Request 0 is a cold shape whose compile stalls 50 ms; 1..4 are
        // cached; 5 repeats request 0's shape. A solo worker holds its
        // request to the end, so with 2 workers the second one cannot
        // pass request 1 while request 0 compiles, and request 5 later
        // hits the filled cache instead of waiting on the fill.
        let engine = engine();
        let gemm = |m, n, k| Operator::gemm(GemmShape::new(m, n, k));
        let warm = [
            (64, 64, 64),
            (256, 256, 256),
            (320, 192, 128),
            (128, 1024, 64),
        ];
        for &(m, n, k) in &warm {
            engine.run_operator(&gemm(m, n, k));
        }
        let mut requests = vec![Request::single(0, 0.0, gemm(777, 512, 256))];
        for (i, &(m, n, k)) in warm.iter().enumerate() {
            requests.push(Request::single(i + 1, (i + 1) as f64, gemm(m, n, k)));
        }
        requests.push(Request::single(5, 5.0, gemm(777, 512, 256)));
        let runtime = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 2)
            .with_options(ServingOptions {
                fault_plan: Some(Arc::new(FaultPlan {
                    seed: 5,
                    search_stall_rate: 1.0,
                    search_stall_ns: 50_000_000,
                    ..FaultPlan::none()
                })),
                ..ServingOptions::default()
            });
        let report = runtime.serve(&requests);
        assert_eq!(report.dispositions().completed, 6);
        assert_eq!(report.cache.coalesced_waits, 0, "{:?}", report.records[5]);
        assert_eq!(report.records[5].cache_wait_ns, 0);
    }

    /// Overlapping serve calls on one engine each see only their own fault
    /// plan. Call A's plan panics every compile of some shapes and stalls
    /// the rest; A stays in flight on a stalled compile while a clean call
    /// B serves shapes A's plan would panic on, and B completes them all.
    /// After A returns, a clean call still compiles a new such shape
    /// cleanly: no plan outlives its call.
    #[test]
    fn overlapping_serves_each_see_only_their_own_fault_plan() {
        let engine = engine();
        let plan = FaultPlan {
            seed: 3,
            compile_panic_rate: 0.5,
            panic_attempts: u32::MAX,
            search_stall_rate: 1.0,
            search_stall_ns: 500_000_000,
            ..FaultPlan::none()
        };
        let panics = |op: &Operator| plan.compile_panics(crate::compiler::shape_key(op), 0);
        let (panicking, stalling): (Vec<Operator>, Vec<Operator>) = (0..64)
            .map(|i| Operator::gemm(GemmShape::new(100 + 7 * i, 256, 128)))
            .partition(|op| panics(op));
        let [a_panics, b_first, b_second, after, ..] = panicking[..] else {
            panic!("too few panicking shapes: {panicking:?}");
        };
        let faulty = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 1)
            .with_options(ServingOptions {
                fault_plan: Some(Arc::new(plan.clone())),
                ..ServingOptions::default()
            });
        let serve_clean = |ops: &[Operator]| {
            let requests: Vec<Request> = ops
                .iter()
                .enumerate()
                .map(|(i, &op)| Request::single(i, i as f64 * 10_000.0, op))
                .collect();
            ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 2)
                .serve(&requests)
                .records
                .iter()
                .map(|r| r.disposition)
                .collect::<Vec<_>>()
        };
        let compiler = engine.gemm_compiler();
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                faulty.serve(&[
                    Request::single(0, 0.0, stalling[0]),
                    Request::single(1, 10_000.0, a_panics),
                ])
            });
            // A's first compile is stalled in flight from its miss on.
            while compiler.cache_stats().in_flight() == 0 {
                std::thread::yield_now();
            }
            let b = serve_clean(&[b_first, b_second]);
            (a.join().unwrap(), b)
        });
        assert_eq!(b, [Disposition::Completed; 2], "B saw A's faults");
        let a: Vec<_> = a.records.iter().map(|r| r.disposition).collect();
        assert_eq!(a, [Disposition::Completed, Disposition::Degraded]);
        assert_eq!(serve_clean(&[after]), [Disposition::Completed]);
    }

    #[test]
    fn fallback_charges_compile_work_not_device_simulation() {
        // Every full compile panics at once, so each request falls back
        // to single-kernel plans. Their large grids make the fallback's
        // first-read device simulations far costlier than the failed
        // attempt plus the search-free fallback compiles.
        let engine = engine();
        let faults = FaultInjection::new(Arc::new(FaultPlan {
            compile_panic_rate: 1.0,
            panic_attempts: u32::MAX,
            ..FaultPlan::none()
        }));
        let ops: Vec<(Operator, usize)> = (0..4)
            .map(|i| (Operator::gemm(GemmShape::new(8192 + 64 * i, 8192, 256)), 1))
            .collect();
        let request = Request {
            ops: ops.clone(),
            ..Request::single(0, 0.0, ops[0].0)
        };
        let runtime = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 1);
        let outcome = runtime.compile_request(&request, Some(&faults));
        let plan = outcome.plan.expect("the fallback serves");
        assert_eq!(plan.run.degraded, ops.len());
        let degraded = CompileBudget {
            degrade_only: true,
            ..CompileBudget::default()
        };
        let sim_start = Instant::now();
        for (op, _) in &ops {
            let program = engine.gemm_compiler().try_compile(op, degraded).unwrap();
            engine.simulate(&program.program);
        }
        let sim_ns = sim_start.elapsed().as_nanos();
        assert!(
            outcome.compile_ns * 2 < sim_ns,
            "charged {} ns of compile against {sim_ns} ns of simulation",
            outcome.compile_ns
        );
    }
}
