//! Chaos suite: the serving runtime under deterministic fault injection.
//!
//! The invariant under test is *exhaustive disposition*: whatever mix of
//! injected faults a stream hits — compile panics, search stalls,
//! corrupted cache entries, transient device faults, deadlines, queue
//! overflow — every request terminates with exactly one
//! [`Disposition`], no worker dies, and the telemetry counters agree
//! with the per-request records to the last increment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mikpoly_conformance::assert_matches_reference;
use mikpoly_suite::accel_sim::{Cluster, FaultPlan, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::{
    execute_gemm, poisson_arrivals, CompileBudget, Disposition, Engine, FaultInjection, MikPoly,
    OfflineOptions, OnlineOptions, Request, ServingOptions, ServingRuntime, TemplateKind,
};
use mikpoly_suite::tensor_ir::{reference_gemm, GemmShape, Operator, Tensor};

fn engine() -> Arc<Engine> {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    Arc::new(Engine::offline(MachineModel::a100(), &o))
}

fn shapes() -> Vec<GemmShape> {
    vec![
        GemmShape::new(256, 256, 256),
        GemmShape::new(777, 512, 256),
        GemmShape::new(1111, 999, 512),
        GemmShape::new(64, 64, 64),
        GemmShape::new(320, 192, 128),
        GemmShape::new(511, 257, 96),
        GemmShape::new(900, 300, 300),
        GemmShape::new(128, 1024, 64),
    ]
}

fn stream(n: usize, gap: f64, seed: u64) -> Vec<Request> {
    let shapes = shapes();
    poisson_arrivals(n, gap, seed)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Request::single(i, t, Operator::gemm(shapes[i % shapes.len()])))
        .collect()
}

/// Every request under a mixed fault plan ends in exactly one
/// disposition, and the serving counters equal the record tallies.
#[test]
fn chaos_mix_yields_exactly_one_disposition_per_request() {
    let engine = engine();
    let cluster = Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3());
    let telemetry = mikpoly_suite::mikpoly::telemetry::Telemetry::enabled();
    let plan = FaultPlan {
        seed: 0xC4A05,
        device_fault_rate: 0.05,
        search_stall_rate: 0.2,
        search_stall_ns: 200_000,
        cache_corrupt_rate: 0.2,
        compile_panic_rate: 0.1,
        panic_attempts: 2,
    };
    let runtime = ServingRuntime::new(engine, cluster, 4)
        .with_telemetry(Arc::clone(&telemetry))
        .with_options(ServingOptions {
            queue_capacity: Some(8),
            compile_budget: Some(Duration::from_millis(20)),
            breaker: true,
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });
    // Half the stream carries a (loose) deadline so the admission paths
    // are live too; the seeds are fixed, so the fault schedule is
    // reproducible even though thread interleaving is not.
    let requests: Vec<Request> = stream(60, 30_000.0, 9)
        .into_iter()
        .map(|r| {
            if r.id % 2 == 0 {
                let deadline = r.arrival_ns + 5_000_000.0;
                r.with_deadline(deadline)
            } else {
                r
            }
        })
        .collect();
    let report = runtime.serve(&requests);

    // Exhaustive disposition: one record per request, in id order, each
    // with exactly one terminal state.
    assert_eq!(report.records.len(), 60);
    let counts = report.dispositions();
    assert_eq!(counts.total(), 60, "{counts:?}");
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.id, i);
        assert_eq!(
            r.shed_reason.is_some(),
            r.disposition == Disposition::Shed,
            "shed reason iff shed: {r:?}"
        );
        if r.disposition == Disposition::Shed {
            assert!(!r.executed(), "shed requests consume nothing: {r:?}");
        } else {
            assert!(r.finish_ns >= requests[i].arrival_ns);
        }
    }
    // The faults were actually live: something degraded or retried.
    let retried: u32 = report.records.iter().map(|r| r.retries).sum();
    assert!(
        counts.degraded > 0 || retried > 0,
        "fault plan had no effect: {counts:?}"
    );

    // Counter fidelity: the registry's serving.* counters equal the
    // per-request tallies exactly.
    let snap = telemetry.registry().snapshot();
    assert_eq!(snap.counter("serving.requests"), Some(60));
    for (name, want) in [
        ("serving.completed", counts.completed),
        ("serving.degraded", counts.degraded),
        ("serving.shed", counts.shed),
        ("serving.failed", counts.failed),
    ] {
        assert_eq!(
            snap.counter(name).unwrap_or(0),
            want as u64,
            "{name} disagrees with records"
        );
    }
    assert_eq!(
        snap.counter("serving.retried").unwrap_or(0),
        u64::from(retried)
    );

    // Flight recorder: every anomalous request (Shed or Failed) must
    // have a retained chain whose error reproduces the record's
    // terminal label — the black box holds the whole story, not a
    // sample of it.
    let recorder = telemetry.recorder();
    for r in &report.records {
        if matches!(r.disposition, Disposition::Shed | Disposition::Failed) {
            let chain = recorder
                .find(r.id as u64)
                .unwrap_or_else(|| panic!("no retained chain for anomalous request {}", r.id));
            assert!(
                chain.chain.disposition.is_anomalous(),
                "request {} retained with a healthy disposition: {chain:?}",
                r.id
            );
            let want = mikpoly_suite::mikpoly::serving::record_error_label(r);
            assert_eq!(
                chain.chain.error.as_deref(),
                want,
                "chain error for request {} disagrees with the record",
                r.id
            );
        }
    }
}

/// A leader whose compile panics must not strand coalesced followers:
/// one of them takes the flight over and everyone gets an answer.
#[test]
fn followers_survive_a_panicking_leader() {
    let engine = engine();
    let cluster = Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3());
    let plan = FaultPlan {
        seed: 21,
        compile_panic_rate: 1.0,
        panic_attempts: 1,
        ..FaultPlan::none()
    };
    let runtime = ServingRuntime::new(engine, cluster, 4).with_options(ServingOptions {
        fault_plan: Some(Arc::new(plan)),
        ..ServingOptions::default()
    });
    // Eight simultaneous requests of one shape: whoever leads the
    // single-flight panics on the first attempt; the takeover compiles
    // cleanly on the second.
    let requests: Vec<Request> = (0..8)
        .map(|i| Request::single(i, 0.0, Operator::gemm(GemmShape::new(320, 192, 128))))
        .collect();
    let report = runtime.serve(&requests);
    let counts = report.dispositions();
    assert_eq!(counts.total(), 8);
    assert_eq!(counts.failed, 0, "{counts:?}");
    assert_eq!(counts.shed, 0, "{counts:?}");
    assert_eq!(
        counts.degraded, 1,
        "exactly the panicked leader degrades: {counts:?}"
    );
    assert_eq!(counts.completed, 7, "{counts:?}");
}

/// Goodput under a 1% transient device-fault rate stays within 10% of
/// the fault-free run (the retries are paid in bounded virtual backoff).
#[test]
fn goodput_floor_under_one_percent_device_faults() {
    let serve = |fault_rate: f64| {
        let engine = engine();
        // Warm the cache so the virtual timeline is compile-free and the
        // two runs differ only in injected device faults.
        for s in shapes() {
            engine.run_operator(&Operator::gemm(s));
        }
        let cluster = Cluster::new(engine.machine().clone(), 2, Interconnect::nvlink3());
        let mut options = ServingOptions::default();
        if fault_rate > 0.0 {
            options.fault_plan = Some(Arc::new(FaultPlan {
                seed: 77,
                device_fault_rate: fault_rate,
                ..FaultPlan::none()
            }));
        }
        let runtime = ServingRuntime::new(engine, cluster, 2).with_options(options);
        runtime.serve(&stream(80, 10_000.0, 13))
    };
    let clean = serve(0.0);
    let faulty = serve(0.01);
    assert_eq!(clean.dispositions().served(), 80);
    let counts = faulty.dispositions();
    assert_eq!(counts.total(), 80);
    let ratio = faulty.goodput_rps() / clean.goodput_rps();
    assert!(
        ratio >= 0.9,
        "goodput under 1% device faults fell to {ratio:.3} of fault-free"
    );
}

/// A capacity-bounded program cache under chaos: eviction churn racing
/// single-flight fills, injected panics, and poison invalidations must
/// never strand a request (every one terminates with exactly one
/// disposition) and must keep the cache counters coherent — entries
/// within the bound, evictions really happening, and no double counting
/// against the fills that produced them.
#[test]
fn bounded_cache_survives_chaos_with_coherent_counters() {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    let machine = MachineModel::a100();
    // Eight distinct shapes against a four-program bound: steady-state
    // serving *must* evict, so every fill contends with the trimmer.
    let capacity = 4usize;
    let bounded = OnlineOptions {
        cache_capacity: Some(capacity),
        ..OnlineOptions::default()
    };
    let gemm = Arc::new(MikPoly::offline(machine.clone(), &o).with_options(bounded.clone()));
    let conv = Arc::new(
        MikPoly::offline(
            machine.clone(),
            &o.clone().with_template(TemplateKind::Conv),
        )
        .with_options(bounded),
    );
    let engine = Arc::new(Engine::from_compilers(machine.clone(), gemm, conv));
    let cluster = Cluster::new(machine, 1, Interconnect::nvlink3());
    let plan = FaultPlan {
        seed: 0xBCA,
        device_fault_rate: 0.02,
        cache_corrupt_rate: 0.15, // poison invalidations during churn
        compile_panic_rate: 0.1,  // abandoned flights during churn
        panic_attempts: 2,
        ..FaultPlan::none()
    };
    let runtime =
        ServingRuntime::new(Arc::clone(&engine), cluster, 4).with_options(ServingOptions {
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });
    let report = runtime.serve(&stream(80, 20_000.0, 17));

    // The suite completed — no waiter was stranded by an eviction racing
    // its flight — and every request has exactly one disposition.
    let counts = report.dispositions();
    assert_eq!(report.records.len(), 80);
    assert_eq!(counts.total(), 80, "{counts:?}");
    assert_eq!(counts.shed, 0, "nothing admits-fails without a queue bound");

    let stats = engine.gemm_compiler().cache_stats();
    assert!(
        stats.entries as usize <= capacity,
        "{} entries exceed the bound {capacity}",
        stats.entries
    );
    assert!(
        stats.evictions > 0,
        "8 shapes against capacity 4 must evict: {stats:?}"
    );
    // Eviction accounting: every eviction corresponds to a completed
    // fill, and what was filled is either still resident, evicted, or
    // was invalidated by the poison path.
    let fills = stats.computations + stats.direct_inserts;
    assert!(
        stats.evictions <= fills,
        "evictions double-counted: {stats:?}"
    );
    assert_eq!(
        stats.entries + stats.evictions + stats.invalidations,
        fills,
        "fill disposition accounting leaks entries: {stats:?}"
    );
    // Single flight under churn: a computation only ever runs for a
    // missed lookup, and the lookup ledger balances the request stream.
    assert!(
        stats.computations <= stats.misses,
        "more computations than misses: {stats:?}"
    );
    assert!(stats.hit_rate().is_finite());
}

/// Restart under chaos: a live snapshotter persists the warm caches
/// mid-stream while the fault cocktail runs, a virtual drain point
/// closes admission, and the committed generation restores *clean* into
/// a fresh engine — which then serves the same shapes with zero compile
/// time. The full crash-consistency loop: snapshot → drain → restart →
/// warm.
#[test]
fn snapshot_mid_chaos_drain_and_restart_serves_warm() {
    let engine = engine();
    let cluster = Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3());
    let telemetry = mikpoly_suite::mikpoly::telemetry::Telemetry::enabled();
    let plan = FaultPlan {
        seed: 0xD8A1,
        device_fault_rate: 0.05,
        search_stall_rate: 0.1,
        search_stall_ns: 100_000,
        cache_corrupt_rate: 0.2,
        compile_panic_rate: 0.1,
        panic_attempts: 2,
    };
    let runtime = ServingRuntime::new(Arc::clone(&engine), cluster, 4)
        .with_telemetry(Arc::clone(&telemetry))
        .with_options(ServingOptions {
            compile_budget: Some(Duration::from_millis(20)),
            breaker: true,
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });
    let requests = stream(60, 30_000.0, 9);
    // Deterministic drain point: requests 50.. are shed as draining.
    runtime
        .lifecycle()
        .request_drain_at(requests[50].arrival_ns);

    let dir = std::env::temp_dir().join(format!("mikpoly-chaos-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snapshotter = mikpoly_suite::mikpoly::Snapshotter::start(
        Arc::clone(&engine),
        dir.clone(),
        Duration::from_millis(5),
    );
    let report = runtime.serve(&requests);
    // Stopping the snapshotter takes the final snapshot — the drain's
    // persist step — before the drain accounting reads the caches.
    let stats = snapshotter.stop();
    assert!(stats.snapshots >= 1, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
    let drain = runtime.drain(&report, Some(&dir));

    // Nothing lost: every request has a disposition, the drained count
    // is exactly the arrivals past the point, and every anomalous record
    // kept its flight-recorder chain.
    assert_eq!(drain.dispositions.total(), 60);
    let expected_drained = requests
        .iter()
        .filter(|r| r.arrival_ns >= requests[50].arrival_ns)
        .count();
    assert_eq!(drain.drained, expected_drained);
    assert!(drain.persisted_generation.is_some(), "{drain:?}");
    assert!(drain.persist_error.is_none(), "{drain:?}");
    let recorder = telemetry.recorder();
    let mut anomalous = 0u64;
    for r in &report.records {
        if matches!(r.disposition, Disposition::Shed | Disposition::Failed) {
            anomalous += 1;
            assert!(
                recorder.find(r.id as u64).is_some(),
                "request {} lost its chain across the drain",
                r.id
            );
        }
    }
    assert!(drain.chains_retained >= anomalous, "{drain:?}");

    // Restart: a fresh engine (same offline options, identical library)
    // restores the committed generation clean and serves the same shapes
    // without a single online polymerization.
    let fresh = self::engine();
    let restore = fresh.restore_program_caches(&dir);
    assert!(restore.clean(), "restore not clean after chaos:\n{restore}");
    assert!(restore.restored() > 0, "{restore}");
    let cluster = Cluster::new(fresh.machine().clone(), 1, Interconnect::nvlink3());
    let rerun = ServingRuntime::new(Arc::clone(&fresh), cluster, 2);
    let warm = rerun.serve(&stream(16, 50_000.0, 9));
    for r in &warm.records {
        assert_eq!(r.disposition, Disposition::Completed, "{r:?}");
        assert_eq!(
            r.compile.ns(),
            0.0,
            "restored cache missed a warm hit: {r:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded programs are slower, not wrong: the search-free fallback and
/// a poison-evicted recompile both still match the reference semantics.
#[test]
fn degraded_and_poison_recovered_programs_match_reference() {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    let compiler = MikPoly::offline(MachineModel::a100(), &o);
    let shape = GemmShape::new(200, 130, 70);
    let op = Operator::gemm(shape);
    let a = Tensor::random(&[shape.m, shape.k], 31);
    let b = Tensor::random(&[shape.k, shape.n], 32);
    let want = reference_gemm(shape, &a, &b);

    // Bottom of the degradation ladder: the search-free fallback.
    let degraded = compiler
        .try_compile(
            &op,
            CompileBudget {
                degrade_only: true,
                ..CompileBudget::default()
            },
        )
        .expect("degraded compile succeeds");
    degraded.program.verify_coverage().expect("coverage");
    let got = execute_gemm(&degraded.program, &a, &b);
    assert_matches_reference(&got, &want, "degraded gemm");

    // Poisoned-entry path: every first compile of a shape is corrupted;
    // validation must evict and recompile to a correct program.
    let faults = FaultInjection::new(Arc::new(FaultPlan {
        seed: 5,
        cache_corrupt_rate: 1.0,
        ..FaultPlan::none()
    }));
    let recovered = compiler
        .try_compile(
            &op,
            CompileBudget {
                faults: Some(&faults),
                ..CompileBudget::default()
            },
        )
        .expect("poison recovery succeeds");
    assert!(
        recovered.poison_retries > 0,
        "corruption must have been detected and evicted"
    );
    recovered.program.verify_coverage().expect("coverage");
    let got = execute_gemm(&recovered.program, &a, &b);
    assert_matches_reference(&got, &want, "poison-recovered gemm");
}

/// An expired deadline on a cold shape still cuts the compile short but
/// returns a correct, degraded answer end to end through the runtime.
#[test]
fn expired_budget_degrades_but_stays_correct() {
    let engine = engine();
    let cluster = Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3());
    let runtime =
        ServingRuntime::new(Arc::clone(&engine), cluster, 1).with_options(ServingOptions {
            compile_budget: Some(Duration::from_nanos(1)),
            ..ServingOptions::default()
        });
    let t0 = Instant::now();
    let report = runtime.serve(&[Request::single(
        0,
        0.0,
        Operator::gemm(GemmShape::new(777, 512, 256)),
    )]);
    let counts = report.dispositions();
    assert_eq!(counts.total(), 1);
    assert_eq!(counts.failed, 0, "{counts:?}");
    assert_eq!(
        counts.degraded, 1,
        "a 1 ns budget cannot finish a cold search: {counts:?}"
    );
    // Degradation is fast: nowhere near a full uncut search.
    assert!(t0.elapsed() < Duration::from_secs(5));
}
