//! Concurrent-compilation integrity: many threads hammering one compiler
//! on an overlapping shape set must behave exactly like sequential
//! compilation — every shape polymerized once (single flight), every
//! resulting program functionally correct, every repeat sharing the cached
//! program.

use std::sync::Arc;

use mikpoly_suite::accel_sim::{Cluster, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::serving::poisson_arrivals;
use mikpoly_suite::mikpoly::telemetry::{Clock, Telemetry};
use mikpoly_suite::mikpoly::{
    execute_gemm, CacheOutcome, CompileBudget, Engine, MikPoly, OfflineOptions, Request,
    ServingRuntime,
};
use mikpoly_suite::tensor_ir::{reference_gemm, GemmShape, Operator, Tensor};

fn compiler() -> MikPoly {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    MikPoly::offline(MachineModel::a100(), &options)
}

/// A shape menu small enough that eight threads constantly collide on it.
fn shapes() -> Vec<GemmShape> {
    [
        (17, 31, 5),
        (64, 64, 64),
        (100, 200, 50),
        (128, 96, 64),
        (200, 130, 70),
        (777, 512, 256),
    ]
    .into_iter()
    .map(|(m, n, k)| GemmShape::new(m, n, k))
    .collect()
}

#[test]
fn eight_threads_overlapping_shapes_single_flight_and_correct() {
    let c = Arc::new(compiler());
    let shapes = shapes();
    let threads = 8;
    let rounds = 6;

    // Each thread walks the menu from a different offset, so on every
    // round several threads request the same shape near-simultaneously.
    let programs: Vec<Vec<(GemmShape, Arc<mikpoly_suite::mikpoly::CompiledProgram>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let c = Arc::clone(&c);
                    let shapes = shapes.clone();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for round in 0..rounds {
                            for i in 0..shapes.len() {
                                let shape = shapes[(t + i + round) % shapes.len()];
                                let program = c.compile(&Operator::gemm(shape));
                                out.push((shape, program));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    // Single flight: exactly one polymerization per unique shape, however
    // the eight threads interleaved.
    let stats = c.cache_stats();
    assert_eq!(
        stats.computations,
        shapes.len() as u64,
        "polymerization count must equal the unique shape count: {stats:?}"
    );
    assert_eq!(stats.misses, shapes.len() as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced_waits,
        (threads * rounds * shapes.len()) as u64,
        "every compile call is accounted as hit, miss, or coalesced wait"
    );

    // All threads share one program per shape (same Arc as the cache's).
    for per_thread in &programs {
        for (shape, program) in per_thread {
            let canonical = c.compile(&Operator::gemm(*shape));
            assert!(
                Arc::ptr_eq(program, &canonical),
                "{shape:?} was recompiled behind the cache's back"
            );
        }
    }

    // Every cached program is functionally correct against the reference.
    for shape in &shapes {
        let program = c.compile(&Operator::gemm(*shape));
        program.verify_coverage().expect("coverage");
        let a = Tensor::random(&[shape.m, shape.k], 21);
        let b = Tensor::random(&[shape.k, shape.n], 22);
        let got = execute_gemm(&program, &a, &b);
        let want = reference_gemm(*shape, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-3),
            "{shape:?}: max diff {}",
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn try_compile_roles_are_consistent() {
    let c = Arc::new(compiler());
    let op = Operator::gemm(GemmShape::new(640, 384, 128));
    let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    c.try_compile(&op, CompileBudget::default())
                        .expect("compile")
                        .outcome
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let computed = outcomes
        .iter()
        .filter(|o| **o == CacheOutcome::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one thread polymerizes: {outcomes:?}");
    assert!(outcomes.iter().all(|o| matches!(
        o,
        CacheOutcome::Computed | CacheOutcome::Hit | CacheOutcome::Waited
    )));
}

#[test]
fn serving_runtime_end_to_end_counts_match() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let engine = Arc::new(Engine::offline(MachineModel::a100(), &options));
    let shapes = shapes();
    let requests: Vec<Request> = poisson_arrivals(48, 10_000.0, 3)
        .into_iter()
        .enumerate()
        .map(|(id, arrival_ns)| {
            let shape = shapes[id % shapes.len()];
            Request::single(id, arrival_ns, Operator::gemm(shape))
        })
        .collect();
    let cluster = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
    // Telemetry stays on for the whole run: concurrency guarantees must
    // hold with every span/counter record path active.
    let telemetry = Telemetry::enabled();
    let report = ServingRuntime::new(Arc::clone(&engine), cluster, 4)
        .with_telemetry(Arc::clone(&telemetry))
        .serve(&requests);

    assert_eq!(report.records.len(), 48);
    assert_eq!(
        report.cache.computations,
        shapes.len() as u64,
        "serving polymerizes each unique shape once: {:?}",
        report.cache
    );
    // Latency decomposition is internally consistent per request. The
    // compile component is a real-clock measurement and only enters the
    // virtual timeline through its explicit projection.
    for record in &report.records {
        assert_eq!(record.compile.clock(), Clock::Real);
        let parts = record.queue_ns + record.compile.onto_virtual_timeline() + record.device_ns;
        assert!((record.timeline_total_ns() - parts).abs() < 1e-9);
        assert!(record.finish_ns >= requests[record.id].arrival_ns);
    }
    // The stream repeats 6 shapes 8 times: later repeats are pure hits,
    // so mean compile must be far below the cold polymerization cost.
    let cold = report
        .records
        .iter()
        .map(|r| r.compile.real_ns())
        .fold(0.0f64, f64::max);
    assert!(cold > 0.0, "someone must have compiled");
    let hit_requests = report
        .records
        .iter()
        .filter(|r| r.compile.is_zero())
        .count();
    assert!(
        hit_requests >= 48 - 2 * shapes.len(),
        "most repeats must be cache hits, got {hit_requests}"
    );
    // The registry mirrors the cache report exactly, and every request
    // produced its phase spans.
    let snap = telemetry.registry().snapshot();
    assert_eq!(snap.counter("serving.requests"), Some(48));
    assert_eq!(snap.counter("cache.hits"), Some(report.cache.hits));
    assert_eq!(
        snap.counter("cache.computations"),
        Some(report.cache.computations)
    );
    assert_eq!(
        snap.counter("cache.coalesced_waits"),
        Some(report.cache.coalesced_waits)
    );
    let spans = telemetry.drain_spans();
    for name in [
        "serving.queue",
        "serving.request",
        "serving.compile",
        "serving.device",
    ] {
        assert_eq!(
            spans.iter().filter(|s| s.name == name).count(),
            48,
            "one '{name}' span per request"
        );
    }
}

#[test]
fn empty_request_stream_is_a_clean_noop() {
    let engine = Arc::new(Engine::offline(MachineModel::a100(), &{
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        o
    }));
    let cluster = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
    let report = ServingRuntime::new(engine, cluster, 4).serve(&[]);
    assert!(report.records.is_empty());
    assert_eq!(report.workers.len(), 4);
    assert!(report.workers.iter().all(|w| w.requests == 0));
    assert_eq!(report.cache.hits, 0);
    assert_eq!(report.cache.misses, 0);
    assert_eq!(report.cache.computations, 0);
    assert_eq!(report.cache.evictions, 0);
    // Makespan is clamped positive so derived rates stay finite.
    assert!(report.makespan_ns > 0.0);
    assert!(report.throughput_rps().is_finite());
}

#[test]
fn single_worker_burst_is_served_fifo() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let engine = Arc::new(Engine::offline(MachineModel::a100(), &options));
    let shapes = shapes();
    // Everything arrives at t=0: a pure burst against one worker and one
    // device must serialize in request-id order.
    let requests: Vec<Request> = (0..12)
        .map(|id| Request::single(id, 0.0, Operator::gemm(shapes[id % shapes.len()])))
        .collect();
    let cluster = Cluster::new(MachineModel::a100(), 1, Interconnect::nvlink3());
    let report = ServingRuntime::new(engine, cluster, 1).serve(&requests);

    assert_eq!(report.records.len(), 12);
    assert!(report
        .records
        .iter()
        .all(|r| r.worker == 0 && r.device == 0));
    // Records are reported in id order; with a single worker the virtual
    // timeline must finish them in that same order, back to back.
    let mut prev_finish = 0.0f64;
    for r in &report.records {
        assert!(
            r.finish_ns >= prev_finish,
            "request {} finished at {} before its predecessor at {}",
            r.id,
            r.finish_ns,
            prev_finish
        );
        prev_finish = r.finish_ns;
        // Burst arrival: everyone after the first waits in queue.
        assert!(r.queue_ns >= 0.0);
    }
    // The lone worker served every request.
    assert_eq!(report.workers[0].requests, 12);
    // Makespan equals the sum of per-request busy time (no idle gaps in a
    // burst against one worker/one device).
    let busy: f64 = report
        .records
        .iter()
        .map(|r| r.compile.onto_virtual_timeline() + r.device_ns)
        .sum();
    assert!((report.makespan_ns - busy).abs() < 1e-6 * busy.max(1.0));
}

#[test]
fn capacity_one_cache_thrashes_and_evicts_under_alternation() {
    use mikpoly_suite::mikpoly::{OnlineOptions, TemplateKind};
    let mut offline = OfflineOptions::fast();
    offline.n_gen = 4;
    let bounded = OnlineOptions {
        cache_capacity: Some(1),
        ..OnlineOptions::default()
    };
    let gemm =
        Arc::new(MikPoly::offline(MachineModel::a100(), &offline).with_options(bounded.clone()));
    let conv = Arc::new(
        MikPoly::offline(
            MachineModel::a100(),
            &offline.clone().with_template(TemplateKind::Conv),
        )
        .with_options(bounded),
    );
    let engine = Arc::new(Engine::from_compilers(MachineModel::a100(), gemm, conv));

    // Two shapes alternating through a capacity-1 cache: every compile
    // after the first evicts the other entry, so nothing is ever a hit.
    let a = GemmShape::new(64, 64, 64);
    let b = GemmShape::new(100, 200, 50);
    let rounds = 4;
    let requests: Vec<Request> = (0..2 * rounds)
        .map(|id| {
            let shape = if id % 2 == 0 { a } else { b };
            Request::single(id, id as f64 * 50_000.0, Operator::gemm(shape))
        })
        .collect();
    let cluster = Cluster::new(MachineModel::a100(), 1, Interconnect::nvlink3());
    let report = ServingRuntime::new(Arc::clone(&engine), cluster, 1).serve(&requests);

    assert_eq!(report.records.len(), 2 * rounds);
    assert_eq!(
        report.cache.computations,
        2 * rounds as u64,
        "capacity 1 + alternation recompiles every request: {:?}",
        report.cache
    );
    assert_eq!(report.cache.hits, 0, "{:?}", report.cache);
    assert!(
        report.cache.evictions >= 2 * rounds as u64 - 1,
        "each insert past the first evicts: {:?}",
        report.cache
    );
    assert!(report.cache.entries <= 1, "{:?}", report.cache);
    // Sanity: the same engine still computes correct results after all
    // that thrashing.
    let program = engine.gemm_compiler().compile(&Operator::gemm(a));
    let ta = Tensor::random(&[a.m, a.k], 51);
    let tb = Tensor::random(&[a.k, a.n], 52);
    let got = execute_gemm(&program, &ta, &tb);
    let want = reference_gemm(a, &ta, &tb);
    mikpoly_conformance::assert_matches_reference(&got, &want, "post-eviction gemm");
}
