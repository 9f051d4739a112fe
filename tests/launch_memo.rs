//! The launch memo behind the program-cache slots.
//!
//! The simulator sees a program only through its launch, so cold shapes
//! whose regions round to the same task grids share one simulated device
//! time. The serving path simulates each distinct launch once, keyed by
//! [`LaunchKey`]. This test walks a sample of the cold BERT stream on a
//! bounded engine and checks that the memo is exact (every served device
//! time is the program's own, bit for bit), that its key is sound (equal
//! keys build equal launches), that it really shares, and that it stays
//! within the program cache's bound.

use std::collections::HashMap;
use std::sync::Arc;

use mikpoly_suite::accel_sim::{Launch, MachineModel};
use mikpoly_suite::mikpoly::{
    CacheOutcome, CompileBudget, Engine, LaunchKey, MicroKernelLibrary, MikPoly, OfflineOptions,
    OnlineOptions,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

/// Program-cache (and so launch-memo) bound: well below the sample, so
/// the walk churns both.
const CAPACITY: usize = 32;

/// BERT-base projections as (N, K): QKV, attention output, FFN up, FFN
/// down.
const PROJECTIONS: [(usize, usize); 4] = [(2304, 768), (768, 768), (3072, 768), (768, 3072)];

/// Lengths spread over `1..=8192` in runs of three neighbours, so some
/// neighbours round to the same tile counts, as in the cold walk.
fn lengths() -> Vec<usize> {
    const ANCHORS: usize = 16;
    (0..ANCHORS)
        .flat_map(|a| {
            let anchor = 1 + a * (8192 - 3) / (ANCHORS - 1);
            anchor..anchor + 3
        })
        .collect()
}

fn bounded_engine(machine: MachineModel) -> Engine {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let library = MicroKernelLibrary::generate(&machine, &options);
    let gemm =
        MikPoly::with_library(machine.clone(), library.clone()).with_options(OnlineOptions {
            cache_capacity: Some(CAPACITY),
            ..OnlineOptions::default()
        });
    let conv = MikPoly::with_library(machine.clone(), library);
    Engine::from_compilers(machine, Arc::new(gemm), Arc::new(conv))
}

#[test]
fn cold_shapes_share_exact_device_times_by_launch() {
    for machine in [MachineModel::a100(), MachineModel::ascend910a()] {
        let name = machine.name.clone();
        let engine = bounded_engine(machine);
        let compiler = engine.gemm_compiler();
        let mut launches: HashMap<LaunchKey, (Launch, Option<Launch>)> = HashMap::new();
        let (mut shapes, mut fills) = (0u64, 0u64);
        for len in lengths() {
            for (n, k) in PROJECTIONS {
                let op = Operator::gemm(GemmShape::new(len, n, k));
                let plan = engine
                    .try_plan_graph([(&op, 1)], CompileBudget::default())
                    .expect("cold shapes compile");
                shapes += 1;
                fills += plan.run.compilations as u64;
                let reply = compiler
                    .try_compile(&op, CompileBudget::default())
                    .expect("resident program");
                assert_eq!(
                    reply.outcome,
                    CacheOutcome::Hit,
                    "{name} {op}: fill evicted"
                );
                let program = reply.program;
                let fresh = engine.simulate(&program).time_ns;
                assert_eq!(plan.run.device_ns.to_bits(), fresh.to_bits(), "{name} {op}");

                let launch = (engine.launch_for(&program), program.reduction_launch());
                let known = launches
                    .entry(compiler.launch_key(&program))
                    .or_insert_with(|| launch.clone());
                assert_eq!(*known, launch, "{name} {op}: one key, two launches");
            }
        }

        let memo = compiler.launch_memo_stats();
        assert_eq!(fills, shapes, "{name}: every sampled shape is a fill");
        // An evicted launch may be simulated again, never a new one less.
        assert!(memo.computations >= launches.len() as u64, "{name}");
        assert!(
            memo.computations < fills,
            "{name}: {} simulations for {fills} fills",
            memo.computations
        );
        assert!(memo.evictions > 0, "{name}: the walk churns the memo");
        compiler.check_launch_memo().expect("memo invariants");
        assert!(memo.entries <= CAPACITY as u64, "{name}: {memo:?}");
    }
}
