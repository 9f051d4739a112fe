//! One device-time rule for both dispatch policies.
//!
//! Solo dispatch charges a request `plan.run.device_ns`, the sum of each
//! operator's memoized solo time times its graph weight. Batched dispatch
//! charges a wave of `k` members `colaunch::wave_device_ns(ops, k)`. For
//! `k = 1` the two must agree bit for bit, or a request's device time
//! would depend on the policy that served it alone.

use std::path::PathBuf;

use mikpoly_conformance::{load_corpus, ConformanceEnv, MachineKind};
use mikpoly_suite::mikpoly::serving::colaunch::wave_device_ns;
use mikpoly_suite::mikpoly::CompileBudget;
use mikpoly_suite::tensor_ir::Operator;

fn pinned_ops() -> Vec<Operator> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/pinned-shapes.json");
    load_corpus(path)
        .expect("corpus must parse")
        .iter()
        .map(|case| case.op.operator())
        .collect()
}

#[test]
fn a_singleton_wave_costs_the_solo_device_time() {
    let env = ConformanceEnv::fast();
    let ops = pinned_ops();
    for kind in [MachineKind::Gpu, MachineKind::Npu] {
        let engine = env.engine(kind);
        for op in &ops {
            // Twice: the first plan simulates, the second reads the memo.
            for _ in 0..2 {
                let plan = engine
                    .try_plan_graph([(op, 1)], CompileBudget::default())
                    .expect("pinned shapes compile");
                let wave = wave_device_ns(engine.machine(), &plan.ops, 1);
                assert_eq!(
                    wave.to_bits(),
                    plan.run.device_ns.to_bits(),
                    "{kind:?} {op}: wave {wave} vs solo {}",
                    plan.run.device_ns
                );
            }
        }
        // A whole forward pass, with graph weights.
        let graph: Vec<(&Operator, usize)> = ops.iter().zip((1..4).cycle()).collect();
        let plan = engine
            .try_plan_graph(graph, CompileBudget::default())
            .expect("pinned shapes compile");
        assert_eq!(
            wave_device_ns(engine.machine(), &plan.ops, 1).to_bits(),
            plan.run.device_ns.to_bits(),
            "{kind:?}: whole corpus"
        );
    }
}
