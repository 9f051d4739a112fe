//! Integration tests for the `Engine` runtime across the model zoo:
//! routing, algorithm selection, staging, and AOT warm-up working together.

use std::sync::{Arc, OnceLock};

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::{ConvAlgorithm, Engine, MikPoly, OfflineOptions, TemplateKind};
use mikpoly_suite::models::{CnnConfig, TransformerConfig, VitConfig};
use mikpoly_suite::tensor_ir::Operator;

fn engine() -> &'static Engine {
    static E: OnceLock<Engine> = OnceLock::new();
    E.get_or_init(|| {
        let mut options = OfflineOptions::fast();
        options.n_gen = 4;
        Engine::offline(MachineModel::a100(), &options)
            .with_conv_algorithm(ConvAlgorithm::CostBased)
    })
}

#[test]
fn engine_runs_every_model_in_the_zoo() {
    let graphs = vec![
        TransformerConfig::bert_base().graph(1, 60),
        CnnConfig::alexnet().graph(1, 64),
        CnnConfig::googlenet().graph(1, 64),
        CnnConfig::resnet18().graph(1, 64),
        CnnConfig::vgg11().graph(1, 64),
        VitConfig::vit_b16().graph(1, 64),
    ];
    for graph in graphs {
        let result = engine().run_graph(graph.ops.iter().map(|o| (&o.operator, o.count)));
        assert!(result.device_ns > 0.0, "{graph}");
        assert_eq!(result.executions, graph.num_executions(), "{graph}");
        assert!(
            result.compilations <= graph.num_unique_shapes() * 2,
            "{graph}"
        );
    }
}

#[test]
fn cost_based_selection_only_rewrites_eligible_convs() {
    let graph = CnnConfig::resnet18().graph(2, 64);
    for op in &graph.ops {
        let dispatched = engine().select(&op.operator);
        match op.operator {
            Operator::Conv2d { shape, .. } => {
                if shape.kernel_h != 3 || shape.stride != 1 {
                    assert_eq!(dispatched.kind(), "conv2d", "{}", op.name);
                }
            }
            _ => assert_eq!(dispatched, op.operator, "{}", op.name),
        }
    }
}

#[test]
fn staged_execution_covers_all_ops_exactly_once() {
    let graph = CnnConfig::googlenet().graph(1, 96);
    let staged: usize = graph.stages().iter().map(|s| s.len()).sum();
    assert_eq!(staged, graph.ops.len());
    // Stages are ordered and non-empty.
    for stage in graph.stages() {
        assert!(!stage.is_empty());
    }
}

#[test]
fn engine_cache_is_shared_across_graph_runs() {
    let graph = TransformerConfig::distilbert().graph(1, 44);
    let first = engine().run_graph(graph.ops.iter().map(|o| (&o.operator, o.count)));
    let second = engine().run_graph(graph.ops.iter().map(|o| (&o.operator, o.count)));
    assert!(first.device_ns > 0.0);
    assert_eq!(second.compilations, 0, "second pass must be fully cached");
    assert!((first.device_ns - second.device_ns).abs() < 1e-6);
}

#[test]
fn aot_bundles_move_between_engine_instances() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let machine = MachineModel::a100();
    let producer = MikPoly::offline(machine.clone(), &options);
    let graph = VitConfig::vit_b16().graph(1, 96);
    let ops: Vec<Operator> = graph
        .ops
        .iter()
        .filter(|o| o.operator.kind() != "conv2d")
        .map(|o| o.operator)
        .collect();
    producer.compile_many(&ops);
    let bundle = producer.encode_program_cache();

    let consumer_gemm = Arc::new(MikPoly::with_library(
        machine.clone(),
        producer.library().clone(),
    ));
    consumer_gemm
        .load_program_cache_bytes(&bundle)
        .expect("load");
    let consumer = Engine::from_compilers(
        machine.clone(),
        consumer_gemm,
        Arc::new(MikPoly::offline(
            machine,
            &options.clone().with_template(TemplateKind::Conv),
        )),
    );
    for op in &ops {
        assert_eq!(consumer.run_operator(op).run.compile_ns, 0, "{op}");
    }
}
