//! The compiler's kernel-family table.
//!
//! A `MikPoly` computes the shape-invariant half of its search (the
//! usable kernels, `f_pipe`, occupancy profiles, tile strata and the
//! bound's best FLOP rate) once per (K, dtype, load scale) and keeps it in
//! a bounded table. The free `try_polymerize`, `polymerize_degraded` and
//! `improve_with_split_k` build the same family for one call. This test
//! checks that both paths compile identical programs on both machines —
//! cold BERT projections walked over M, a split-K shape and a
//! convolution — and that the table computes one family per K, stays
//! within its bound, and resets with the options.

use mikpoly_suite::accel_sim::{AllocationPolicy, MachineModel};
use mikpoly_suite::mikpoly::{
    default_patterns, improve_with_split_k, polymerize_degraded, try_polymerize, CompileBudget,
    CompiledProgram, CostModelKind, MicroKernelLibrary, MikPoly, OfflineOptions, OnlineOptions,
    SearchPolicy, SearchStats, TemplateKind, TileStratum,
};
use mikpoly_suite::tensor_ir::{Conv2dShape, GemmShape, Operator};

/// BERT-base projections as (N, K): QKV, attention output, FFN up, FFN
/// down. Two distinct K, so two families.
const PROJECTIONS: [(usize, usize); 4] = [(2304, 768), (768, 768), (3072, 768), (768, 3072)];

/// Sequence lengths walked over `1..=8192`.
fn lengths() -> impl Iterator<Item = usize> {
    (1..=8192).step_by(241).chain([8192])
}

fn bert_walk() -> impl Iterator<Item = Operator> {
    lengths().flat_map(|m| {
        PROJECTIONS
            .iter()
            .map(move |&(n, k)| Operator::gemm(GemmShape::new(m, n, k)))
    })
}

fn library(machine: &MachineModel, template: TemplateKind) -> MicroKernelLibrary {
    MicroKernelLibrary::generate(machine, &OfflineOptions::fast().with_template(template))
}

/// The program the free functions compile for `op` under the compiler's
/// own options: the search, then split-K where the compiler enables it.
fn free_program(compiler: &MikPoly, op: &Operator) -> CompiledProgram {
    let (machine, library, options) = (compiler.machine(), compiler.library(), compiler.options());
    let patterns = options
        .patterns
        .clone()
        .unwrap_or_else(|| default_patterns(machine));
    let view = op.gemm_view();
    let program = try_polymerize(
        machine,
        library,
        &view,
        *op,
        &patterns,
        options.cost_model,
        options.prune,
        &options.search,
        None,
    )
    .expect("a deadline-free search over a generated library cannot fail")
    .program;
    if options.split_k && options.cost_model == CostModelKind::Full {
        improve_with_split_k(machine, library, &view, program)
    } else {
        program
    }
}

/// Every field of the program but the host-timed `search_ns`.
fn decisions(program: &CompiledProgram) -> impl PartialEq + std::fmt::Debug {
    let stats = SearchStats {
        search_ns: 0,
        ..program.stats
    };
    (
        program.operator,
        program.pattern,
        program.regions.clone(),
        program.split_k,
        program.predicted_ns.to_bits(),
        stats,
    )
}

/// Compiles `op` through the compiler's full and degraded rungs, checks
/// both against the free functions, and returns the full program.
fn assert_matches_free_functions(compiler: &MikPoly, op: &Operator) -> CompiledProgram {
    let name = &compiler.machine().name;
    let full = compiler
        .try_compile(op, CompileBudget::default())
        .expect("cold shapes compile")
        .program;
    assert_eq!(
        decisions(&full),
        decisions(&free_program(compiler, op)),
        "{name} {op}: full search"
    );
    let degraded_only = CompileBudget {
        degrade_only: true,
        ..CompileBudget::default()
    };
    let degraded = compiler
        .try_compile(op, degraded_only)
        .expect("the degraded path cannot fail")
        .program;
    let free_degraded =
        polymerize_degraded(compiler.machine(), compiler.library(), &op.gemm_view(), *op)
            .expect("the degraded path cannot fail");
    assert_eq!(
        decisions(&degraded),
        decisions(&free_degraded),
        "{name} {op}: degraded path"
    );
    (*full).clone()
}

#[test]
fn bert_walk_compiles_the_free_search_programs_from_two_families() {
    for machine in [MachineModel::a100(), MachineModel::ascend910a()] {
        let lib = library(&machine, TemplateKind::Gemm);
        // A shortlist below the library size makes the deep NPU patterns
        // draw from the stratified prefix.
        let narrow = OnlineOptions {
            search: SearchPolicy {
                shortlist: 4,
                ..SearchPolicy::default()
            },
            ..OnlineOptions::default()
        };
        let npu = machine.allocation == AllocationPolicy::StaticCompilerAssigned;
        for (options, narrowed) in [(OnlineOptions::default(), false), (narrow, true)] {
            let compiler =
                MikPoly::with_library(machine.clone(), lib.clone()).with_options(options);
            let (mut shapes, mut truncated) = (0u64, 0usize);
            for op in bert_walk() {
                let program = assert_matches_free_functions(&compiler, &op);
                truncated += program.stats.shortlist_truncated;
                shapes += 1;
            }
            // Only the NPU has deep patterns, and only the narrow
            // shortlist is shorter than the library.
            assert_eq!(truncated > 0, npu && narrowed, "{}", machine.name);
            let families = compiler.family_stats();
            assert_eq!(
                families.computations, 2,
                "{}: one family per K",
                machine.name
            );
            assert_eq!(families.entries, 2);
            compiler.check_families().expect("family table invariants");
            // The program cache counts programs only.
            let programs = compiler.cache_stats();
            assert_eq!(programs.computations, shapes);
            assert_eq!(programs.entries, shapes);
        }
    }
}

#[test]
fn split_k_and_convolution_programs_match_the_free_functions() {
    let machine = MachineModel::a100();
    let split = MikPoly::with_library(machine.clone(), library(&machine, TemplateKind::Gemm))
        .with_options(OnlineOptions {
            split_k: true,
            ..OnlineOptions::default()
        });
    let deep = Operator::gemm(GemmShape::new(64, 64, 100_000));
    assert_matches_free_functions(&split, &deep);
    assert!(split.compile(&deep).split_k > 1, "split-K must fire");

    for machine in [MachineModel::a100(), MachineModel::ascend910a()] {
        let conv = MikPoly::with_library(machine.clone(), library(&machine, TemplateKind::Conv));
        for (batch, resolution) in [(1, 56), (4, 28), (8, 14)] {
            let op = Operator::conv2d(Conv2dShape::new(
                batch, 64, resolution, resolution, 64, 3, 3, 1, 1,
            ));
            assert!(
                op.gemm_view().load_scale > 1.0,
                "the im2col gather scales loads"
            );
            assert_matches_free_functions(&conv, &op);
        }
        // All three convolutions reduce over 64·3·3.
        assert_eq!(conv.family_stats().computations, 1);
    }
}

#[test]
fn bounded_table_stays_within_capacity_and_resets_with_the_options() {
    let machine = MachineModel::a100();
    let bounded = OnlineOptions {
        cache_capacity: Some(1),
        ..OnlineOptions::default()
    };
    let compiler = MikPoly::with_library(machine.clone(), library(&machine, TemplateKind::Gemm))
        .with_options(bounded.clone());
    for op in bert_walk().take(64) {
        let program = compiler.compile(&op);
        assert_eq!(
            decisions(&program),
            decisions(&free_program(&compiler, &op))
        );
        assert!(compiler.family_stats().entries <= 1);
    }
    let families = compiler.family_stats();
    assert!(
        families.evictions > 0 && families.computations > 2,
        "alternating K must churn a one-entry table: {families:?}"
    );
    compiler.check_families().expect("family table invariants");

    let reset = compiler.with_options(bounded);
    let families = reset.family_stats();
    assert_eq!((families.entries, families.computations), (0, 0));
    assert_eq!(reset.cache_stats().entries, 0);
}

/// Libraries saved before the tile strata moved into the search carry an
/// `"index"` of kernel ids per stratum. The key is ignored on load, and
/// the library compiles the same programs.
#[test]
fn a_saved_library_with_a_stratum_index_loads_and_compiles_the_same_programs() {
    let machine = MachineModel::a100();
    let lib = library(&machine, TemplateKind::Gemm);
    let path =
        std::env::temp_dir().join(format!("mikpoly-indexed-lib-{}.json", std::process::id()));
    lib.save(&path).expect("save");
    let json = std::fs::read_to_string(&path).expect("read back");

    let mut strata: Vec<(TileStratum, Vec<usize>)> = Vec::new();
    for t in &lib.kernels {
        let stratum = TileStratum::of(&t.kernel);
        match strata.iter_mut().find(|(s, _)| *s == stratum) {
            Some((_, ids)) => ids.push(t.kernel.id.0),
            None => strata.push((stratum, vec![t.kernel.id.0])),
        }
    }
    let entries: Vec<String> = strata
        .iter()
        .map(|(s, ids)| {
            format!(
                r#"[{{"aspect":"{:?}","area":"{:?}"}},{ids:?}]"#,
                s.aspect, s.area
            )
        })
        .collect();
    let body = json.strip_suffix('}').expect("a JSON object");
    let indexed = format!(r#"{body},"index":{{"strata":[{}]}}}}"#, entries.join(","));
    std::fs::write(&path, indexed).expect("write indexed library");
    let loaded = MicroKernelLibrary::load(&path);
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("an unknown key is ignored");
    assert_eq!(loaded, lib);

    let fresh = MikPoly::with_library(machine.clone(), lib);
    let restored = MikPoly::with_library(machine, loaded);
    for op in bert_walk().step_by(7) {
        assert_eq!(
            decisions(&fresh.compile(&op)),
            decisions(&restored.compile(&op)),
            "{op}"
        );
    }
}
