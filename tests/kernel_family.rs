//! The compiler's kernel-family table.
//!
//! A `MikPoly` computes the shape-invariant half of its search (the
//! usable kernels, `f_pipe`, occupancy profiles, tile strata and the
//! bound's best FLOP rate) once per (K, dtype, load scale) and keeps it in
//! a bounded table. This test checks that a long-lived compiler, whose
//! table is warm, compiles exactly the programs of a fresh compiler per
//! shape, whose table is cold, on both machines: the full, degraded and
//! split-K rungs over cold BERT projections walked over M, a split-K
//! shape and convolutions. The standalone `try_polymerize` builds a
//! family for one call and must agree with the compiler's search, and the
//! oracle enumerates over the table. The table computes one family per K,
//! stays within its bound, and resets with the options.

use mikpoly_suite::accel_sim::{AllocationPolicy, MachineModel};
use mikpoly_suite::mikpoly::{
    default_patterns, try_polymerize, CompileBudget, CompiledProgram, MicroKernelLibrary, MikPoly,
    OfflineOptions, OnlineOptions, SearchPolicy, SearchStats, TemplateKind, TileStratum,
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

/// The program a fresh compiler with `compiler`'s library and options, so
/// a cold family table, compiles for `op` under `budget`.
fn fresh_program(compiler: &MikPoly, op: &Operator, budget: CompileBudget) -> CompiledProgram {
    let fresh = MikPoly::with_library(compiler.machine().clone(), compiler.library().clone())
        .with_options(compiler.options().clone());
    let reply = fresh.try_compile(op, budget).expect("cold shapes compile");
    (*reply.program).clone()
}

/// The standalone search's program for `op` under the compiler's options
/// (which must not enable split-K: the standalone search has no post-pass).
fn standalone_program(compiler: &MikPoly, op: &Operator) -> CompiledProgram {
    let (machine, options) = (compiler.machine(), compiler.options());
    let patterns = options
        .patterns
        .clone()
        .unwrap_or_else(|| default_patterns(machine));
    try_polymerize(
        machine,
        compiler.library(),
        &op.gemm_view(),
        *op,
        &patterns,
        options.cost_model,
        options.prune,
        &options.search,
        None,
    )
    .expect("a deadline-free search over a generated library cannot fail")
    .program
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
/// both against a fresh compiler, and returns the full program.
fn assert_matches_a_fresh_compiler(compiler: &MikPoly, op: &Operator) -> CompiledProgram {
    let name = &compiler.machine().name;
    let full = compiler
        .try_compile(op, CompileBudget::default())
        .expect("cold shapes compile")
        .program;
    assert_eq!(
        decisions(&full),
        decisions(&fresh_program(compiler, op, CompileBudget::default())),
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
    assert_eq!(
        decisions(&degraded),
        decisions(&fresh_program(compiler, op, degraded_only)),
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
                let program = assert_matches_a_fresh_compiler(&compiler, &op);
                assert_eq!(
                    decisions(&program),
                    decisions(&standalone_program(&compiler, &op)),
                    "{} {op}: standalone search",
                    machine.name
                );
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
            compiler
                .check_invariants()
                .expect("compiler table invariants");
            // The program cache counts programs only.
            let programs = compiler.cache_stats();
            assert_eq!(programs.computations, shapes);
            assert_eq!(programs.entries, shapes);
        }
    }
}

#[test]
fn split_k_and_convolution_programs_match_a_fresh_compiler() {
    let machine = MachineModel::a100();
    let split = MikPoly::with_library(machine.clone(), library(&machine, TemplateKind::Gemm))
        .with_options(OnlineOptions {
            split_k: true,
            ..OnlineOptions::default()
        });
    let deep = Operator::gemm(GemmShape::new(64, 64, 100_000));
    assert_matches_a_fresh_compiler(&split, &deep);
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
            assert_matches_a_fresh_compiler(&conv, &op);
        }
        // All three convolutions reduce over 64·3·3.
        assert_eq!(conv.family_stats().computations, 1);
    }
}

/// The oracle enumerates over the compiler's family table: on a warm
/// compiler it finds the program a fresh compiler finds, from the same
/// candidates, and it builds no family for a K the compiler has already
/// compiled.
#[test]
fn the_oracle_enumerates_over_the_family_table() {
    const CAP: usize = 128;
    for machine in [MachineModel::a100(), MachineModel::ascend910a()] {
        let lib = library(&machine, TemplateKind::Gemm);
        let warm = MikPoly::with_library(machine.clone(), lib.clone());
        // Both K of the walk.
        for op in bert_walk().take(PROJECTIONS.len()) {
            warm.compile(&op);
        }
        let families = warm.family_stats().computations;
        assert_eq!(families, 2, "{}", machine.name);
        for op in bert_walk().skip(PROJECTIONS.len()).step_by(37) {
            let fresh = MikPoly::with_library(machine.clone(), lib.clone());
            let (w, f) = (
                warm.compile_oracle_capped(&op, CAP),
                fresh.compile_oracle_capped(&op, CAP),
            );
            assert_eq!(
                (decisions(&w.program), w.candidates, w.truncated),
                (decisions(&f.program), f.candidates, f.truncated),
                "{} {op}",
                machine.name
            );
            // The fresh compiler's oracle filled its table.
            assert_eq!(
                fresh.family_stats().computations,
                1,
                "{} {op}",
                machine.name
            );
        }
        assert_eq!(
            warm.family_stats().computations,
            families,
            "{}: the oracle reuses the table's families",
            machine.name
        );
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
            decisions(&fresh_program(&compiler, &op, CompileBudget::default()))
        );
        assert!(compiler.family_stats().entries <= 1);
    }
    let families = compiler.family_stats();
    assert!(
        families.evictions > 0 && families.computations > 2,
        "alternating K must churn a one-entry table: {families:?}"
    );
    compiler
        .check_invariants()
        .expect("compiler table invariants");

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
