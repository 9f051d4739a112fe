//! Output checks run on every benchmark run, outside the timed calls.
//!
//! * Every distinct program served is read back from the serving
//!   engine's own cache and passes `verify_coverage`.
//! * A seeded sample of those programs is executed with `execute_gemm`
//!   and compared against `tensor_ir::reference_gemm` under the
//!   conformance comparator.
//! * Every request gets exactly one record, and every record satisfies
//!   total = queue + compile + device.

use std::collections::{HashMap, HashSet};

use mikpoly::{
    decode_bundle, execute_gemm, CompiledProgram, Disposition, Engine, Request, ServingReport,
};
use mikpoly_conformance::{compare_to_reference, Tolerance};
use tensor_ir::{reference_gemm, Operator, Tensor};

/// Programs kept as candidates for the execution sample: the smallest
/// by multiply-accumulate count, so a sample executes in milliseconds.
const EXEC_POOL: usize = 16;
/// Programs executed against the reference per run.
const EXEC_SAMPLE: usize = 2;

/// Problems found by the checks; the first 20 are also printed.
#[derive(Debug, Default)]
pub struct Findings {
    pub problems: Vec<String>,
}

impl Findings {
    pub fn fail(&mut self, problem: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {problem}");
        }
        self.problems.push(problem);
    }

    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Every distinct program a run served, checked once.
#[derive(Default)]
pub struct Ledger {
    /// Operators whose programs passed the checks.
    pub checked: HashSet<Operator>,
    pool: Vec<(usize, CompiledProgram)>,
}

fn macs(op: &Operator) -> usize {
    let s = op.gemm_view().shape;
    s.m * s.n * s.k
}

impl Ledger {
    /// Checks the programs of a just-served batch that are not yet in the
    /// ledger. They are read from a snapshot of the engine's cache, which
    /// leaves the cache's eviction order untouched; a batch's shapes fit
    /// in the cache, so every one of them must still be there.
    pub fn absorb(&mut self, engine: &Engine, requests: &[Request], findings: &mut Findings) {
        let missing: HashSet<Operator> = requests
            .iter()
            .flat_map(|r| r.ops.iter().map(|(op, _)| *op))
            .filter(|op| !self.checked.contains(op))
            .collect();
        if missing.is_empty() {
            return;
        }
        let snapshot: HashMap<Operator, CompiledProgram> =
            match decode_bundle(&engine.gemm_compiler().encode_program_cache()) {
                Ok(programs) => programs.into_iter().map(|p| (p.operator, p)).collect(),
                Err(e) => {
                    findings.fail(format!("program-cache snapshot does not decode: {e}"));
                    HashMap::new()
                }
            };
        for op in missing {
            let Some(program) = snapshot.get(&op) else {
                findings.fail(format!("{op} is not cached right after its batch"));
                continue;
            };
            if let Err(e) = program.verify_coverage() {
                findings.fail(format!("{op}: {e}"));
                continue;
            }
            self.checked.insert(op);
            self.pool.push((macs(&op), program.clone()));
            if self.pool.len() > 2 * EXEC_POOL {
                self.pool
                    .sort_by_key(|(work, p)| (*work, p.operator.to_string()));
                self.pool.truncate(EXEC_POOL);
            }
        }
    }

    /// Executes a seeded sample of the smallest checked programs and
    /// compares each against the reference GEMM.
    pub fn execute_sample(&mut self, seed: u64, findings: &mut Findings) -> usize {
        self.pool
            .sort_by_key(|(work, p)| (*work, p.operator.to_string()));
        self.pool.truncate(EXEC_POOL);
        let mut executed = 0;
        let start = crate::workload::mix(seed, 0xE7EC) as usize;
        for i in 0..EXEC_SAMPLE.min(self.pool.len()) {
            let program = &self.pool[(start + i) % self.pool.len()].1;
            let shape = program.view.shape;
            let a = Tensor::random(&[shape.m, shape.k], seed ^ 0xA);
            let b = Tensor::random(&[shape.k, shape.n], seed ^ 0xB);
            let got = execute_gemm(program, &a, &b);
            let want = reference_gemm(shape, &a, &b);
            if let Err(report) = compare_to_reference(&got, &want, Tolerance::default()) {
                findings.fail(format!("{}: {report}", program.operator));
            }
            executed += 1;
        }
        executed
    }
}

/// Checks one batch's report against its requests: one record per
/// request, and the latency identity on each record.
pub fn check_records(requests: &[Request], report: &ServingReport, findings: &mut Findings) {
    if report.records.len() != requests.len() {
        findings.fail(format!(
            "{} records for {} requests",
            report.records.len(),
            requests.len()
        ));
        return;
    }
    for (request, record) in requests.iter().zip(&report.records) {
        if record.id != request.id {
            findings.fail(format!(
                "record {} where request {} belongs",
                record.id, request.id
            ));
            return;
        }
        let shed = record.disposition == Disposition::Shed;
        if shed != record.shed_reason.is_some() {
            findings.fail(format!(
                "request {}: disposition {:?} with shed reason {:?}",
                request.id, record.disposition, record.shed_reason
            ));
        }
        let total = record.finish_ns - request.arrival_ns;
        let parts = record.timeline_total_ns();
        if (total - parts).abs() > 1e-6 * total.abs().max(1_000.0) {
            findings.fail(format!(
                "request {}: total {total} ns != queue + compile + device {parts} ns",
                request.id
            ));
        }
    }
}
