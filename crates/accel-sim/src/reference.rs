//! The frozen pre-event-core scheduler loop, kept as the differential
//! oracle for the fast core in `crate::scheduler`.
//!
//! This module is a verbatim transplant of the original
//! `simulate_impl`: per-task `filter + max_by_key` admission scan,
//! per-iteration min-scan over every PE's residents, and an eager
//! per-task flatten pass. It is deliberately **not** maintained for
//! speed — its only job is to define ground truth. The equivalence
//! suite (`tests/simulator_equivalence.rs` at the workspace root, plus
//! in-crate tests here) asserts the fast core's `SimReport`s and trace
//! event sets are *bit-identical* to this loop's, so any semantic drift
//! in the fast core is caught as a float-level diff.
//!
//! Compiled only under `cfg(test)` or the `reference-sim` feature, so
//! production consumers pay nothing for it.

use std::collections::VecDeque;

use crate::counters::SimReport;
use crate::machine::{AllocationPolicy, MachineModel};
use crate::scheduler::{lap, SimProfile, TraceEvent};
use crate::task::Launch;
use crate::timing::{measure_pipelined_task, TimingMode};
use std::time::Instant;

const EPS_NS: f64 = 1e-6;

#[derive(Debug, Clone, Copy)]
struct PendingTask {
    base_ns: f64,
    warps: usize,
    local_mem: usize,
    avg_bw: f64,
    group: usize,
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    remaining_base_ns: f64,
    warps: usize,
    local_mem: usize,
    avg_bw: f64,
    group: usize,
    start_ns: f64,
}

#[derive(Debug, Default)]
struct PeState {
    residents: Vec<Resident>,
    used_warps: usize,
    used_mem: usize,
    bw_demand: f64,
    factor: f64,
    util: crate::counters::PeUtilization,
}

impl PeState {
    fn recompute_factor(&mut self, pe_bw: f64) {
        self.factor = (self.bw_demand / pe_bw).max(1.0);
    }

    fn fits(&self, machine: &MachineModel, t: &PendingTask) -> bool {
        self.used_warps + t.warps <= machine.warp_cap_per_pe
            && self.used_mem + t.local_mem <= machine.local_mem_bytes
    }

    fn admit(&mut self, t: &PendingTask, pe_bw: f64, now: f64) {
        self.residents.push(Resident {
            remaining_base_ns: t.base_ns,
            warps: t.warps,
            local_mem: t.local_mem,
            avg_bw: t.avg_bw,
            group: t.group,
            start_ns: now,
        });
        self.used_warps += t.warps;
        self.used_mem += t.local_mem;
        self.bw_demand += t.avg_bw;
        self.recompute_factor(pe_bw);
    }

    fn next_completion_ns(&self) -> Option<f64> {
        self.residents
            .iter()
            .map(|r| r.remaining_base_ns * self.factor)
            .min_by(|a, b| a.total_cmp(b))
    }

    fn advance(
        &mut self,
        dt: f64,
        pe_bw: f64,
        now: f64,
        pe_index: usize,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> bool {
        if self.residents.is_empty() {
            return false;
        }
        self.util.busy_ns += dt;
        self.util.warp_ns += dt * self.used_warps as f64;
        let progress = dt / self.factor;
        let mut finished = false;
        for r in &mut self.residents {
            r.remaining_base_ns -= progress;
        }
        let mut events = trace;
        self.residents.retain(|r| {
            if r.remaining_base_ns <= EPS_NS {
                self.used_warps -= r.warps;
                self.used_mem -= r.local_mem;
                self.bw_demand -= r.avg_bw;
                self.util.tasks += 1;
                if let Some(events) = events.as_deref_mut() {
                    events.push(TraceEvent {
                        pe: pe_index,
                        group: r.group,
                        start_ns: r.start_ns,
                        end_ns: now,
                        warps: r.warps,
                    });
                }
                finished = true;
                false
            } else {
                true
            }
        });
        if finished {
            self.recompute_factor(pe_bw);
        }
        finished
    }
}

fn flatten(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> Vec<(PendingTask, Option<usize>)> {
    let mut out = Vec::with_capacity(launch.grid_size());
    for (group_index, group) in launch.groups.iter().enumerate() {
        let spec = &group.spec;
        assert!(
            spec.warps <= machine.warp_cap_per_pe,
            "task needs {} warps but {} caps PEs at {}",
            spec.warps,
            machine.name,
            machine.warp_cap_per_pe
        );
        assert!(
            spec.shape.fits(machine),
            "task local-memory footprint {} B exceeds M_local = {} B on {}",
            spec.shape.local_mem_bytes(),
            machine.local_mem_bytes,
            machine.name
        );
        if let Some(assignment) = &group.assignment {
            assert_eq!(
                assignment.len(),
                group.count,
                "static assignment length must equal group count"
            );
        }
        let base = measure_pipelined_task(machine, spec, mode);
        let bytes = spec.total_bytes();
        for i in 0..group.count {
            let base_ns = match mode {
                TimingMode::Evaluate => base,
                TimingMode::Measure { seed } => {
                    base * crate::noise::unit_noise(seed ^ 0x5151, &[i as u64], 0.01)
                }
            };
            let task = PendingTask {
                base_ns,
                warps: spec.warps,
                local_mem: spec.shape.local_mem_bytes(),
                avg_bw: bytes / base_ns,
                group: group_index,
            };
            let pe = group.assignment.as_ref().map(|a| {
                assert!(a[i] < machine.num_pes, "assignment targets PE out of range");
                a[i]
            });
            out.push((task, pe));
        }
    }
    out
}

/// The original scheduler loop: simulates one launch and returns timing
/// and counters. Ground truth for the fast [`crate::simulate`].
///
/// # Panics
///
/// Panics on the same malformed launches as the original `simulate`
/// (warp cap, `M_local`, malformed or missing static assignment,
/// admission deadlock).
pub fn simulate_reference(machine: &MachineModel, launch: &Launch, mode: TimingMode) -> SimReport {
    reference_impl(machine, launch, mode, None, None)
}

/// [`simulate_reference`] with every task's trace event, sorted exactly
/// as [`crate::simulate_traced`] sorts its trace.
pub fn simulate_reference_traced(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> (SimReport, Vec<TraceEvent>) {
    let mut trace = Vec::with_capacity(launch.grid_size());
    let report = reference_impl(machine, launch, mode, Some(&mut trace), None);
    trace.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns).then(a.pe.cmp(&b.pe)));
    (report, trace)
}

/// [`simulate_reference`] with the event-loop self-profile, for
/// counter-level (iterations/admissions/wave closes) comparisons and
/// for benchmarking the old loop against the fast core.
pub fn simulate_reference_profiled(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> (SimReport, SimProfile) {
    let mut profile = SimProfile::default();
    let report = reference_impl(machine, launch, mode, None, Some(&mut profile));
    (report, profile)
}

fn reference_impl(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
    mut trace: Option<&mut Vec<TraceEvent>>,
    mut profile: Option<&mut SimProfile>,
) -> SimReport {
    let mut last_lap = profile.as_ref().map(|_| Instant::now());
    let tasks = flatten(machine, launch, mode);
    let pe_bw = machine.pe_bandwidth_bytes_per_ns();
    let mut pes: Vec<PeState> = (0..machine.num_pes)
        .map(|_| PeState {
            factor: 1.0,
            ..PeState::default()
        })
        .collect();

    let static_alloc = machine.allocation == AllocationPolicy::StaticCompilerAssigned;
    let mut global_queue: VecDeque<PendingTask> = VecDeque::new();
    let mut pe_queues: Vec<VecDeque<PendingTask>> = vec![VecDeque::new(); machine.num_pes];
    let total_tasks = tasks.len();
    for (task, pe) in tasks {
        match (static_alloc, pe) {
            (true, Some(p)) => pe_queues[p].push_back(task),
            (true, None) => panic!(
                "machine {} requires compiler-assigned placement but a task group has none",
                machine.name
            ),
            (false, _) => global_queue.push_back(task),
        }
    }

    let mut now = 0.0f64;
    let mut remaining = total_tasks;
    let mut running = 0usize;
    let mut iterations = 0u64;
    let mut admissions = 0u64;
    let mut wave_closes = 0u64;
    lap(&mut last_lap, &mut profile, |p| &mut p.setup_ns);

    loop {
        iterations += 1;
        if static_alloc {
            for (pe, queue) in pes.iter_mut().zip(pe_queues.iter_mut()) {
                while let Some(head) = queue.front() {
                    if pe.fits(machine, head) {
                        let t = queue.pop_front().expect("front checked");
                        pe.admit(&t, pe_bw, now);
                        running += 1;
                        admissions += 1;
                    } else {
                        break;
                    }
                }
            }
        } else {
            while let Some(head) = global_queue.front() {
                let candidate = pes
                    .iter()
                    .enumerate()
                    .filter(|(_, pe)| pe.fits(machine, head))
                    .max_by_key(|(i, pe)| {
                        (machine.warp_cap_per_pe - pe.used_warps, usize::MAX - *i)
                    })
                    .map(|(i, _)| i);
                match candidate {
                    Some(i) => {
                        let t = global_queue.pop_front().expect("front checked");
                        pes[i].admit(&t, pe_bw, now);
                        running += 1;
                        admissions += 1;
                    }
                    None => break,
                }
            }
        }

        lap(&mut last_lap, &mut profile, |p| &mut p.admission_ns);

        if running == 0 {
            assert_eq!(remaining, 0, "deadlock: pending tasks fit on no PE");
            break;
        }

        let dt = pes
            .iter()
            .filter_map(PeState::next_completion_ns)
            .min_by(|a, b| a.total_cmp(b))
            .expect("running > 0 implies a completion exists");
        let dt = dt.max(EPS_NS);
        now += dt;
        lap(&mut last_lap, &mut profile, |p| &mut p.pick_ns);

        let mut wave_closed = false;
        for (pe_index, pe) in pes.iter_mut().enumerate() {
            let before = pe.residents.len();
            pe.advance(dt, pe_bw, now, pe_index, trace.as_deref_mut());
            let done = before - pe.residents.len();
            running -= done;
            remaining -= done;
            wave_closed |= done > 0 && pe.residents.is_empty();
        }
        wave_closes += u64::from(wave_closed);
        lap(&mut last_lap, &mut profile, |p| &mut p.advance_ns);
    }

    let device_ns = now;
    let time_ns = device_ns + machine.launch_overhead_ns;
    let busy: f64 = pes.iter().map(|p| p.util.busy_ns).sum();
    let warp_ns: f64 = pes.iter().map(|p| p.util.warp_ns).sum();
    let sm_efficiency = if device_ns > 0.0 {
        busy / (device_ns * machine.num_pes as f64)
    } else {
        0.0
    };
    let achieved_occupancy = if busy > 0.0 {
        warp_ns / (busy * machine.warp_cap_per_pe as f64)
    } else {
        0.0
    };

    let report = SimReport {
        time_ns,
        device_ns,
        grid_size: total_tasks,
        sm_efficiency,
        elapsed_cycles_sm: device_ns * machine.clock_ghz * machine.num_pes as f64,
        achieved_occupancy,
        total_flops: launch.total_flops(),
        per_pe: pes.into_iter().map(|p| p.util).collect(),
    };
    if let Some(p) = profile.as_deref_mut() {
        p.iterations = iterations;
        p.admissions = admissions;
        p.wave_closes = wave_closes;
    }
    lap(&mut last_lap, &mut profile, |p| &mut p.finalize_ns);
    report
}
