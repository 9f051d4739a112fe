//! Event-driven execution of launches across PEs.
//!
//! Tasks are admitted to PEs as warp slots and `M_local` capacity permit,
//! mirroring the GPU's hardware block scheduler
//! ([`AllocationPolicy::DynamicHardware`]) or a compiler-provided static
//! placement ([`AllocationPolicy::StaticCompilerAssigned`], the NPU path).
//! Co-resident tasks on a PE occupy disjoint warp slots (compute throughput
//! is warp-partitioned, see [`crate::KernelTiming`]); if their aggregate
//! memory demand exceeds the PE's bandwidth share, all residents slow down
//! proportionally (the congestion factor).
//!
//! This reproduces the paper's wave behaviour: a grid of `g` tasks that each
//! occupy a full PE executes in `ceil(g / |P_multi|)` waves, and a nearly
//! empty tail wave shows up as a drop in `sm_efficiency` (Fig. 15, Table 9).
//!
//! # The fast core and its oracle
//!
//! The loop here is the *event-driven fast core*: admission goes through
//! a free-warp bucket index with a homogeneous-batch fast path
//! ([`crate::admission`]), completion picking and advancing touch only
//! busy PEs via a bitset and a cached per-PE earliest resident
//! ([`crate::events`]), and per-group timing profiles are computed once
//! per launch instead of once per task. The original loop survives as
//! [`crate::reference::simulate_reference`] (under `cfg(test)` or the
//! `reference-sim` feature) and the differential-equivalence suite
//! asserts the two produce **bit-identical** reports and traces — the
//! fast core performs the same floating-point operations in the same
//! order, it just locates work with indexes instead of scans.

use std::collections::VecDeque;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::admission::{FreeWarpIndex, GroupRun, TaskStream};
use crate::counters::SimReport;
use crate::error::SimError;
use crate::events::{EventPe, PeSet, PendingTask, EPS_NS};
use crate::machine::{AllocationPolicy, MachineModel};
use crate::task::Launch;
use crate::timing::{measure_pipelined_task, TimingMode};

/// One task's lifetime in a traced simulation: which PE ran it, when, and
/// how many warps it occupied — the raw material of the paper's Fig. 15(b)
/// warp-time rectangles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// PE the task ran on.
    pub pe: usize,
    /// Index of the task's group within the launch.
    pub group: usize,
    /// Admission time, ns.
    pub start_ns: f64,
    /// Completion time, ns.
    pub end_ns: f64,
    /// Warps occupied while resident.
    pub warps: usize,
}

/// Self-profile of one simulator run: event-loop counters plus real
/// wall-clock attribution per phase of the hot loop. Collected only by
/// [`simulate_profiled`] — the plain [`simulate`] path takes no clock
/// reads and pays nothing.
///
/// The per-phase times come from a single relayed lap timer (one
/// `Instant::now()` per phase boundary), so
/// [`SimProfile::attributed_ns`] accounts for the whole run by
/// construction; the only unattributed time is the clock reads
/// themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimProfile {
    /// Event-loop iterations, including the final empty pass that
    /// detects completion.
    pub iterations: u64,
    /// Tasks admitted to a PE (equals the grid size at completion).
    pub admissions: u64,
    /// Iterations in which some PE drained to idle — wave boundaries.
    pub wave_closes: u64,
    /// Launch validation and per-group profile precomputation (timing
    /// model, footprints, static queues, admission index), ns. Unlike
    /// the pre-event-core loop this does *not* scale with the grid
    /// size on dynamic machines — tasks are materialized lazily during
    /// admission.
    pub setup_ns: u64,
    /// Admitting pending tasks to PEs, ns. In the event core this
    /// includes materializing each task from its group profile and
    /// maintaining the free-warp bucket index.
    pub admission_ns: u64,
    /// Finding the earliest completion, ns — a scan of the cached
    /// next-completion of each *busy* PE, not of every resident.
    pub pick_ns: u64,
    /// Advancing busy-PE residents and retiring completions (including
    /// busy-set and index maintenance), ns.
    pub advance_ns: u64,
    /// Aggregating utilization counters into the report, ns.
    pub finalize_ns: u64,
}

impl SimProfile {
    /// Total wall time attributed to a phase. Within clock-read noise of
    /// the run's true wall time (the lap timer is relayed, never reset).
    pub fn attributed_ns(&self) -> u64 {
        self.setup_ns + self.admission_ns + self.pick_ns + self.advance_ns + self.finalize_ns
    }
}

/// Relays the lap timer: charges the time since the last boundary to the
/// bucket `pick` selects. No-op (and no clock read) when not profiling.
pub(crate) fn lap(
    last: &mut Option<Instant>,
    profile: &mut Option<&mut SimProfile>,
    pick: fn(&mut SimProfile) -> &mut u64,
) {
    if let (Some(last), Some(p)) = (last.as_mut(), profile.as_deref_mut()) {
        let now = Instant::now();
        *pick(p) += now.duration_since(*last).as_nanos() as u64;
        *last = now;
    }
}

/// Validates the launch and computes one [`GroupRun`] per group —
/// timing model and footprint evaluated once per *group*, not per task.
/// Check order matches the reference flatten pass exactly (warp cap,
/// `M_local`, assignment length, assignment range; group by group) so
/// a launch with several defects reports the same one first.
fn build_group_runs(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> Result<Vec<GroupRun>, SimError> {
    let mut runs = Vec::with_capacity(launch.groups.len());
    for (group_index, group) in launch.groups.iter().enumerate() {
        let spec = &group.spec;
        if spec.warps > machine.warp_cap_per_pe {
            return Err(SimError::WarpCapExceeded {
                warps: spec.warps,
                cap: machine.warp_cap_per_pe,
                machine: machine.name.clone(),
            });
        }
        if !spec.shape.fits(machine) {
            return Err(SimError::LocalMemExceeded {
                bytes: spec.shape.local_mem_bytes(),
                capacity: machine.local_mem_bytes,
                machine: machine.name.clone(),
            });
        }
        if let Some(assignment) = &group.assignment {
            if assignment.len() != group.count {
                return Err(SimError::AssignmentLengthMismatch {
                    len: assignment.len(),
                    count: group.count,
                });
            }
            if let Some(&pe) = assignment.iter().find(|&&pe| pe >= machine.num_pes) {
                return Err(SimError::AssignmentOutOfRange {
                    pe,
                    num_pes: machine.num_pes,
                });
            }
        }
        runs.push(GroupRun {
            base_ns: measure_pipelined_task(machine, spec, mode),
            bytes: spec.total_bytes(),
            warps: spec.warps,
            local_mem: spec.shape.local_mem_bytes(),
            count: group.count,
            group: group_index,
        });
    }
    Ok(runs)
}

/// Simulates one launch on the machine, returning timing and counters.
///
/// # Panics
///
/// Panics if a task exceeds the PE warp cap or `M_local`, if a static
/// assignment is malformed, or if the machine requires static placement but
/// a group has none — see [`try_simulate`] for the non-panicking form.
pub fn simulate(machine: &MachineModel, launch: &Launch, mode: TimingMode) -> SimReport {
    try_simulate(machine, launch, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`simulate`], but reports a malformed launch as a typed
/// [`SimError`] instead of panicking — the form serving workers use so
/// a bad launch cannot take a worker down outside its `catch_unwind`
/// boundary.
///
/// # Errors
///
/// Every [`SimError`] variant: warp-cap or `M_local` overflow, a
/// malformed or missing static assignment, or an admission deadlock.
pub fn try_simulate(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> Result<SimReport, SimError> {
    simulate_impl(machine, launch, mode, None, None)
}

/// Like [`simulate`], additionally self-profiling the event loop: phase
/// wall-clock attribution and iteration/admission/wave counters. The
/// returned report is bit-identical to the unprofiled one (profiling
/// never touches the virtual timeline).
pub fn simulate_profiled(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> (SimReport, SimProfile) {
    let mut profile = SimProfile::default();
    let report = simulate_impl(machine, launch, mode, None, Some(&mut profile))
        .unwrap_or_else(|e| panic!("{e}"));
    (report, profile)
}

/// Like [`simulate`], additionally returning every task's `(pe, start,
/// end, warps)` lifetime — the data behind the paper's Fig. 15(b)
/// warp-over-time view.
///
/// # Panics
///
/// On the same malformed launches as [`simulate`].
pub fn simulate_traced(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
) -> (SimReport, Vec<TraceEvent>) {
    let mut trace = Vec::with_capacity(launch.grid_size());
    let report = simulate_impl(machine, launch, mode, Some(&mut trace), None)
        .unwrap_or_else(|e| panic!("{e}"));
    trace.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns).then(a.pe.cmp(&b.pe)));
    (report, trace)
}

fn simulate_impl(
    machine: &MachineModel,
    launch: &Launch,
    mode: TimingMode,
    mut trace: Option<&mut Vec<TraceEvent>>,
    mut profile: Option<&mut SimProfile>,
) -> Result<SimReport, SimError> {
    let mut last_lap = profile.as_ref().map(|_| Instant::now());
    let runs = build_group_runs(machine, launch, mode)?;
    let static_alloc = machine.allocation == AllocationPolicy::StaticCompilerAssigned;
    let pe_bw = machine.pe_bandwidth_bytes_per_ns();
    let warp_cap = machine.warp_cap_per_pe;
    let mut pes: Vec<EventPe> = (0..machine.num_pes).map(|_| EventPe::idle()).collect();
    let mut busy = PeSet::new(machine.num_pes);
    let total_tasks = launch.grid_size();

    // Static placement: materialize per-PE FIFOs up front (the order a
    // compiler-assigned queue executes in is part of the contract).
    // Dynamic placement: tasks stay virtual in the group runs and are
    // materialized lazily at admission.
    let mut index = FreeWarpIndex::new(machine);
    let mut dirty = PeSet::new(machine.num_pes);
    let mut pe_queues: Vec<VecDeque<PendingTask>> = Vec::new();
    let mut stream = TaskStream::new(&runs, mode);
    if static_alloc {
        pe_queues = vec![VecDeque::new(); machine.num_pes];
        for (run, group) in runs.iter().zip(&launch.groups) {
            let Some(assignment) = &group.assignment else {
                if run.count == 0 {
                    continue;
                }
                return Err(SimError::MissingAssignment {
                    machine: machine.name.clone(),
                });
            };
            for (i, &pe) in assignment.iter().enumerate() {
                pe_queues[pe].push_back(run.task(i, mode));
            }
        }
        for (pe, queue) in pe_queues.iter().enumerate() {
            if !queue.is_empty() {
                dirty.insert(pe);
            }
        }
    }

    let mut now = 0.0f64;
    let mut remaining = total_tasks;
    let mut running = 0usize;
    // Loop counters are plain locals (no clock reads, no atomics) and are
    // published into the profile only at finalize, so the unprofiled path
    // stays hot-loop clean.
    let mut iterations = 0u64;
    let mut admissions = 0u64;
    let mut wave_closes = 0u64;
    lap(&mut last_lap, &mut profile, |p| &mut p.setup_ns);

    loop {
        iterations += 1;
        // Admission phase.
        if static_alloc {
            // Only PEs whose state changed since their last check (or
            // that were never checked) can newly admit their head task;
            // everything else would reproduce its previous veto.
            for wi in 0..dirty.word_count() {
                let mut bits = dirty.word(wi);
                while bits != 0 {
                    let pe_i = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    dirty.remove(pe_i);
                    let pe = &mut pes[pe_i];
                    while let Some(head) = pe_queues[pe_i].front() {
                        if pe.fits(machine, head) {
                            let t = pe_queues[pe_i].pop_front().expect("front checked");
                            pe.admit(&t, pe_bw, now);
                            busy.insert(pe_i);
                            running += 1;
                            admissions += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
        } else {
            // Pick the PE with the most free warp slots (ties: lowest
            // index), matching the hardware scheduler's load-levelling —
            // located through the bucket index. Within one run of
            // identical-footprint tasks the bucket scan never restarts:
            // admissions only move PEs to lower buckets, and a PE that
            // failed the M_local veto for this footprint keeps failing it.
            'admit: while let Some((warps, local_mem)) = stream.head_footprint() {
                let mut bucket = index.cap;
                loop {
                    let mut wi = 0;
                    while wi < busy.word_count() {
                        let mut bits = index.bucket(bucket)[wi];
                        while bits != 0 {
                            let pe_i = wi * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            if !pes[pe_i].fits_mem(machine, local_mem) {
                                continue;
                            }
                            let t = stream.take();
                            pes[pe_i].admit(&t, pe_bw, now);
                            index.relocate(pe_i, bucket, warp_cap - pes[pe_i].used_warps);
                            busy.insert(pe_i);
                            running += 1;
                            admissions += 1;
                            match stream.head_footprint() {
                                None => break 'admit,
                                // Footprint changed (next group): restart
                                // the bucket scan from the top.
                                Some(fp) if fp != (warps, local_mem) => continue 'admit,
                                Some(_) => {}
                            }
                        }
                        wi += 1;
                    }
                    if bucket == warps {
                        // The head task fits no PE right now; admission
                        // stalls until a completion frees capacity.
                        break 'admit;
                    }
                    bucket -= 1;
                }
            }
        }

        lap(&mut last_lap, &mut profile, |p| &mut p.admission_ns);

        if running == 0 {
            if remaining != 0 {
                return Err(SimError::Deadlock { pending: remaining });
            }
            break;
        }

        // Find the earliest completion across busy PEs. Each PE's next
        // completion is cached (see `EventPe::next_completion_ns`), so
        // this is O(busy PEs), not O(residents).
        let mut dt = f64::INFINITY;
        busy.for_each(|pe_i| {
            let c = pes[pe_i].next_completion_ns();
            if c.total_cmp(&dt).is_lt() {
                dt = c;
            }
        });
        let dt = dt.max(EPS_NS);
        now += dt;
        lap(&mut last_lap, &mut profile, |p| &mut p.pick_ns);

        // Advance only busy PEs, in ascending index order (trace events
        // are pushed in the same order the reference's full sweep used).
        let mut wave_closed = false;
        for wi in 0..busy.word_count() {
            let mut bits = busy.word(wi);
            while bits != 0 {
                let pe_i = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let before = pes[pe_i].resident_count();
                let old_free = warp_cap - pes[pe_i].used_warps;
                let finished = pes[pe_i].advance(dt, pe_bw, now, pe_i, trace.as_deref_mut());
                if finished {
                    let done = before - pes[pe_i].resident_count();
                    running -= done;
                    remaining -= done;
                    if static_alloc {
                        dirty.insert(pe_i);
                    } else {
                        index.relocate(pe_i, old_free, warp_cap - pes[pe_i].used_warps);
                    }
                    if !pes[pe_i].is_busy() {
                        busy.remove(pe_i);
                        wave_closed = true;
                    }
                }
            }
        }
        wave_closes += u64::from(wave_closed);
        lap(&mut last_lap, &mut profile, |p| &mut p.advance_ns);
    }

    let device_ns = now;
    let time_ns = device_ns + machine.launch_overhead_ns;
    let busy_ns: f64 = pes.iter().map(|p| p.util.busy_ns).sum();
    let warp_ns: f64 = pes.iter().map(|p| p.util.warp_ns).sum();
    let sm_efficiency = if device_ns > 0.0 {
        busy_ns / (device_ns * machine.num_pes as f64)
    } else {
        0.0
    };
    let achieved_occupancy = if busy_ns > 0.0 {
        warp_ns / (busy_ns * machine.warp_cap_per_pe as f64)
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
    // Free the loop state (the task stream only borrows `runs`) before
    // the last lap, so the profile attributes the whole call and not all
    // but its tail.
    drop((index, busy, dirty, pe_queues, runs));
    lap(&mut last_lap, &mut profile, |p| &mut p.finalize_ns);
    Ok(report)
}

/// Simulates a sequence of launches executed back to back (one operator
/// region sequence, or a whole model's operator list).
///
/// # Errors
///
/// Exactly those of [`try_simulate`], from the first malformed launch.
pub fn try_simulate_launches(
    machine: &MachineModel,
    launches: &[Launch],
    mode: TimingMode,
) -> Result<SimReport, SimError> {
    let mut acc = SimReport::empty(machine.num_pes);
    for launch in launches {
        acc = acc.chain(&try_simulate(machine, launch, mode)?);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{simulate_reference, simulate_reference_profiled};
    use crate::task::{TaskGroup, TaskShape, TaskSpec};
    use crate::timing::pipelined_task_ns;

    fn spec(um: usize, un: usize, uk: usize, warps: usize, t: usize) -> TaskSpec {
        TaskSpec::new(TaskShape::gemm_tile_f16(um, un, uk), warps, t)
    }

    #[test]
    fn single_task_matches_closed_form() {
        let m = MachineModel::a100();
        let s = spec(128, 128, 32, 8, 64);
        let report = simulate(&m, &Launch::grid(s, 1), TimingMode::Evaluate);
        let expected = pipelined_task_ns(&m, &s) + m.launch_overhead_ns;
        assert!((report.time_ns - expected).abs() < 1.0, "{report:?}");
    }

    #[test]
    fn full_wave_runs_in_one_task_duration() {
        let m = MachineModel::a100();
        let s = spec(256, 128, 32, 8, 64); // occupies a full PE
        let one = simulate(&m, &Launch::grid(s, 1), TimingMode::Evaluate);
        let wave = simulate(&m, &Launch::grid(s, m.num_pes), TimingMode::Evaluate);
        assert!(
            wave.device_ns < one.device_ns * 1.2,
            "a full wave should take about one task duration: {} vs {}",
            wave.device_ns,
            one.device_ns
        );
        assert!(wave.sm_efficiency > 0.99);
    }

    #[test]
    fn tail_wave_halves_efficiency() {
        // 109 tasks on 108 PEs: the second wave runs a single task. This is
        // the paper's load-imbalance phenomenon (Fig. 15).
        let m = MachineModel::a100();
        let s = spec(256, 128, 32, 8, 64);
        let full = simulate(&m, &Launch::grid(s, m.num_pes), TimingMode::Evaluate);
        let spill = simulate(&m, &Launch::grid(s, m.num_pes + 1), TimingMode::Evaluate);
        assert!(spill.device_ns > full.device_ns * 1.8);
        assert!(spill.sm_efficiency < 0.6);
    }

    #[test]
    fn half_warp_tasks_co_reside() {
        // 4-warp tasks on an 8-warp PE: two co-resident tasks per PE, so
        // 2 * num_pes tasks still finish in roughly one task duration.
        let m = MachineModel::a100();
        let s = spec(64, 64, 64, 4, 64);
        let one = simulate(&m, &Launch::grid(s, 1), TimingMode::Evaluate);
        let two_waves_worth = simulate(&m, &Launch::grid(s, 2 * m.num_pes), TimingMode::Evaluate);
        assert!(
            two_waves_worth.device_ns < one.device_ns * 1.6,
            "{} vs {}",
            two_waves_worth.device_ns,
            one.device_ns
        );
    }

    #[test]
    fn mixed_groups_share_the_machine() {
        let m = MachineModel::a100();
        let a = TaskGroup::new(spec(256, 128, 32, 8, 64), 96);
        let b = TaskGroup::new(spec(64, 64, 64, 4, 32), 256);
        let report = simulate(&m, &Launch::from_groups(vec![a, b]), TimingMode::Evaluate);
        assert_eq!(report.grid_size, 352);
        assert!(report.time_ns > 0.0);
        assert!(report.sm_efficiency > 0.3);
    }

    #[test]
    fn static_assignment_respected_on_npu() {
        let m = MachineModel::ascend910a();
        let s = TaskSpec::new(TaskShape::gemm_tile_f16(128, 128, 64), 1, 16);
        // All tasks forced onto PE 0: serial execution.
        let serial = Launch::from_groups(vec![TaskGroup::with_assignment(s, vec![0; 8])]);
        // Spread across 8 PEs: parallel execution.
        let spread = Launch::from_groups(vec![TaskGroup::with_assignment(s, (0..8).collect())]);
        let r_serial = simulate(&m, &serial, TimingMode::Evaluate);
        let r_spread = simulate(&m, &spread, TimingMode::Evaluate);
        assert!(r_serial.device_ns > 6.0 * r_spread.device_ns);
        assert_eq!(r_serial.per_pe[0].tasks, 8);
        assert_eq!(r_spread.per_pe[3].tasks, 1);
    }

    #[test]
    #[should_panic(expected = "requires compiler-assigned placement")]
    fn npu_rejects_unassigned_groups() {
        let m = MachineModel::ascend910a();
        let s = TaskSpec::new(TaskShape::gemm_tile_f16(128, 128, 64), 1, 16);
        let _ = simulate(&m, &Launch::grid(s, 4), TimingMode::Evaluate);
    }

    #[test]
    #[should_panic(expected = "exceeds M_local")]
    fn oversized_task_rejected() {
        let m = MachineModel::a100();
        let s = TaskSpec::new(TaskShape::gemm_tile_f16(512, 512, 64), 8, 4);
        let _ = simulate(&m, &Launch::grid(s, 1), TimingMode::Evaluate);
    }

    #[test]
    fn malformed_launches_are_typed_errors() {
        let gpu = MachineModel::a100();
        let npu = MachineModel::ascend910a();
        let small = TaskSpec::new(TaskShape::gemm_tile_f16(128, 128, 64), 1, 16);
        let cases: Vec<(&MachineModel, Launch, SimError)> = vec![
            (
                &gpu,
                Launch::grid(
                    TaskSpec::new(TaskShape::gemm_tile_f16(512, 512, 64), 8, 4),
                    1,
                ),
                SimError::LocalMemExceeded {
                    bytes: TaskShape::gemm_tile_f16(512, 512, 64).local_mem_bytes(),
                    capacity: gpu.local_mem_bytes,
                    machine: gpu.name.clone(),
                },
            ),
            (
                &npu,
                Launch::grid(
                    TaskSpec::new(TaskShape::gemm_tile_f16(128, 128, 64), 2, 16),
                    1,
                ),
                SimError::WarpCapExceeded {
                    warps: 2,
                    cap: npu.warp_cap_per_pe,
                    machine: npu.name.clone(),
                },
            ),
            (
                &npu,
                Launch::grid(small, 4),
                SimError::MissingAssignment {
                    machine: npu.name.clone(),
                },
            ),
            (
                &npu,
                Launch::from_groups(vec![TaskGroup {
                    spec: small,
                    count: 4,
                    assignment: Some(vec![0; 3]),
                }]),
                SimError::AssignmentLengthMismatch { len: 3, count: 4 },
            ),
            (
                &npu,
                Launch::from_groups(vec![TaskGroup::with_assignment(small, vec![99; 2])]),
                SimError::AssignmentOutOfRange {
                    pe: 99,
                    num_pes: npu.num_pes,
                },
            ),
        ];
        for (machine, launch, expected) in cases {
            match try_simulate(machine, &launch, TimingMode::Evaluate) {
                Err(got) => assert_eq!(got, expected, "{launch:?}"),
                Ok(r) => panic!("malformed launch simulated: {r:?}"),
            }
        }
    }

    #[test]
    fn empty_launch_costs_only_launch_overhead() {
        let m = MachineModel::a100();
        let report = simulate(&m, &Launch::default(), TimingMode::Evaluate);
        assert_eq!(report.device_ns, 0.0);
        assert_eq!(report.time_ns, m.launch_overhead_ns);
        assert_eq!(report.grid_size, 0);
    }

    #[test]
    fn measure_mode_close_to_evaluate_mode() {
        let m = MachineModel::a100();
        let launch = Launch::grid(spec(128, 128, 32, 8, 32), 200);
        let eval = simulate(&m, &launch, TimingMode::Evaluate);
        let meas = simulate(&m, &launch, TimingMode::Measure { seed: 3 });
        assert!((meas.device_ns / eval.device_ns - 1.0).abs() < 0.1);
    }

    #[test]
    fn large_grid_scales_linearly() {
        let m = MachineModel::a100();
        let s = spec(256, 128, 32, 8, 16);
        let small = simulate(&m, &Launch::grid(s, 10 * m.num_pes), TimingMode::Evaluate);
        let large = simulate(&m, &Launch::grid(s, 20 * m.num_pes), TimingMode::Evaluate);
        let ratio = large.device_ns / small.device_ns;
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn trace_covers_every_task_exactly_once() {
        let m = MachineModel::a100();
        let a = TaskGroup::new(spec(256, 128, 32, 8, 64), 96);
        let b = TaskGroup::new(spec(64, 64, 64, 4, 32), 64);
        let launch = Launch::from_groups(vec![a, b]);
        let (report, trace) = crate::scheduler::simulate_traced(&m, &launch, TimingMode::Evaluate);
        assert_eq!(trace.len(), 160);
        assert_eq!(trace.iter().filter(|e| e.group == 0).count(), 96);
        assert_eq!(trace.iter().filter(|e| e.group == 1).count(), 64);
        for e in &trace {
            assert!(e.pe < m.num_pes);
            assert!(e.end_ns > e.start_ns, "{e:?}");
            assert!(e.end_ns <= report.device_ns + 1e-6);
        }
        // The traced run must time identically to the untraced one.
        let plain = simulate(&m, &launch, TimingMode::Evaluate);
        assert!((plain.device_ns - report.device_ns).abs() < 1e-9);
    }

    #[test]
    fn trace_respects_warp_capacity_at_every_instant() {
        let m = MachineModel::a100();
        let launch = Launch::grid(spec(64, 64, 64, 4, 16), 300);
        let (_, trace) = crate::scheduler::simulate_traced(&m, &launch, TimingMode::Evaluate);
        // Sample instants: at each event start, per-PE resident warps must
        // not exceed the cap.
        for probe in trace.iter().step_by(17) {
            let t = (probe.start_ns + probe.end_ns) / 2.0;
            let mut per_pe = vec![0usize; m.num_pes];
            for e in &trace {
                if e.start_ns <= t && t < e.end_ns {
                    per_pe[e.pe] += e.warps;
                }
            }
            assert!(per_pe.iter().all(|&w| w <= m.warp_cap_per_pe));
        }
    }

    #[test]
    fn profiled_run_matches_plain_and_attributes_time() {
        let m = MachineModel::a100();
        let launch = Launch::grid(spec(128, 128, 32, 8, 16), 3 * m.num_pes + 1);
        let plain = simulate(&m, &launch, TimingMode::Evaluate);
        let wall = Instant::now();
        let (report, profile) = simulate_profiled(&m, &launch, TimingMode::Evaluate);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert_eq!(plain, report, "profiling must not perturb the timeline");
        assert_eq!(profile.admissions, launch.grid_size() as u64);
        assert!(profile.iterations >= 4, "{profile:?}"); // >= one per wave
        assert!(
            (1..=profile.iterations).contains(&profile.wave_closes),
            "{profile:?}"
        );
        let attributed = profile.attributed_ns();
        assert!(attributed > 0);
        assert!(
            attributed <= wall_ns,
            "attribution cannot exceed the enclosing wall clock: {attributed} vs {wall_ns}"
        );
    }

    #[test]
    fn chained_launches_accumulate() {
        let m = MachineModel::a100();
        let l = Launch::grid(spec(128, 128, 32, 8, 16), 108);
        let one = simulate(&m, &l, TimingMode::Evaluate);
        let three = try_simulate_launches(&m, &[l.clone(), l.clone(), l], TimingMode::Evaluate)
            .expect("valid launches");
        assert!((three.time_ns - 3.0 * one.time_ns).abs() < 1.0);
        assert_eq!(three.grid_size, 3 * one.grid_size);
    }

    /// The crate-local slice of the differential-equivalence suite: the
    /// workspace-level proptest suite is broader, but these pin the
    /// bit-identity contract where the fast core lives.
    #[test]
    fn fast_core_bit_identical_to_reference() {
        let gpu = MachineModel::a100();
        let npu = MachineModel::ascend910a();
        let launches: Vec<(&MachineModel, Launch)> = vec![
            // Homogeneous full-PE grid with a tail wave.
            (
                &gpu,
                Launch::grid(spec(256, 128, 32, 8, 64), 3 * gpu.num_pes + 1),
            ),
            // Deeply co-resident small tiles (bandwidth congestion).
            (
                &gpu,
                Launch::grid(spec(64, 64, 64, 4, 32), 2 * gpu.num_pes + 17),
            ),
            // Mixed groups: footprint changes mid-admission.
            (
                &gpu,
                Launch::from_groups(vec![
                    TaskGroup::new(spec(256, 128, 32, 8, 64), 96),
                    TaskGroup::new(spec(64, 64, 64, 4, 32), 256),
                    TaskGroup::new(spec(128, 64, 32, 2, 8), 33),
                    TaskGroup::new(spec(64, 64, 64, 4, 32), 0),
                ]),
            ),
            // Tiny launches (the oracle-enumeration shape).
            (&gpu, Launch::grid(spec(128, 128, 32, 8, 16), 1)),
            (&gpu, Launch::default()),
            // Static placement: skewed and round-robin queues.
            (
                &npu,
                Launch::from_groups(vec![
                    TaskGroup::with_assignment(
                        TaskSpec::new(TaskShape::gemm_tile_f16(128, 128, 64), 1, 16),
                        (0..64).map(|i| i % 7).collect(),
                    ),
                    TaskGroup::with_assignment(
                        TaskSpec::new(TaskShape::gemm_tile_f16(256, 128, 32), 1, 8),
                        (0..40).map(|i| 31 - (i % 32)).collect(),
                    ),
                ]),
            ),
        ];
        for (machine, launch) in &launches {
            for mode in [
                TimingMode::Evaluate,
                TimingMode::Measure { seed: 7 },
                TimingMode::Measure { seed: 0xDEAD },
            ] {
                let fast = try_simulate(machine, launch, mode).expect("valid launch");
                let slow = simulate_reference(machine, launch, mode);
                assert_eq!(fast, slow, "report diverged on {launch:?} {mode:?}");
                let (fast_t, fast_trace) = simulate_traced(machine, launch, mode);
                let (slow_t, slow_trace) =
                    crate::reference::simulate_reference_traced(machine, launch, mode);
                assert_eq!(fast_t, slow_t);
                assert_eq!(
                    fast_trace, slow_trace,
                    "trace diverged on {launch:?} {mode:?}"
                );
                let (_, fast_p) = simulate_profiled(machine, launch, mode);
                let (_, slow_p) = simulate_reference_profiled(machine, launch, mode);
                assert_eq!(fast_p.iterations, slow_p.iterations);
                assert_eq!(fast_p.admissions, slow_p.admissions);
                assert_eq!(fast_p.wave_closes, slow_p.wave_closes);
            }
        }
    }

    #[test]
    fn fast_core_and_reference_deadlock_identically() {
        // A static queue whose second task never fits (first resident
        // pins M_local and the queue head needs more warps than remain)
        // cannot deadlock by construction on these machines; instead pin
        // the dynamic stall-until-completion path: a group whose tasks
        // each occupy the full warp cap admits exactly num_pes per wave.
        let m = MachineModel::a100();
        let launch = Launch::grid(spec(256, 128, 32, 8, 64), m.num_pes * 2);
        let fast = try_simulate(&m, &launch, TimingMode::Evaluate).expect("valid");
        let slow = simulate_reference(&m, &launch, TimingMode::Evaluate);
        assert_eq!(fast, slow);
        assert!((fast.sm_efficiency - 1.0).abs() < 1e-9);
    }
}
