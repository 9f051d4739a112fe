//! The co-launch planner: merging polymerized programs into shared
//! device waves.
//!
//! The paper's §7 extension observes that small dynamic-shape kernels
//! leave PEs idle, and that several polymerized programs can be merged
//! into one multi-group [`Launch`] — each program keeps its own
//! micro-kernels, the groups simply compete for PEs concurrently. The
//! `ext-colaunch` experiment reproduces that offline; this module is the
//! shared planner both that experiment and the serving dispatcher use,
//! so offline and online co-launch cannot drift apart.
//!
//! Planning is a resource-fit problem, not a scheduling problem: a wave
//! must never *oversubscribe* the machine, meaning its combined resident
//! warp demand must fit the machine's warp slots
//! ([`warp_capacity`]). Members are packed greedily in the order given
//! (the dispatcher orders them by weighted fairness first): each member
//! joins the first wave with room, or opens a new one. A member whose
//! lone demand already exceeds capacity still gets a singleton wave —
//! the simulator time-multiplexes it, exactly as solo execution would.
//!
//! The serving dispatcher builds no launches: it reads a member's demand
//! off its programs' launch keys and a wave's time from the compiler's
//! launch memo, which keeps one simulated time per `(launch, k)` for k
//! merged copies ([`repeat_launch`]). [`wave_device_ns`] is the
//! un-memoized reference that memo must equal, bit for bit.

use accel_sim::{try_simulate_launches, Launch, MachineModel, TimingMode};

use crate::engine::OpPlan;

/// Total warp slots a launch asks for if every task were resident at
/// once — the planner's (deliberately conservative) demand metric.
pub fn warp_slots(launch: &Launch) -> u64 {
    launch
        .groups
        .iter()
        .map(|g| (g.count * g.spec.warps) as u64)
        .sum()
}

/// The machine's total warp slots: PEs times per-PE warp capacity.
pub fn warp_capacity(machine: &MachineModel) -> u64 {
    (machine.num_pes * machine.warp_cap_per_pe) as u64
}

/// Packs members (given by their warp demands) into waves such that no
/// wave's combined demand exceeds `capacity`, except that a member too
/// large for an empty wave still gets a singleton. Greedy first-fit in
/// the given order; returns waves of member indices, each wave non-empty,
/// every index appearing exactly once.
pub fn plan_waves(demands: &[u64], capacity: u64) -> Vec<Vec<usize>> {
    let mut waves: Vec<(u64, Vec<usize>)> = Vec::new();
    for (index, &demand) in demands.iter().enumerate() {
        match waves
            .iter_mut()
            .find(|(load, _)| load.saturating_add(demand) <= capacity)
        {
            Some((load, members)) => {
                *load += demand;
                members.push(index);
            }
            None => waves.push((demand, vec![index])),
        }
    }
    waves.into_iter().map(|(_, members)| members).collect()
}

/// Merges several launches into one multi-group wave launch: group lists
/// are concatenated, so every member's tasks compete for PEs
/// concurrently. Static per-task PE assignments are preserved verbatim
/// (tasks mapped to the same PE simply queue on it).
pub fn merge_launches<'a>(launches: impl IntoIterator<Item = &'a Launch>) -> Launch {
    let mut groups = Vec::new();
    for launch in launches {
        groups.extend(launch.groups.iter().cloned());
    }
    Launch::from_groups(groups)
}

/// `count` copies of one launch merged into a single wave (the common
/// case in serving: a shape bucket's members run identical programs).
pub fn repeat_launch(launch: &Launch, count: usize) -> Launch {
    merge_launches(std::iter::repeat_n(launch, count))
}

/// Simulated device time of a wave of `count` identical members, each
/// executing `ops`, simulated afresh: per operator, the members' launches
/// merge into one wave launch (split-K reductions likewise merge and
/// chain after it, as on the solo path), and operators run sequentially
/// with their graph weights. Falls back to `count` solo executions if
/// the simulator rejects a merged launch, so a malformed wave can never
/// do better than solo — or panic the dispatcher.
pub fn wave_device_ns(machine: &MachineModel, ops: &[OpPlan], count: usize) -> f64 {
    let mut total = 0.0;
    for op in ops {
        let mut sequence = vec![repeat_launch(&op.launch, count)];
        if let Some(reduction) = &op.reduction {
            sequence.push(repeat_launch(reduction, count));
        }
        let merged_ns = try_simulate_launches(machine, &sequence, TimingMode::Evaluate)
            .map_or(op.solo_ns * count as f64, |report| report.time_ns);
        total += merged_ns * op.count as f64;
    }
    total
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use accel_sim::{TaskShape, TaskSpec};

    fn small_launch(warps: usize, count: usize) -> Launch {
        Launch::grid(
            TaskSpec::new(TaskShape::gemm_tile_f16(64, 64, 32), warps, 4),
            count,
        )
    }

    #[test]
    fn warp_slots_sum_groups() {
        let launch = merge_launches([&small_launch(4, 10), &small_launch(2, 3)]);
        assert_eq!(warp_slots(&launch), 4 * 10 + 2 * 3);
        assert_eq!(launch.grid_size(), 13);
    }

    #[test]
    fn capacity_is_pes_times_warp_cap() {
        let machine = MachineModel::a100();
        assert_eq!(
            warp_capacity(&machine),
            (machine.num_pes * machine.warp_cap_per_pe) as u64
        );
    }

    #[test]
    fn plan_waves_never_oversubscribes_and_covers_every_member() {
        let demands = vec![60, 60, 30, 10, 90, 5];
        let waves = plan_waves(&demands, 100);
        let mut seen = vec![false; demands.len()];
        for wave in &waves {
            assert!(!wave.is_empty());
            let load: u64 = wave.iter().map(|&i| demands[i]).sum();
            assert!(load <= 100, "wave {wave:?} oversubscribed at {load}");
            for &i in wave {
                assert!(!seen[i], "member {i} planned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "member dropped by the planner");
    }

    #[test]
    fn oversized_member_gets_a_singleton_wave() {
        let waves = plan_waves(&[500, 10], 100);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0], vec![0]);
        assert_eq!(waves[1], vec![1]);
    }

    #[test]
    fn empty_input_plans_no_waves() {
        assert!(plan_waves(&[], 100).is_empty());
    }

    #[test]
    fn repeat_launch_scales_grid_and_flops() {
        let launch = small_launch(4, 10);
        let tripled = repeat_launch(&launch, 3);
        assert_eq!(tripled.grid_size(), 30);
        assert!((tripled.total_flops() - 3.0 * launch.total_flops()).abs() < 1e-6);
    }

    #[test]
    fn merged_wave_beats_back_to_back_solo_time() {
        // Two small co-launched grids must finish no later than running
        // them back to back: merging can only recover idle PEs.
        let machine = MachineModel::a100();
        let launch = small_launch(4, machine.num_pes / 4);
        let op = OpPlan {
            solo_ns: accel_sim::try_simulate(&machine, &launch, TimingMode::Evaluate)
                .expect("valid launch")
                .time_ns,
            launch,
            reduction: None,
            count: 1,
        };
        let merged = wave_device_ns(&machine, std::slice::from_ref(&op), 2);
        assert!(merged > 0.0);
        assert!(
            merged <= 2.0 * op.solo_ns * 1.001,
            "merged {merged} vs 2x solo {}",
            2.0 * op.solo_ns
        );
    }
}
