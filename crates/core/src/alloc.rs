//! Static task placement for NPUs.
//!
//! "To assign micro-kernels to these cores, a max-min static allocation
//! algorithm is employed" (Section 4). We implement the classic
//! longest-processing-time-first (LPT) max-min scheme: tasks are sorted by
//! decreasing estimated duration and each is placed on the currently
//! least-loaded core, minimizing the maximum core load.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Assigns tasks to `num_pes` cores with max-min (LPT) allocation.
///
/// `durations[i]` is the estimated duration of one task of group `i`, and
/// `counts[i]` is how many such tasks exist. Returns, per group, the PE
/// index of each of its tasks.
///
/// # Panics
///
/// Panics if the slices have different lengths or `num_pes` is zero.
pub fn max_min_assign(durations: &[f64], counts: &[usize], num_pes: usize) -> Vec<Vec<usize>> {
    assert_eq!(durations.len(), counts.len(), "one duration per group");
    assert!(num_pes > 0, "need at least one PE");

    // Expand to (duration, group, index-within-group), longest first.
    let mut tasks: Vec<(f64, usize, usize)> = Vec::new();
    for (g, (&d, &c)) in durations.iter().zip(counts).enumerate() {
        assert!(d >= 0.0, "durations must be non-negative");
        for i in 0..c {
            tasks.push((d, g, i));
        }
    }
    tasks.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    // Min-heap of (load, pe). OrderedFloat-style wrapper via total_cmp keyed
    // through sortable bits.
    #[derive(PartialEq)]
    struct Load(f64, usize);
    impl Eq for Load {}
    impl PartialOrd for Load {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Load {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    let mut heap: BinaryHeap<Reverse<Load>> =
        (0..num_pes).map(|pe| Reverse(Load(0.0, pe))).collect();
    let mut out: Vec<Vec<usize>> = counts.iter().map(|&c| vec![0usize; c]).collect();
    for (d, g, i) in tasks {
        let Reverse(Load(load, pe)) = heap.pop().expect("heap holds num_pes entries");
        out[g][i] = pe;
        heap.push(Reverse(Load(load + d, pe)));
    }
    out
}

/// At most this many task groups reach the allocation-free makespan
/// routines below (a polymerization strategy has at most four regions).
const MAX_GROUPS: usize = 8;

/// The non-empty `(duration, count)` groups sorted by descending duration
/// into a fixed buffer (no allocation), with their number.
fn longest_first(groups: &[(f64, usize)]) -> ([(f64, usize); MAX_GROUPS], usize) {
    let mut sorted = [(0.0f64, 0usize); MAX_GROUPS];
    let mut ng = 0usize;
    for &g in groups.iter().filter(|g| g.1 > 0) {
        assert!(
            ng < MAX_GROUPS,
            "makespan routines support at most {MAX_GROUPS} groups"
        );
        let mut pos = ng;
        while pos > 0 && sorted[pos - 1].0 < g.0 {
            sorted[pos] = sorted[pos - 1];
            pos -= 1;
        }
        sorted[pos] = g;
        ng += 1;
    }
    (sorted, ng)
}

/// A lower bound on the makespan of *any* placement of task groups on
/// `num_pes` cores, by the pigeonhole principle: with the groups sorted
/// longest first and `C_g` the cumulative task count through group `g`,
/// the `C_g` longest tasks put at least `ceil(C_g / |P|)` tasks of
/// duration at least `d_g` on one core, so the makespan is at least
/// `max_g ceil(C_g / |P|) · d_g`.
///
/// Unlike the fractional bound `max(total/|P|, dmax)` it sees whole
/// rounds (34 equal tasks on 32 cores: 2 rounds, not 1.06). Adding a
/// group never lowers it (every cumulative count can only grow), and it
/// never exceeds the optimal makespan, hence never [`lpt_makespan`]: an
/// admissible bound for branch-and-bound over partial strategies.
///
/// # Panics
///
/// Panics if `num_pes` is zero.
pub fn pigeonhole_makespan_bound(groups: &[(f64, usize)], num_pes: usize) -> f64 {
    assert!(num_pes > 0, "need at least one PE");
    let (sorted, ng) = longest_first(groups);
    let mut tasks = 0usize;
    let mut bound = 0.0f64;
    for &(d, c) in &sorted[..ng] {
        tasks += c;
        bound = bound.max(tasks.div_ceil(num_pes) as f64 * d);
    }
    bound
}

/// The LPT (max-min) makespan of task groups on `num_pes` cores, without
/// materializing an assignment. `groups` holds `(duration, count)` pairs.
/// Used by the NPU cost model to evaluate complete strategies exactly —
/// the fractional bound `max(total/P, dmax)` misses discrete imbalance
/// (e.g. 34 equal tasks on 32 cores take 2 rounds, not 1.06).
///
/// Within a group all tasks have the same duration, so LPT (always extend
/// the least-loaded core) can be simulated at *load-level* granularity —
/// `O(groups²)` regardless of task counts — instead of per task.
///
/// # Panics
///
/// Panics if `num_pes` is zero.
pub fn lpt_makespan(groups: &[(f64, usize)], num_pes: usize) -> f64 {
    assert!(num_pes > 0, "need at least one PE");
    let (sorted, ng) = longest_first(groups);

    // Distinct load levels (load, cores at it), ascending; at most one new
    // level per group plus merges, so a small fixed buffer suffices.
    let mut levels = [(0.0f64, 0usize); 2 * MAX_GROUPS + 2];
    levels[0] = (0.0, num_pes);
    let mut nl = 1usize;
    for &(d, mut c) in &sorted[..ng] {
        // Bulk-advance: while the group has far more tasks than cores,
        // every core is guaranteed at least `q` of them under LPT (the
        // per-round waterfilling below would hand them out one level at a
        // time). Exact because uniform rounds preserve the level order.
        if c > num_pes {
            let spread_rounds = ((levels[nl - 1].0 - levels[0].0) / d).ceil() as usize;
            let q = (c / num_pes).saturating_sub(spread_rounds + 1);
            if q > 0 {
                for level in levels[..nl].iter_mut() {
                    level.0 += q as f64 * d;
                }
                c -= q * num_pes;
            }
        }
        while c > 0 {
            let (l0, k0) = levels[0];
            // Whole +d rounds the bottom level absorbs before overtaking
            // the next level.
            let rounds_to_next = if nl > 1 {
                (((levels[1].0 - l0) / d).ceil() as usize).max(1)
            } else {
                usize::MAX
            };
            if c >= k0 {
                let full_rounds = rounds_to_next.min(c / k0).max(1);
                levels[0].0 = l0 + full_rounds as f64 * d;
                c -= k0 * full_rounds;
            } else {
                // Fewer tasks than bottom cores: split the level.
                levels[0].1 = k0 - c;
                levels[nl] = (l0 + d, c);
                nl += 1;
                c = 0;
            }
            // Restore ascending order (only levels[0] moved or one was
            // appended) and merge equal loads.
            levels[..nl].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut w = 0usize;
            for r in 1..nl {
                if (levels[r].0 - levels[w].0).abs() < 1e-9 {
                    levels[w].1 += levels[r].1;
                } else {
                    w += 1;
                    levels[w] = levels[r];
                }
            }
            nl = w + 1;
        }
    }
    levels[nl - 1].0
}

/// The maximum core load implied by an assignment (the static-allocation
/// makespan the NPU cost model minimizes).
pub fn makespan(durations: &[f64], assignments: &[Vec<usize>], num_pes: usize) -> f64 {
    let mut loads = vec![0.0f64; num_pes];
    for (d, a) in durations.iter().zip(assignments) {
        for &pe in a {
            loads[pe] += d;
        }
    }
    loads.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balances_equal_tasks_evenly() {
        let a = max_min_assign(&[10.0], &[32], 8);
        let mut per_pe = [0usize; 8];
        for &pe in &a[0] {
            per_pe[pe] += 1;
        }
        assert!(per_pe.iter().all(|&c| c == 4));
    }

    #[test]
    fn long_tasks_placed_first() {
        // One long task plus many short: the long task's core should get
        // fewer short tasks.
        let a = max_min_assign(&[100.0, 10.0], &[1, 19], 2);
        let long_pe = a[0][0];
        let shorts_on_long_pe = a[1].iter().filter(|&&pe| pe == long_pe).count();
        let shorts_on_other = 19 - shorts_on_long_pe;
        assert!(shorts_on_long_pe < shorts_on_other);
        let span = makespan(&[100.0, 10.0], &a, 2);
        // Perfect balance would be (100 + 190) / 2 = 145.
        assert!(span <= 150.0, "makespan {span}");
    }

    #[test]
    fn makespan_of_single_pe_is_total() {
        let a = max_min_assign(&[5.0, 7.0], &[3, 2], 1);
        assert_eq!(makespan(&[5.0, 7.0], &a, 1), 3.0 * 5.0 + 2.0 * 7.0);
    }

    #[test]
    fn lpt_is_within_four_thirds_of_optimum() {
        // Classic LPT bound: makespan <= (4/3 - 1/(3m)) * OPT. Use a known
        // adversarial-ish instance and check the bound against the trivial
        // lower bound max(total/m, max_duration).
        let durations = [7.0, 6.0, 5.0, 4.0];
        let counts = [2, 2, 2, 3];
        let m = 3;
        let a = max_min_assign(&durations, &counts, m);
        let total: f64 = durations
            .iter()
            .zip(&counts)
            .map(|(d, &c)| d * c as f64)
            .sum();
        let lower = (total / m as f64).max(7.0);
        let span = makespan(&durations, &a, m);
        assert!(
            span <= lower * (4.0 / 3.0) + 1e-9,
            "span {span} vs lower {lower}"
        );
    }

    #[test]
    fn empty_groups_allowed() {
        let a = max_min_assign(&[1.0, 2.0], &[0, 4], 2);
        assert!(a[0].is_empty());
        assert_eq!(a[1].len(), 4);
    }

    #[test]
    #[should_panic(expected = "one duration per group")]
    fn mismatched_lengths_rejected() {
        let _ = max_min_assign(&[1.0], &[1, 2], 2);
    }
}

#[cfg(test)]
mod lpt_tests {
    use super::*;

    /// Reference LPT makespan via the per-task allocator.
    fn reference(groups: &[(f64, usize)], pes: usize) -> f64 {
        let durations: Vec<f64> = groups.iter().map(|g| g.0).collect();
        let counts: Vec<usize> = groups.iter().map(|g| g.1).collect();
        let a = max_min_assign(&durations, &counts, pes);
        makespan(&durations, &a, pes)
    }

    #[test]
    fn level_lpt_matches_per_task_lpt() {
        let cases: &[(&[(f64, usize)], usize)] = &[
            (&[(10.0, 34)], 32),
            (&[(10.0, 32)], 32),
            (&[(10.0, 1)], 32),
            (&[(7.0, 5), (3.0, 11)], 4),
            (&[(9.0, 100), (2.0, 7), (5.0, 33)], 32),
            (&[(1.0, 1000)], 7),
            (&[(4.0, 3), (4.0, 3)], 5),
        ];
        for (groups, pes) in cases {
            let fast = lpt_makespan(groups, *pes);
            let slow = reference(groups, *pes);
            assert!(
                (fast - slow).abs() < 1e-6,
                "groups {groups:?} on {pes}: fast {fast} vs reference {slow}"
            );
        }
    }

    #[test]
    fn discrete_imbalance_is_captured() {
        // 34 equal tasks on 32 cores: 2 rounds, not 1.06.
        assert_eq!(lpt_makespan(&[(10.0, 34)], 32), 20.0);
    }

    #[test]
    fn empty_groups_give_zero() {
        assert_eq!(lpt_makespan(&[], 32), 0.0);
        assert_eq!(lpt_makespan(&[(5.0, 0)], 32), 0.0);
        assert_eq!(pigeonhole_makespan_bound(&[], 32), 0.0);
        assert_eq!(pigeonhole_makespan_bound(&[(5.0, 0)], 32), 0.0);
    }

    #[test]
    fn pigeonhole_bound_counts_whole_rounds() {
        // 34 equal tasks on 32 cores: the bound is the LPT makespan.
        assert_eq!(pigeonhole_makespan_bound(&[(10.0, 34)], 32), 20.0);
        // 33 tasks of at least 4 on 32 cores: two of them share a core.
        assert_eq!(
            pigeonhole_makespan_bound(&[(4.0, 30), (9.0, 3)], 32),
            (2.0f64 * 4.0).max(9.0)
        );
    }

    proptest::proptest! {
        /// The bound never exceeds the LPT makespan (which is at least the
        /// optimum it bounds) and never decreases when a group is added —
        /// the two properties that make it admissible for pruning partial
        /// strategies against LPT-scored leaves.
        #[test]
        fn pigeonhole_bound_is_admissible_and_monotone(
            groups in proptest::collection::vec((1.0f64..1e4, 0usize..200), 0..4),
            extra in (1.0f64..1e4, 0usize..200),
            pes in 1usize..64,
        ) {
            let bound = pigeonhole_makespan_bound(&groups, pes);
            let lpt = lpt_makespan(&groups, pes);
            proptest::prop_assert!(
                bound <= lpt * (1.0 + 1e-12),
                "bound {} above LPT makespan {}", bound, lpt
            );
            let mut grown = groups.clone();
            grown.push(extra);
            let grown_bound = pigeonhole_makespan_bound(&grown, pes);
            proptest::prop_assert!(
                grown_bound >= bound,
                "adding {:?} lowered the bound {} -> {}", extra, bound, grown_bound
            );
            let grown_lpt = lpt_makespan(&grown, pes);
            proptest::prop_assert!(grown_bound <= grown_lpt * (1.0 + 1e-12));
        }
    }
}
