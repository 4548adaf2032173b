//! The node population: logical nodes grouped by shared per-node state, and the plan
//! that materializes the population into simulated instances.
//!
//! A [`ClusterScenario`] describes `nodes` *logical*
//! nodes. Every per-node input except the initial batch-job slice is scenario-wide
//! (service, policy, QoS target, decision cadence, load share under the even
//! split), so the population partitions the fleet into [`NodeGroup`]s keyed by that
//! slice: two logical nodes whose slots start with the same job sequence are
//! interchangeable up to their seeds. [`NodePopulation::plan_instances`] then turns the
//! population plus a [`FleetApproximation`] into an ordered list of [`InstancePlan`]s —
//! one per simulated [`ClusterNode`](crate::node::ClusterNode) — which is the *only*
//! place the exact and clustered modes diverge structurally:
//!
//! - `Exact` plans one weight-1 instance per logical node, in logical-node order, each
//!   seeded as that node. The resulting fleet is byte-identical to the
//!   pre-population-refactor simulator.
//! - `Clustered { representatives_per_group: k }` splits each group's members into at
//!   most `k` near-even contiguous chunks and plans one representative per chunk,
//!   seeded as the chunk's first member (per-replica seed jitter: different
//!   representatives of one group consume different random streams) and weighted by the
//!   chunk size. Raising `k` to the group size degenerates to `Exact` for that group.
//!
//! This is the Parsimon decomposition applied to nodes instead of network links:
//! cluster interchangeable components, simulate one representative per cluster under
//! common random numbers, and aggregate the representative's contribution with replica
//! weights (see README "Hyperscale").
//!
//! # Cost
//!
//! Nothing here is stored per logical node, so a clustered fleet costs memory in its
//! groups and instances, not in its logical size. Racks are contiguous blocks of the
//! node index space, so the groups of one rack are contiguous in group order. Both
//! passes over the logical nodes iterate each rack's job slice directly and find a
//! node's group with one read of the rack's first-job table: 24 entries, one per
//! application, kept in a local array.
//!
//! - Grouping counts each node into its group's local member counter. It leaves its
//!   inner loop only at a node whose slice starts a new group.
//! - Planning counts each pooled node down in its group's current chunk. It leaves its
//!   inner loop only where a chunk starts or an isolated node stands, to emit that
//!   plan, and stops after the last one.
//! - Groups of one rack that share a first job, possible only when
//!   `slots_per_node > 1`, are chained behind one table entry and told apart by the
//!   rest of their slice. The chain is read only at that slot count.
//!
//! Everything else is O(groups): the groups with their chains, counters, chunk sizes
//! and countdowns, one table per rack, and the group of each isolated node, looked up
//! in its rack's table. On a 1M-node, period-3 flat fleet, grouping and planning at
//! `K = 4` each cost about 1 ns per node they visit on a 2 GHz Xeon.

use crate::scenario::{ClusterScenario, FleetApproximation};
use pliant_approx::catalog::AppId;

/// One population group: logical nodes sharing every per-node input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGroup {
    /// The initial batch-job slice shared by every member (`slots_per_node` jobs).
    pub jobs: Vec<AppId>,
    /// Topology rack every member lives in. Rack identity is part of the group key:
    /// nodes in different power domains are never interchangeable (a rack outage or a
    /// power cap strikes one domain, not the other), so a clustered replica block
    /// never spans racks. On a flat topology every node is in the implicit rack 0 and
    /// the grouping is identical to the pre-topology one.
    pub rack: usize,
    /// Number of logical nodes in the group (at least 1).
    pub len: usize,
}

/// One simulated instance the engine materializes: which group it represents, which
/// logical node seeds it, and how many logical nodes it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstancePlan {
    /// Index into [`NodePopulation::groups`] of the group this instance represents.
    pub group: usize,
    /// Logical-node index whose derived seed (and initial jobs) the instance uses.
    pub seed_member: usize,
    /// Number of logical nodes this instance stands for (its replica weight; ≥ 1).
    pub replicas: usize,
}

/// The fleet's logical nodes partitioned into groups of interchangeable members.
///
/// Borrows its scenario: the job list is the only per-node record, and the population
/// reads it again to plan instances.
#[derive(Debug, Clone)]
pub struct NodePopulation<'s> {
    scenario: &'s ClusterScenario,
    groups: Vec<NodeGroup>,
    /// Per group, the next older group of its rack whose slice starts with the same job
    /// ([`NO_GROUP`] at the end of the chain). Only these groups share an entry of
    /// their rack's first-job table, which is possible only when `slots_per_node > 1`.
    chained: Vec<usize>,
}

/// Entries of a rack's first-job table, one per application.
const APPS: usize = 24;

/// An empty first-job table entry, and the end of a first-job chain.
const NO_GROUP: usize = usize::MAX;

impl<'s> NodePopulation<'s> {
    /// Partitions the scenario's logical nodes into groups keyed by their initial
    /// batch-job slice *and* their topology rack (two nodes are interchangeable only
    /// when they start the same jobs in the same power domain; see
    /// [`NodeGroup::rack`]). Groups appear in order of their first member, so the
    /// grouping is deterministic in the scenario alone.
    pub fn from_scenario(scenario: &'s ClusterScenario) -> Self {
        let spn = scenario.slots_per_node;
        let mut groups: Vec<NodeGroup> = Vec::new();
        let mut chained: Vec<usize> = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        for rack in 0..scenario.topology.rack_count() {
            let mut heads = [NO_GROUP; APPS];
            let nodes = scenario.topology.rack_members(rack, scenario.nodes);
            let mut slices = scenario.jobs[nodes.start * spn..nodes.end * spn].chunks_exact(spn);
            // Count each node into its group, up to the first node of a new group
            // (`NO_GROUP` indexes no counter).
            while let Some(jobs) = {
                let members = members.as_mut_slice();
                slices.find(
                    |jobs| match members.get_mut(find(&heads, &chained, &groups, jobs)) {
                        Some(count) => {
                            *count += 1;
                            false
                        }
                        None => true,
                    },
                )
            } {
                let head = &mut heads[jobs[0] as usize];
                chained.push(*head);
                *head = groups.len();
                groups.push(NodeGroup {
                    jobs: jobs.to_vec(),
                    rack,
                    len: 0,
                });
                members.push(1);
            }
        }
        for (group, len) in groups.iter_mut().zip(members) {
            group.len = len;
        }
        NodePopulation {
            scenario,
            groups,
            chained,
        }
    }

    /// The population groups, in order of first member.
    pub fn groups(&self) -> &[NodeGroup] {
        &self.groups
    }

    /// Total logical nodes across all groups (the scenario's `nodes`).
    pub fn total_nodes(&self) -> usize {
        self.scenario.nodes
    }

    /// The first-job table of rack `rack`: per application, the newest group of the
    /// rack whose slice starts with it.
    fn first_job_table(&self, rack: usize) -> [usize; APPS] {
        // Groups are ordered by first member, so by rack too.
        let start = self.groups.partition_point(|g| g.rack < rack);
        let mut heads = [NO_GROUP; APPS];
        for (group, g) in self.groups.iter().enumerate().skip(start) {
            if g.rack != rack {
                break;
            }
            heads[g.jobs[0] as usize] = group;
        }
        heads
    }

    /// The index into [`Self::groups`] of logical node `node`'s group (`None` for a
    /// node outside the fleet).
    fn group_of(&self, node: usize) -> Option<usize> {
        if node >= self.scenario.nodes {
            return None;
        }
        let heads = self.first_job_table(self.scenario.topology.rack_of(node));
        let group = find(
            &heads,
            &self.chained,
            &self.groups,
            job_slice(self.scenario, node),
        );
        (group != NO_GROUP).then_some(group)
    }

    /// Materializes the population into an ordered instance plan under `approximation`.
    ///
    /// `Exact` yields one weight-1 instance per logical node in logical order — the
    /// construction the pre-population simulator performed, preserved so exact runs
    /// stay byte-identical. `Clustered` yields group-major representatives: each
    /// group's member list is split into `min(k, len)` contiguous chunks whose sizes
    /// differ by at most one (the first `len % chunks` chunks get the extra member),
    /// and each chunk is planned as one representative seeded by its first member.
    ///
    /// Replica weights always sum to [`Self::total_nodes`].
    pub fn plan_instances(&self, approximation: &FleetApproximation) -> Vec<InstancePlan> {
        self.plan_instances_isolating(approximation, &[])
    }

    /// Like [`Self::plan_instances`], but carves the `isolated` logical nodes out of
    /// their replica groups so each is simulated exactly (a weight-1 instance), while
    /// the remaining members keep the clustered chunking. Fault injection uses this:
    /// a node that crashes or degrades stops being interchangeable with its group, so
    /// folding it into a replica block would multiply its failure by the block weight.
    ///
    /// Under [`FleetApproximation::Exact`] this is identical to
    /// [`Self::plan_instances`] (every node is already simulated exactly). Within each
    /// group the pooled chunks and the isolated members are ordered by seed member, so
    /// at `K >= group size` every group is one weight-1 instance per member in logical
    /// order, exactly as unfaulted clustering plans it; replica weights still sum to
    /// [`Self::total_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if `isolated` is not strictly ascending or names a node outside the
    /// fleet.
    pub fn plan_instances_isolating(
        &self,
        approximation: &FleetApproximation,
        isolated: &[usize],
    ) -> Vec<InstancePlan> {
        assert!(
            isolated.windows(2).all(|w| w[0] < w[1])
                && isolated
                    .last()
                    .is_none_or(|&node| node < self.total_nodes()),
            "isolated nodes must be strictly ascending logical nodes of the fleet"
        );
        match approximation {
            // Every member is a chunk of one, planned in logical order.
            FleetApproximation::Exact => {
                let mut plans = Vec::with_capacity(self.total_nodes());
                self.walk(usize::MAX, &[], |plan| plans.push(plan));
                plans
            }
            FleetApproximation::Clustered {
                representatives_per_group,
            } => {
                let mut plans: Vec<Vec<InstancePlan>> = vec![Vec::new(); self.groups.len()];
                self.walk((*representatives_per_group).max(1), isolated, |plan| {
                    plans[plan.group].push(plan);
                });
                plans.concat()
            }
        }
    }

    /// Walks the logical nodes in ascending order and calls `emit` with the plan of
    /// each chunk start and each `isolated` node, stopping after the last one.
    ///
    /// The members of each group that are not isolated are its pooled members, split in
    /// member order into `min(representatives, pooled)` near-even chunks (the first
    /// `pooled % chunks` one member larger). Chunk sizes are fixed before the walk, so
    /// a pooled member that does not start a chunk only counts its group down.
    fn walk(&self, representatives: usize, isolated: &[usize], mut emit: impl FnMut(InstancePlan)) {
        let spn = self.scenario.slots_per_node;
        let mut pooled: Vec<usize> = self.groups.iter().map(|g| g.len).collect();
        for group in isolated.iter().filter_map(|&node| self.group_of(node)) {
            pooled[group] -= 1;
        }
        let mut unplanned = isolated.len();
        // Per group: the smallest chunk size, the chunks still to start that hold one
        // member more, and the pooled members left in the current chunk after the one
        // that started it.
        let (base, mut larger): (Vec<usize>, Vec<usize>) = pooled
            .iter()
            .map(|&pooled| {
                let chunks = representatives.min(pooled);
                unplanned += chunks;
                (
                    pooled.checked_div(chunks).unwrap_or(0),
                    pooled.checked_rem(chunks).unwrap_or(0),
                )
            })
            .unzip();
        let mut left_in_chunk = vec![0usize; self.groups.len()];
        let mut isolated = isolated.iter().copied().peekable();
        for rack in 0..self.scenario.topology.rack_count() {
            let heads = self.first_job_table(rack);
            let nodes = self
                .scenario
                .topology
                .rack_members(rack, self.scenario.nodes);
            let mut from = nodes.start;
            // One stretch of pooled members per isolated node of the rack, and a last
            // one to the rack's end.
            loop {
                let to = isolated
                    .next_if(|&node| node < nodes.end)
                    .unwrap_or(nodes.end);
                let mut slices = self.scenario.jobs[from * spn..to * spn].chunks_exact(spn);
                // Count each node down in its group's chunk, up to the next chunk start.
                while let Some(group) = {
                    let left_in_chunk = left_in_chunk.as_mut_slice();
                    slices.find_map(|jobs| {
                        let group = find(&heads, &self.chained, &self.groups, jobs);
                        let left = &mut left_in_chunk[group];
                        if *left == 0 {
                            return Some(group);
                        }
                        *left -= 1;
                        None
                    })
                } {
                    let replicas = base[group] + usize::from(larger[group] > 0);
                    larger[group] = larger[group].saturating_sub(1);
                    left_in_chunk[group] = replicas - 1;
                    emit(InstancePlan {
                        group,
                        seed_member: to - slices.len() - 1,
                        replicas,
                    });
                    unplanned -= 1;
                    if unplanned == 0 {
                        return;
                    }
                }
                if to == nodes.end {
                    break;
                }
                let jobs = job_slice(self.scenario, to);
                emit(InstancePlan {
                    group: find(&heads, &self.chained, &self.groups, jobs),
                    seed_member: to,
                    replicas: 1,
                });
                unplanned -= 1;
                if unplanned == 0 {
                    return;
                }
                from = to + 1;
            }
        }
    }
}

/// The group whose slice is `jobs` among the groups in a rack's first-job table
/// `heads` ([`NO_GROUP`] if none): one table read, then a walk down the first-job
/// chain only when slices hold more than one job.
#[inline(always)]
fn find(heads: &[usize; APPS], chained: &[usize], groups: &[NodeGroup], jobs: &[AppId]) -> usize {
    let mut group = heads[jobs[0] as usize];
    if jobs.len() > 1 {
        while group != NO_GROUP && groups[group].jobs[1..] != jobs[1..] {
            group = chained[group];
        }
    }
    group
}

/// The initial batch-job slice of logical node `node`.
fn job_slice(scenario: &ClusterScenario, node: usize) -> &[AppId] {
    let spn = scenario.slots_per_node;
    &scenario.jobs[node * spn..(node + 1) * spn]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use pliant_core::scenario::Horizon;
    use pliant_workloads::service::ServiceId;
    use proptest::prelude::*;
    use rand::Rng;

    fn scenario(nodes: usize) -> ClusterScenario {
        // Three-app cyclic mix: nodes i, i+3, i+6, … share a group.
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        ClusterScenario {
            nodes,
            jobs: (0..nodes).map(|i| mix[i % 3]).collect(),
            horizon: Horizon::Intervals(20),
            ..ClusterScenario::paper_default(ServiceId::Memcached)
        }
    }

    /// The members of group `group`, in ascending logical-node order: the nodes of the
    /// group's rack that start the group's jobs.
    fn members(pop: &NodePopulation<'_>, group: usize) -> Vec<usize> {
        let group = &pop.groups[group];
        let scenario = pop.scenario;
        scenario
            .topology
            .rack_members(group.rack, scenario.nodes)
            .filter(|&node| job_slice(scenario, node) == group.jobs.as_slice())
            .collect()
    }

    /// The member-list grouping and planners the one-pass ones replaced, kept as the
    /// reference they must reproduce: every node is pushed into its group's member
    /// list, found by a linear search over all groups.
    mod reference {
        use super::*;

        pub struct Group {
            pub jobs: Vec<AppId>,
            pub rack: usize,
            pub members: Vec<usize>,
        }

        pub fn groups(scenario: &ClusterScenario) -> Vec<Group> {
            let spn = scenario.slots_per_node;
            let mut groups: Vec<Group> = Vec::new();
            for index in 0..scenario.nodes {
                let slice = &scenario.jobs[index * spn..(index + 1) * spn];
                let rack = scenario.topology.rack_of(index);
                match groups
                    .iter_mut()
                    .find(|g| g.jobs == slice && g.rack == rack)
                {
                    Some(group) => group.members.push(index),
                    None => groups.push(Group {
                        jobs: slice.to_vec(),
                        rack,
                        members: vec![index],
                    }),
                }
            }
            groups
        }

        pub fn plan_instances(
            groups: &[Group],
            approximation: &FleetApproximation,
        ) -> Vec<InstancePlan> {
            match approximation {
                FleetApproximation::Exact => {
                    let mut plans = Vec::new();
                    for (gi, group) in groups.iter().enumerate() {
                        for &member in &group.members {
                            plans.push(InstancePlan {
                                group: gi,
                                seed_member: member,
                                replicas: 1,
                            });
                        }
                    }
                    plans.sort_by_key(|p| p.seed_member);
                    plans
                }
                FleetApproximation::Clustered {
                    representatives_per_group,
                } => {
                    let k = (*representatives_per_group).max(1);
                    let mut plans = Vec::new();
                    for (gi, group) in groups.iter().enumerate() {
                        chunk_group(gi, &group.members, k, &mut plans);
                    }
                    plans
                }
            }
        }

        pub fn plan_instances_isolating(
            groups: &[Group],
            approximation: &FleetApproximation,
            isolated: &[bool],
        ) -> Vec<InstancePlan> {
            match approximation {
                FleetApproximation::Exact => plan_instances(groups, approximation),
                FleetApproximation::Clustered {
                    representatives_per_group,
                } => {
                    let k = (*representatives_per_group).max(1);
                    let mut plans = Vec::new();
                    let mut pooled: Vec<usize> = Vec::new();
                    for (gi, group) in groups.iter().enumerate() {
                        let first = plans.len();
                        pooled.clear();
                        pooled.extend(group.members.iter().copied().filter(|&m| !isolated[m]));
                        chunk_group(gi, &pooled, k, &mut plans);
                        for &member in group.members.iter().filter(|&&m| isolated[m]) {
                            plans.push(InstancePlan {
                                group: gi,
                                seed_member: member,
                                replicas: 1,
                            });
                        }
                        plans[first..].sort_by_key(|p| p.seed_member);
                    }
                    plans
                }
            }
        }

        fn chunk_group(group: usize, members: &[usize], k: usize, plans: &mut Vec<InstancePlan>) {
            let len = members.len();
            if len == 0 {
                return;
            }
            let chunks = k.min(len);
            let base = len / chunks;
            let extra = len % chunks;
            let mut start = 0usize;
            for c in 0..chunks {
                let size = base + usize::from(c < extra);
                plans.push(InstancePlan {
                    group,
                    seed_member: members[start],
                    replicas: size,
                });
                start += size;
            }
        }
    }

    #[test]
    fn grouping_keys_on_the_initial_job_slice() {
        let s = scenario(7);
        let pop = NodePopulation::from_scenario(&s);
        assert_eq!(pop.total_nodes(), 7);
        assert_eq!(pop.groups().len(), 3);
        assert_eq!(members(&pop, 0), vec![0, 3, 6]);
        assert_eq!(members(&pop, 1), vec![1, 4]);
        assert_eq!(members(&pop, 2), vec![2, 5]);
        assert_eq!(
            pop.groups().iter().map(|g| g.len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(pop.groups()[0].jobs, vec![AppId::Canneal]);
        assert!(pop.groups().iter().all(|g| g.rack == 0), "flat = one rack");
        assert_eq!(pop.group_of(4), Some(1));
        assert_eq!(pop.group_of(7), None, "outside the fleet");
    }

    #[test]
    fn grouping_never_pools_nodes_across_power_domains() {
        // Same cyclic job mix, but a 2x3 rack grid: nodes 0..3 and 3..6 live in
        // different power domains, so e.g. nodes 0 and 3 (same job slice) must land in
        // different groups — a replica block must never span racks.
        let racked = ClusterScenario {
            topology: TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 3,
                rack_power_w: None,
            },
            ..scenario(6)
        };
        let pop = NodePopulation::from_scenario(&racked);
        assert_eq!(pop.groups().len(), 6, "3 job keys x 2 racks");
        for (gi, group) in pop.groups().iter().enumerate() {
            assert!(members(&pop, gi)
                .iter()
                .all(|&m| racked.topology.rack_of(m) == group.rack));
        }
        // Replica weights still conserve the fleet, and every clustered instance
        // inherits its group's single rack.
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 6);
    }

    #[test]
    fn exact_plans_one_weight_one_instance_per_node_in_logical_order() {
        let s = scenario(7);
        let pop = NodePopulation::from_scenario(&s);
        let plans = pop.plan_instances(&FleetApproximation::Exact);
        assert_eq!(plans.len(), 7);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.seed_member, i);
            assert_eq!(p.replicas, 1);
        }
    }

    #[test]
    fn clustered_plans_chunked_representatives_with_conserved_weight() {
        let s = scenario(12);
        let pop = NodePopulation::from_scenario(&s);
        // 12 nodes / 3 groups of 4; two representatives per group → chunks of 2.
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.len(), 6);
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 12);
        assert_eq!(plans[0].seed_member, 0); // group 0 = members [0,3,6,9]
        assert_eq!(plans[0].replicas, 2);
        assert_eq!(plans[1].seed_member, 6);
        // Uneven split: 3 members over 2 representatives → sizes 2 and 1.
        let s = scenario(7);
        let pop = NodePopulation::from_scenario(&s);
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 7);
        assert_eq!(plans[0].replicas, 2); // group 0 has 3 members → 2 + 1
        assert_eq!(plans[1].replicas, 1);
        assert_eq!(plans[1].seed_member, 6);
    }

    #[test]
    fn isolating_plans_split_faulted_members_out_of_their_groups() {
        let s = scenario(12);
        let pop = NodePopulation::from_scenario(&s);
        // Isolate nodes 3 (group 0) and 4 (group 1).
        let isolated = [3, 4];
        let approx = FleetApproximation::Clustered {
            representatives_per_group: 2,
        };
        let plans = pop.plan_instances_isolating(&approx, &isolated);
        // Weight is conserved and the isolated nodes are weight-1 seeds.
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 12);
        for &node in &isolated {
            assert!(
                plans
                    .iter()
                    .any(|p| p.seed_member == node && p.replicas == 1),
                "node {node} must be simulated exactly: {plans:?}"
            );
        }
        // Group 0 = [0,3,6,9]: pooled [0,6,9] chunks into 2+1, and isolated 3 takes
        // its place in seed-member order.
        let g0: Vec<_> = plans.iter().filter(|p| p.group == 0).collect();
        assert_eq!(g0.len(), 3);
        assert_eq!((g0[0].seed_member, g0[0].replicas), (0, 2));
        assert_eq!((g0[1].seed_member, g0[1].replicas), (3, 1));
        assert_eq!((g0[2].seed_member, g0[2].replicas), (9, 1));
        // With K >= group size, isolation changes nothing: every member is already a
        // weight-1 instance in logical order within its group.
        let wide = FleetApproximation::Clustered {
            representatives_per_group: 100,
        };
        assert_eq!(
            pop.plan_instances_isolating(&wide, &isolated),
            pop.plan_instances(&wide)
        );
        // With nothing isolated the plan is exactly the plain clustered plan.
        assert_eq!(
            pop.plan_instances_isolating(&approx, &[]),
            pop.plan_instances(&approx)
        );
        // Exact mode ignores the isolated nodes entirely.
        assert_eq!(
            pop.plan_instances_isolating(&FleetApproximation::Exact, &isolated),
            pop.plan_instances(&FleetApproximation::Exact)
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn isolating_rejects_nodes_outside_the_fleet() {
        let s = scenario(4);
        let pop = NodePopulation::from_scenario(&s);
        let _ = pop.plan_instances_isolating(&FleetApproximation::Exact, &[1, 4]);
    }

    #[test]
    fn enough_representatives_degenerate_to_exact() {
        let s = scenario(7);
        let pop = NodePopulation::from_scenario(&s);
        let clustered = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 100,
        });
        let mut exact = pop.plan_instances(&FleetApproximation::Exact);
        // Clustered plans are group-major; compare as sets of (seed, weight).
        exact.sort_by_key(|p| (p.group, p.seed_member));
        assert_eq!(clustered, exact);
    }

    #[test]
    fn groups_sharing_a_first_job_stay_apart_and_match_the_reference() {
        // Two-slot slices `[A, B]`, `[A, C]` and `[B, A]`: the first two share their
        // first job, so classifying them walks a first-job chain; the third starts with
        // the job the others hold second.
        let (a, b, c) = (AppId::Canneal, AppId::Snp, AppId::Raytrace);
        let slices = [[a, b], [a, c], [b, a]];
        for topology in [
            TopologyConfig::Flat,
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 7,
                rack_power_w: None,
            },
        ] {
            let scenario = ClusterScenario {
                slots_per_node: 2,
                jobs: (0..14).flat_map(|node| slices[node % 3]).collect(),
                topology,
                ..scenario(14)
            };
            let pop = NodePopulation::from_scenario(&scenario);
            let reference = reference::groups(&scenario);
            let racks = scenario.topology.rack_count();
            assert_eq!(pop.groups().len(), 3 * racks);
            assert_eq!(pop.groups().len(), reference.len());
            for (gi, (group, expected)) in pop.groups().iter().zip(&reference).enumerate() {
                assert_eq!(group.jobs, expected.jobs);
                assert_eq!(group.rack, expected.rack);
                assert_eq!(group.len, expected.members.len());
                assert_eq!(members(&pop, gi), expected.members);
                for &member in &expected.members {
                    assert_eq!(pop.group_of(member), Some(gi));
                }
            }
            let mask: Vec<bool> = (0..14).map(|node| node % 4 == 1).collect();
            let isolated: Vec<usize> = (0..14).filter(|&node| mask[node]).collect();
            for approximation in [
                FleetApproximation::Exact,
                FleetApproximation::Clustered {
                    representatives_per_group: 1,
                },
                FleetApproximation::Clustered {
                    representatives_per_group: 2,
                },
            ] {
                assert_eq!(
                    pop.plan_instances(&approximation),
                    reference::plan_instances(&reference, &approximation)
                );
                assert_eq!(
                    pop.plan_instances_isolating(&approximation, &isolated),
                    reference::plan_instances_isolating(&reference, &approximation, &mask)
                );
            }
        }
    }

    #[test]
    fn a_million_node_period_three_plan_is_the_arithmetic_one() {
        // Flat, period-3 mix: member r of group g is node 3r + g, so every chunk start
        // and weight follows from the group lengths alone, with no member list.
        let s = scenario(1_000_000);
        let pop = NodePopulation::from_scenario(&s);
        let lens: Vec<usize> = pop.groups().iter().map(|g| g.len).collect();
        assert_eq!(lens, vec![333_334, 333_333, 333_333]);
        let k = 4;
        let mut expected = Vec::new();
        for (group, &len) in lens.iter().enumerate() {
            let mut rank = 0;
            for chunk in 0..k {
                let replicas = len / k + usize::from(chunk < len % k);
                expected.push(InstancePlan {
                    group,
                    seed_member: 3 * rank + group,
                    replicas,
                });
                rank += replicas;
            }
            assert_eq!(rank, len);
        }
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: k,
        });
        assert_eq!(plans, expected);
    }

    proptest! {
        #[test]
        fn one_pass_grouping_and_planning_match_the_member_list_reference(
            seed in any::<u64>(),
            nodes in 1usize..160,
            slots_per_node in 1usize..4,
            shape in 0usize..4,
        ) {
            let mut rng = pliant_telemetry::rng::seeded_rng(seed);
            let apps = AppId::all();
            // Periodic mixes (the figures' cyclic batches) and arbitrary job lists
            // over a small or a large alphabet.
            let alphabet = [2, 3, apps.len()][rng.gen_range(0..3usize)];
            let jobs: Vec<AppId> = if shape % 2 == 0 {
                let period = rng.gen_range(1..8usize);
                let pattern: Vec<AppId> =
                    (0..period).map(|_| apps[rng.gen_range(0..alphabet)]).collect();
                (0..nodes * slots_per_node).map(|i| pattern[i % period]).collect()
            } else {
                (0..nodes * slots_per_node)
                    .map(|_| apps[rng.gen_range(0..alphabet)])
                    .collect()
            };
            let divisors: Vec<usize> = (1..=nodes).filter(|d| nodes % d == 0).collect();
            let topology = if shape < 2 {
                TopologyConfig::Flat
            } else {
                let racks = divisors[rng.gen_range(0..divisors.len())];
                TopologyConfig::Racks {
                    racks,
                    nodes_per_rack: nodes / racks,
                    rack_power_w: None,
                }
            };
            let scenario = ClusterScenario {
                slots_per_node,
                jobs,
                topology,
                ..scenario(nodes)
            };
            let pop = NodePopulation::from_scenario(&scenario);
            let reference = reference::groups(&scenario);
            prop_assert_eq!(pop.groups().len(), reference.len());
            for (gi, (group, expected)) in pop.groups().iter().zip(&reference).enumerate() {
                prop_assert_eq!(&group.jobs, &expected.jobs);
                prop_assert_eq!(group.rack, expected.rack);
                prop_assert_eq!(group.len, expected.members.len());
                prop_assert_eq!(members(&pop, gi), expected.members.clone());
                for &member in &expected.members {
                    prop_assert_eq!(pop.group_of(member), Some(gi));
                }
            }
            let density = [0.0, 0.1, 0.5, 1.0][rng.gen_range(0..4usize)];
            let mask: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(density)).collect();
            let isolated: Vec<usize> = (0..nodes).filter(|&n| mask[n]).collect();
            let approximations = [
                FleetApproximation::Exact,
                FleetApproximation::Clustered { representatives_per_group: 1 },
                FleetApproximation::Clustered { representatives_per_group: 2 },
                FleetApproximation::Clustered { representatives_per_group: 3 },
                FleetApproximation::Clustered { representatives_per_group: 100 },
            ];
            for approximation in &approximations {
                prop_assert_eq!(
                    pop.plan_instances(approximation),
                    reference::plan_instances(&reference, approximation)
                );
                prop_assert_eq!(
                    pop.plan_instances_isolating(approximation, &isolated),
                    reference::plan_instances_isolating(&reference, approximation, &mask)
                );
            }
        }

        #[test]
        fn one_pass_planning_matches_the_reference_at_hyperscale_shapes(
            seed in any::<u64>(),
            nodes in 50usize..1_001,
            slots_per_node in 1usize..4,
            period in 1usize..4,
            shape in 0usize..4,
        ) {
            // 1,000-20,000 nodes (a multiple of 20, so every rack count below divides
            // it) on a flat fleet or 2, 4 or 5 racks, each rack holding the 1-3 groups
            // of a cyclic mix whose slices may share a first job.
            let nodes = nodes * 20;
            let mut rng = pliant_telemetry::rng::seeded_rng(seed);
            let apps = AppId::all();
            let pattern: Vec<Vec<AppId>> = (0..period)
                .map(|_| {
                    (0..slots_per_node)
                        .map(|slot| apps[rng.gen_range(0..if slot == 0 { 2 } else { apps.len() })])
                        .collect()
                })
                .collect();
            let phase = rng.gen_range(0..period);
            let topology = match [1, 2, 4, 5][shape] {
                1 => TopologyConfig::Flat,
                racks => TopologyConfig::Racks {
                    racks,
                    nodes_per_rack: nodes / racks,
                    rack_power_w: None,
                },
            };
            let scenario = ClusterScenario {
                slots_per_node,
                jobs: (0..nodes)
                    .flat_map(|node| pattern[(node + phase) % period].iter().copied())
                    .collect(),
                topology,
                ..scenario(nodes)
            };
            let pop = NodePopulation::from_scenario(&scenario);
            let reference = reference::groups(&scenario);
            prop_assert_eq!(pop.groups().len(), reference.len());
            for (group, expected) in pop.groups().iter().zip(&reference) {
                prop_assert_eq!(&group.jobs, &expected.jobs);
                prop_assert_eq!(group.rack, expected.rack);
                prop_assert_eq!(group.len, expected.members.len());
            }
            prop_assert_eq!(
                pop.plan_instances(&FleetApproximation::Exact),
                reference::plan_instances(&reference, &FleetApproximation::Exact)
            );
            for k in [1, 2, 4, 7] {
                let approximation = FleetApproximation::Clustered {
                    representatives_per_group: k,
                };
                let plans = pop.plan_instances(&approximation);
                prop_assert_eq!(&plans, &reference::plan_instances(&reference, &approximation));
                // Isolate some chunk starts and the nodes just before and after them.
                let mut mask = vec![false; nodes];
                for plan in &plans {
                    if !rng.gen_bool(0.5) {
                        continue;
                    }
                    let start = plan.seed_member;
                    for node in [start.wrapping_sub(1), start, start + 1] {
                        if node < nodes && rng.gen_bool(0.7) {
                            mask[node] = true;
                        }
                    }
                }
                let isolated: Vec<usize> = (0..nodes).filter(|&n| mask[n]).collect();
                for &node in &isolated {
                    prop_assert_eq!(
                        pop.group_of(node).map(|g| &pop.groups()[g].jobs),
                        Some(&job_slice(&scenario, node).to_vec())
                    );
                }
                prop_assert_eq!(
                    pop.plan_instances_isolating(&approximation, &isolated),
                    reference::plan_instances_isolating(&reference, &approximation, &mask)
                );
            }
        }
    }
}
