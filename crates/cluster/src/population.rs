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
//! groups and instances, not in its logical size. Grouping is one pass over the
//! scenario's job list that keeps, per group, the job slice, the rack and the member
//! count. Racks are contiguous blocks of the node index space, so the
//! groups of one rack are contiguous in group order, and a 24-entry table of the rack's
//! groups indexed by first job finds a node's group with one read. Only groups that
//! share a first job (possible when `slots_per_node > 1`) are chained behind one entry
//! and told apart by the rest of their slice. Planning is a second pass that rebuilds
//! the table of each rack from its groups, looks each node up, and counts it down in its
//! group's current chunk, emitting a plan wherever a chunk starts; it stops at the last
//! chunk start.

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
}

impl<'s> NodePopulation<'s> {
    /// Partitions the scenario's logical nodes into groups keyed by their initial
    /// batch-job slice *and* their topology rack (two nodes are interchangeable only
    /// when they start the same jobs in the same power domain; see
    /// [`NodeGroup::rack`]). Groups appear in order of their first member, so the
    /// grouping is deterministic in the scenario alone.
    pub fn from_scenario(scenario: &'s ClusterScenario) -> Self {
        let mut groups: Vec<NodeGroup> = Vec::new();
        let mut index = FirstJobIndex::new();
        for rack in 0..scenario.topology.rack_count() {
            index.start_rack();
            for (_, jobs) in rack_slices(scenario, rack) {
                let group = index.find(&groups, jobs).unwrap_or_else(|| {
                    index.insert(groups.len(), jobs[0]);
                    groups.push(NodeGroup {
                        jobs: jobs.to_vec(),
                        rack,
                        len: 0,
                    });
                    groups.len() - 1
                });
                groups[group].len += 1;
            }
        }
        NodePopulation { scenario, groups }
    }

    /// The population groups, in order of first member.
    pub fn groups(&self) -> &[NodeGroup] {
        &self.groups
    }

    /// Total logical nodes across all groups (the scenario's `nodes`).
    pub fn total_nodes(&self) -> usize {
        self.scenario.nodes
    }

    /// The index into [`Self::groups`] of logical node `node`'s group (`None` for a
    /// node outside the fleet).
    fn group_of(&self, node: usize) -> Option<usize> {
        if node >= self.scenario.nodes {
            return None;
        }
        let rack = self.scenario.topology.rack_of(node);
        let jobs = job_slice(self.scenario, node);
        // Groups are ordered by first member, so by rack too.
        let rack_groups = self.groups.partition_point(|g| g.rack < rack);
        self.groups[rack_groups..]
            .iter()
            .position(|g| g.jobs == jobs)
            .map(|offset| rack_groups + offset)
    }

    /// Calls `visit(node, group)` for each logical node in ascending order with the
    /// index of its group, until `visit` returns `false`.
    fn walk(&self, mut visit: impl FnMut(usize, usize) -> bool) {
        let mut index = FirstJobIndex::new();
        // Groups are ordered by first member, so by rack too.
        let mut groups = self.groups.iter().enumerate().peekable();
        for rack in 0..self.scenario.topology.rack_count() {
            index.start_rack();
            while let Some((group, g)) = groups.next_if(|(_, g)| g.rack == rack) {
                index.insert(group, g.jobs[0]);
            }
            for (node, jobs) in rack_slices(self.scenario, rack) {
                let group = index
                    .find(&self.groups, jobs)
                    // pliant-lint: allow(panic-hygiene): grouping put every node in a
                    // group of its rack.
                    .expect("every node has a group in its rack");
                if !visit(node, group) {
                    return;
                }
            }
        }
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
        let representatives = match approximation {
            FleetApproximation::Exact => {
                let mut plans = Vec::with_capacity(self.total_nodes());
                self.walk(|node, group| {
                    plans.push(InstancePlan {
                        group,
                        seed_member: node,
                        replicas: 1,
                    });
                    true
                });
                return plans;
            }
            FleetApproximation::Clustered {
                representatives_per_group,
            } => (*representatives_per_group).max(1),
        };
        // Each group's plans are its chunks plus its isolated members, which the walk
        // meets in seed-member order.
        let mut pooled: Vec<usize> = self.groups.iter().map(|g| g.len).collect();
        for group in isolated.iter().filter_map(|&node| self.group_of(node)) {
            pooled[group] -= 1;
        }
        let mut cursors: Vec<ChunkCursor> = pooled
            .iter()
            .map(|&pooled| ChunkCursor::new(pooled, representatives.min(pooled)))
            .collect();
        let mut unplanned = isolated.len() + cursors.iter().map(|c| c.chunks_left).sum::<usize>();
        let mut plans: Vec<Vec<InstancePlan>> = vec![Vec::new(); self.groups.len()];
        let mut isolated = isolated.iter().copied();
        let mut next_isolated = isolated.next();
        // Most nodes only count down their chunk; a plan is made where one starts.
        self.walk(|node, group| {
            let cursor = &mut cursors[group];
            let replicas = if next_isolated == Some(node) {
                next_isolated = isolated.next();
                1
            } else if cursor.left_in_chunk > 0 {
                cursor.left_in_chunk -= 1;
                return true;
            } else {
                cursor.start_chunk()
            };
            plans[group].push(InstancePlan {
                group,
                seed_member: node,
                replicas,
            });
            unplanned -= 1;
            unplanned > 0
        });
        plans.concat()
    }
}

/// The logical nodes of rack `rack` in ascending order, each with its initial batch-job
/// slice.
fn rack_slices(scenario: &ClusterScenario, rack: usize) -> impl Iterator<Item = (usize, &[AppId])> {
    let spn = scenario.slots_per_node;
    let nodes = scenario.topology.rack_members(rack, scenario.nodes);
    let jobs = &scenario.jobs[nodes.start * spn..nodes.end * spn];
    nodes.zip(jobs.chunks_exact(spn))
}

/// The groups of one rack indexed by the first job of their slice, so that a node's
/// group is one table read away. Groups that share a first job, possible only when
/// `slots_per_node > 1`, are chained behind the table entry and told apart by the rest
/// of their slice.
struct FirstJobIndex {
    /// Per application, the newest group of the rack whose slice starts with it.
    heads: [usize; 24],
    /// Per group, the next older group of its rack with the same first job.
    chained: Vec<usize>,
}

/// The end of a first-job chain.
const NO_GROUP: usize = usize::MAX;

impl FirstJobIndex {
    fn new() -> Self {
        FirstJobIndex {
            heads: AppId::all().map(|_| NO_GROUP),
            chained: Vec::new(),
        }
    }

    /// Empties the table for the next rack; groups are never shared across racks.
    fn start_rack(&mut self) {
        self.heads.fill(NO_GROUP);
    }

    /// The index into `groups` of the indexed group whose slice is `jobs`.
    fn find(&self, groups: &[NodeGroup], jobs: &[AppId]) -> Option<usize> {
        let mut group = self.heads[jobs[0] as usize];
        while jobs.len() > 1 && group != NO_GROUP && groups[group].jobs[1..] != jobs[1..] {
            group = self.chained[group];
        }
        (group != NO_GROUP).then_some(group)
    }

    /// Indexes group `group` of the current rack, whose slice starts with `first`.
    /// Groups are indexed in ascending order, each once.
    fn insert(&mut self, group: usize, first: AppId) {
        debug_assert_eq!(group, self.chained.len(), "groups are indexed in order");
        let head = &mut self.heads[first as usize];
        self.chained.push(*head);
        *head = group;
    }
}

/// The initial batch-job slice of logical node `node`.
fn job_slice(scenario: &ClusterScenario, node: usize) -> &[AppId] {
    let spn = scenario.slots_per_node;
    &scenario.jobs[node * spn..(node + 1) * spn]
}

/// One group's progress through its pooled (not isolated) members while instances are
/// planned. Chunk sizes are fixed when the cursor is made, so the walk only counts.
struct ChunkCursor {
    /// Pooled members left in the current chunk after the one that started it.
    left_in_chunk: usize,
    /// Chunks not yet started.
    chunks_left: usize,
    /// Size of the smallest chunk.
    base: usize,
    /// Chunks still to start that hold one member more than `base` (the first ones).
    larger_left: usize,
}

impl ChunkCursor {
    /// A cursor splitting `pooled` members into `chunks` near-even chunks (the first
    /// `pooled % chunks` one member larger).
    fn new(pooled: usize, chunks: usize) -> Self {
        let base = pooled.checked_div(chunks).unwrap_or(0);
        let larger_left = pooled.checked_rem(chunks).unwrap_or(0);
        ChunkCursor {
            left_in_chunk: 0,
            chunks_left: chunks,
            base,
            larger_left,
        }
    }

    /// Starts the next chunk at a pooled member and returns its size. The chunk sizes
    /// add up to the pooled count, so the walk starts a chunk exactly when the current
    /// one has no members left.
    fn start_chunk(&mut self) -> usize {
        self.chunks_left -= 1;
        let size = self.base + usize::from(self.larger_left > 0);
        self.larger_left = self.larger_left.saturating_sub(1);
        self.left_in_chunk = size - 1;
        size
    }
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
    }
}
