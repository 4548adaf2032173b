//! The node population: logical nodes grouped by shared per-node state, and the plan
//! that materializes the population into simulated instances.
//!
//! A [`ClusterScenario`] describes `nodes` *logical*
//! nodes. Every per-node input except the initial batch-job slice is scenario-wide
//! (service, policy, QoS target, decision cadence, load share under a symmetric
//! balancer), so the population partitions the fleet into [`NodeGroup`]s keyed by that
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
    /// Logical-node indices of the members, in ascending order.
    pub members: Vec<usize>,
}

impl NodeGroup {
    /// Number of logical nodes in the group.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePopulation {
    groups: Vec<NodeGroup>,
    total_nodes: usize,
}

impl NodePopulation {
    /// Partitions the scenario's logical nodes into groups keyed by their initial
    /// batch-job slice *and* their topology rack (two nodes are interchangeable only
    /// when they start the same jobs in the same power domain; see
    /// [`NodeGroup::rack`]). Groups appear in order of their first member, and members
    /// within a group ascend, so the grouping is deterministic in the scenario alone.
    pub fn from_scenario(scenario: &ClusterScenario) -> Self {
        let spn = scenario.slots_per_node;
        let mut groups: Vec<NodeGroup> = Vec::new();
        for index in 0..scenario.nodes {
            let slice = &scenario.jobs[index * spn..(index + 1) * spn];
            let rack = scenario.topology.rack_of(index);
            match groups
                .iter_mut()
                .find(|g| g.jobs == slice && g.rack == rack)
            {
                Some(group) => group.members.push(index),
                None => groups.push(NodeGroup {
                    jobs: slice.to_vec(),
                    rack,
                    members: vec![index],
                }),
            }
        }
        NodePopulation {
            groups,
            total_nodes: scenario.nodes,
        }
    }

    /// The population groups, in order of first member.
    pub fn groups(&self) -> &[NodeGroup] {
        &self.groups
    }

    /// Total logical nodes across all groups (the scenario's `nodes`).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
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
        match approximation {
            FleetApproximation::Exact => {
                let mut plans = Vec::with_capacity(self.total_nodes);
                for (gi, group) in self.groups.iter().enumerate() {
                    for &member in &group.members {
                        plans.push(InstancePlan {
                            group: gi,
                            seed_member: member,
                            replicas: 1,
                        });
                    }
                }
                // Exact mode must walk nodes in logical order (construction order is
                // part of the byte-identity contract), not group-major order.
                plans.sort_by_key(|p| p.seed_member);
                plans
            }
            FleetApproximation::Clustered {
                representatives_per_group,
            } => {
                let k = (*representatives_per_group).max(1);
                let mut plans = Vec::new();
                for (gi, group) in self.groups.iter().enumerate() {
                    chunk_group(gi, &group.members, k, &mut plans);
                }
                plans
            }
        }
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
    /// Panics if `isolated` is not exactly [`Self::total_nodes`] long.
    pub fn plan_instances_isolating(
        &self,
        approximation: &FleetApproximation,
        isolated: &[bool],
    ) -> Vec<InstancePlan> {
        assert_eq!(
            isolated.len(),
            self.total_nodes,
            "isolation mask must cover every logical node"
        );
        match approximation {
            FleetApproximation::Exact => self.plan_instances(approximation),
            FleetApproximation::Clustered {
                representatives_per_group,
            } => {
                let k = (*representatives_per_group).max(1);
                let mut plans = Vec::new();
                let mut pooled: Vec<usize> = Vec::new();
                for (gi, group) in self.groups.iter().enumerate() {
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
}

/// Splits one group's (remaining) members into at most `k` near-even contiguous chunks
/// and appends one representative plan per chunk. No-op for an empty member list.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use pliant_workloads::service::ServiceId;

    fn scenario(nodes: usize) -> ClusterScenario {
        // Three-app cyclic mix: nodes i, i+3, i+6, … share a group.
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        ClusterScenario::builder(ServiceId::Memcached)
            .nodes(nodes)
            .jobs((0..nodes).map(|i| mix[i % 3]))
            .horizon_intervals(20)
            .build()
    }

    #[test]
    fn grouping_keys_on_the_initial_job_slice() {
        let pop = NodePopulation::from_scenario(&scenario(7));
        assert_eq!(pop.total_nodes(), 7);
        assert_eq!(pop.groups().len(), 3);
        assert_eq!(pop.groups()[0].members, vec![0, 3, 6]);
        assert_eq!(pop.groups()[1].members, vec![1, 4]);
        assert_eq!(pop.groups()[2].members, vec![2, 5]);
        assert_eq!(pop.groups()[0].jobs, vec![AppId::Canneal]);
        assert!(pop.groups().iter().all(|g| g.rack == 0), "flat = one rack");
    }

    #[test]
    fn grouping_never_pools_nodes_across_power_domains() {
        // Same cyclic job mix, but a 2x3 rack grid: nodes 0..3 and 3..6 live in
        // different power domains, so e.g. nodes 0 and 3 (same job slice) must land in
        // different groups — a replica block must never span racks.
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        let racked = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs((0..6).map(|i| mix[i % 3]))
            .topology(crate::topology::TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 3,
                rack_power_w: None,
            })
            .horizon_intervals(20)
            .build();
        let pop = NodePopulation::from_scenario(&racked);
        assert_eq!(pop.groups().len(), 6, "3 job keys x 2 racks");
        for group in pop.groups() {
            let topology = Topology::resolve(&racked.topology, racked.nodes);
            assert!(group
                .members
                .iter()
                .all(|&m| topology.rack_of(m) == group.rack));
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
        let pop = NodePopulation::from_scenario(&scenario(7));
        let plans = pop.plan_instances(&FleetApproximation::Exact);
        assert_eq!(plans.len(), 7);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.seed_member, i);
            assert_eq!(p.replicas, 1);
        }
    }

    #[test]
    fn clustered_plans_chunked_representatives_with_conserved_weight() {
        let pop = NodePopulation::from_scenario(&scenario(12));
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
        let pop = NodePopulation::from_scenario(&scenario(7));
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
        let pop = NodePopulation::from_scenario(&scenario(12));
        // Isolate nodes 3 (group 0) and 4 (group 1).
        let mut isolated = vec![false; 12];
        isolated[3] = true;
        isolated[4] = true;
        let approx = FleetApproximation::Clustered {
            representatives_per_group: 2,
        };
        let plans = pop.plan_instances_isolating(&approx, &isolated);
        // Weight is conserved and the isolated nodes are weight-1 seeds.
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 12);
        for &node in &[3usize, 4] {
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
        let none = vec![false; 12];
        assert_eq!(
            pop.plan_instances_isolating(&approx, &none),
            pop.plan_instances(&approx)
        );
        // Exact mode ignores the mask entirely.
        assert_eq!(
            pop.plan_instances_isolating(&FleetApproximation::Exact, &isolated),
            pop.plan_instances(&FleetApproximation::Exact)
        );
    }

    #[test]
    fn enough_representatives_degenerate_to_exact() {
        let pop = NodePopulation::from_scenario(&scenario(7));
        let clustered = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 100,
        });
        let mut exact = pop.plan_instances(&FleetApproximation::Exact);
        // Clustered plans are group-major; compare as sets of (seed, weight).
        exact.sort_by_key(|p| (p.group, p.seed_member));
        assert_eq!(clustered, exact);
    }
}
