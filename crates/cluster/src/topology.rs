//! Rack-level fleet structure: power domains, shared power budgets, and node
//! membership.
//!
//! The paper's machines-needed headline is a consolidation story, and consolidation in
//! a real datacenter happens against rack structure: nodes share a rack-level power
//! budget (the breaker rating of the rack's PDU) and a rack-level failure domain (a
//! failed PDU or top-of-rack switch takes the whole rack down at once). This module
//! adds that structure as a thin, serializable layer over the existing flat node list.
//!
//! [`TopologyConfig`] is the declarative knob on
//! [`ClusterScenario`](crate::scenario::ClusterScenario) and the only description of
//! rack structure: either [`TopologyConfig::Flat`] (the default — one implicit rack
//! holding every node, no budget, byte-identical to the pre-topology simulator) or
//! [`TopologyConfig::Racks`] (a regular `racks × nodes_per_rack` grid with an optional
//! shared per-rack power budget). Racks are rack-major blocks of the node index space,
//! so a rack's members are a [`Range`] ([`TopologyConfig::rack_members`]), the rack of a
//! node is one division ([`TopologyConfig::rack_of`]), and every rack shares the one
//! budget ([`TopologyConfig::power_budget_w`]). No query allocates or depends on the
//! fleet size beyond that arithmetic.
//!
//! Rack identity feeds three consumers: the scheduler's sampling-based online
//! placement (score candidate racks by power headroom and QoS slack before picking a
//! node — see [`crate::engine`]), the fault injector's rack-level correlated outages
//! (power-domain failures — see [`crate::faults::RackOutage`]), and the clustered
//! approximation's population grouping (replicas never span power domains — see
//! [`crate::population`]).

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Declarative rack structure of the fleet, as archived on the scenario.
///
/// `Flat` is the default and serializes to nothing at all (the scenario field is
/// skipped), so pre-topology archives round-trip byte-identically. The `Racks` form
/// describes a regular grid: `racks × nodes_per_rack` must equal the scenario's node
/// count, with node `i` living in rack `i / nodes_per_rack` — deterministic and
/// index-stable, so rack membership never depends on run-time state.
///
/// Deserialization runs [`TopologyConfig::validate_shape`], so an archive carrying an
/// impossible rack grid (zero racks, a non-finite budget) is rejected when it is read;
/// the fleet-size check runs in `ClusterScenario::validate`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(validate = "TopologyConfig::validate_shape")]
pub enum TopologyConfig {
    /// No rack structure: one implicit power/failure domain holding every node, with
    /// no power budget. Pinned byte-identical to the pre-topology simulator.
    #[default]
    Flat,
    /// A regular grid of racks, each a shared power budget and failure domain.
    Racks {
        /// Number of racks (must be positive).
        racks: usize,
        /// Nodes per rack (must be positive; `racks × nodes_per_rack` must equal the
        /// scenario's `nodes`).
        nodes_per_rack: usize,
        /// Shared power budget per rack in watts (`None` = unbudgeted). When set, the
        /// placement loop refuses to admit new batch jobs into racks whose measured
        /// power draw already exceeds the budget.
        rack_power_w: Option<f64>,
    },
}

impl TopologyConfig {
    /// Whether this is the flat (structureless) default. Used as the
    /// `skip_serializing_if` predicate that keeps pre-topology archives byte-identical.
    pub fn is_flat(&self) -> bool {
        matches!(self, TopologyConfig::Flat)
    }

    /// Number of racks (flat = one implicit rack).
    pub fn rack_count(&self) -> usize {
        match self {
            TopologyConfig::Flat => 1,
            TopologyConfig::Racks { racks, .. } => *racks,
        }
    }

    /// The rack logical node `node` lives in: rack 0 on a flat fleet, else
    /// `node / nodes_per_rack`.
    pub fn rack_of(&self, node: usize) -> usize {
        match self {
            TopologyConfig::Flat => 0,
            TopologyConfig::Racks { nodes_per_rack, .. } => node / nodes_per_rack,
        }
    }

    /// The logical nodes of rack `rack` in a fleet of `nodes`: the whole fleet on a flat
    /// topology, else the rack's `nodes_per_rack`-long block.
    pub fn rack_members(&self, rack: usize, nodes: usize) -> Range<usize> {
        match self {
            TopologyConfig::Flat => 0..nodes,
            TopologyConfig::Racks { nodes_per_rack, .. } => {
                rack * nodes_per_rack..(rack + 1) * nodes_per_rack
            }
        }
    }

    /// The shared power budget of every rack in watts: `None` on a flat fleet and on an
    /// unbudgeted grid.
    pub fn power_budget_w(&self) -> Option<f64> {
        match self {
            TopologyConfig::Flat => None,
            TopologyConfig::Racks { rack_power_w, .. } => *rack_power_w,
        }
    }

    /// Checks the node-count-independent invariants (positive grid dimensions, a
    /// positive and finite power budget). Called at the deserialization boundary;
    /// [`Self::validate`] adds the cross-check against the fleet size.
    pub fn validate_shape(&self) -> Result<(), TopologyConfigError> {
        if let TopologyConfig::Racks {
            racks,
            nodes_per_rack,
            rack_power_w,
        } = self
        {
            if *racks == 0 {
                return Err(TopologyConfigError::NoRacks);
            }
            if *nodes_per_rack == 0 {
                return Err(TopologyConfigError::NoNodesPerRack);
            }
            if let Some(budget) = rack_power_w {
                if !(*budget > 0.0 && budget.is_finite()) {
                    return Err(TopologyConfigError::InvalidPowerBudget);
                }
            }
        }
        Ok(())
    }

    /// Checks every invariant, including that the rack grid covers exactly the
    /// fleet's `nodes` (no partial racks, no orphan nodes).
    pub fn validate(&self, nodes: usize) -> Result<(), TopologyConfigError> {
        self.validate_shape()?;
        if let TopologyConfig::Racks {
            racks,
            nodes_per_rack,
            ..
        } = self
        {
            let covered = racks.checked_mul(*nodes_per_rack);
            if covered != Some(nodes) {
                return Err(TopologyConfigError::NodeCountMismatch {
                    racks: *racks,
                    nodes_per_rack: *nodes_per_rack,
                    nodes,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`TopologyConfig`] is not a valid rack structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyConfigError {
    /// The rack grid has zero racks.
    NoRacks,
    /// The rack grid has zero nodes per rack.
    NoNodesPerRack,
    /// The rack grid does not cover the fleet exactly.
    NodeCountMismatch {
        /// Racks in the grid.
        racks: usize,
        /// Nodes per rack in the grid.
        nodes_per_rack: usize,
        /// Nodes the fleet actually has.
        nodes: usize,
    },
    /// The per-rack power budget is zero, negative, or not finite.
    InvalidPowerBudget,
}

impl std::fmt::Display for TopologyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyConfigError::NoRacks => f.write_str("topology needs at least one rack"),
            TopologyConfigError::NoNodesPerRack => {
                f.write_str("racks need at least one node each")
            }
            TopologyConfigError::NodeCountMismatch {
                racks,
                nodes_per_rack,
                nodes,
            } => write!(
                f,
                "rack grid of {racks}x{nodes_per_rack} does not cover the {nodes}-node fleet exactly"
            ),
            TopologyConfigError::InvalidPowerBudget => {
                f.write_str("rack power budget must be positive and finite")
            }
        }
    }
}

impl std::error::Error for TopologyConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_resolves_to_one_unbudgeted_rack() {
        let t = TopologyConfig::Flat;
        assert!(t.is_flat());
        assert_eq!(t.rack_count(), 1);
        assert_eq!(t.rack_members(0, 5), 0..5);
        assert_eq!(t.power_budget_w(), None);
        assert!((0..5).all(|i| t.rack_of(i) == 0));
    }

    #[test]
    fn rack_grid_assigns_contiguous_members() {
        let t = TopologyConfig::Racks {
            racks: 3,
            nodes_per_rack: 2,
            rack_power_w: Some(400.0),
        };
        assert!(!t.is_flat());
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.rack_members(1, 6), 2..4);
        assert_eq!(t.rack_of(4), 2);
        assert!((0..t.rack_count()).all(|r| t.rack_members(r, 6).all(|i| t.rack_of(i) == r)));
        assert_eq!(t.power_budget_w(), Some(400.0));
        let unbudgeted = TopologyConfig::Racks {
            racks: 3,
            nodes_per_rack: 2,
            rack_power_w: None,
        };
        assert_eq!(unbudgeted.power_budget_w(), None);
    }

    #[test]
    fn validation_catches_degenerate_grids() {
        assert_eq!(
            TopologyConfig::Racks {
                racks: 0,
                nodes_per_rack: 2,
                rack_power_w: None,
            }
            .validate(0)
            .unwrap_err(),
            TopologyConfigError::NoRacks
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 0,
                rack_power_w: None,
            }
            .validate(0)
            .unwrap_err(),
            TopologyConfigError::NoNodesPerRack
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 2,
                rack_power_w: None,
            }
            .validate(5)
            .unwrap_err(),
            TopologyConfigError::NodeCountMismatch {
                racks: 2,
                nodes_per_rack: 2,
                nodes: 5,
            }
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 2,
                rack_power_w: Some(0.0),
            }
            .validate(4)
            .unwrap_err(),
            TopologyConfigError::InvalidPowerBudget
        );
        assert!(TopologyConfig::Flat.validate(7).is_ok());
    }

    #[test]
    fn config_round_trips_and_rejects_corruption_at_the_boundary() {
        let config = TopologyConfig::Racks {
            racks: 2,
            nodes_per_rack: 3,
            rack_power_w: Some(350.0),
        };
        let json = serde_json::to_string(&config).expect("serializable");
        let back: TopologyConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, config);

        let flat_json = serde_json::to_string(&TopologyConfig::Flat).expect("serializable");
        let back: TopologyConfig = serde_json::from_str(&flat_json).expect("deserializable");
        assert!(back.is_flat());

        let corrupted = json.replace("\"racks\":2", "\"racks\":0");
        let err = serde_json::from_str::<TopologyConfig>(&corrupted)
            .expect_err("a zero-rack grid must not deserialize");
        assert!(err.to_string().contains("at least one rack"));
    }
}
