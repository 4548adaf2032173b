//! Deterministic sim-time tracing: typed events, metric counters, ring-buffer
//! retention, and export sinks.
//!
//! Every decision layer of the simulator (per-node Pliant controllers, the fleet's
//! load split, the batch scheduler, the energy-aware autoscaler, and the hyperscale
//! planner) emits typed, sim-time-stamped [`Event`]s into per-source [`ObsBuffer`]s.
//! Buffers are filled *source-side* — each node's buffer lives inside the node and is
//! written as the node steps, exactly like the per-node latency histograms and energy
//! counters — and merged into one [`EventLog`] in deterministic source order at the end
//! of the run. The log depends only on the scenario and the level: a replay, or the
//! same run as one cell of a suite on any number of engine workers, produces a
//! byte-identical event stream.
//!
//! # Levels and cost
//!
//! Observability is opt-in per run via [`ObsLevel`]:
//!
//! * [`ObsLevel::Off`] — the default *null sink*. [`ObsBuffer::emit`] returns
//!   immediately without touching memory; the hot path pays one branch.
//! * [`ObsLevel::Decisions`] — every decision event (controller actions, QoS
//!   violations, autoscaler transitions, placements, interval summaries).
//! * [`ObsLevel::Full`] — adds the high-volume per-node-per-interval events
//!   (load-split dispatch assignments).
//!
//! Retention is bounded: each buffer is a preallocated ring that keeps the most recent
//! `capacity` records and counts what it overwrote in [`EventLog::dropped`], so a
//! 10k-node hyperscale run stays within a predictable memory budget. The
//! [`MetricsRegistry`] counters are exempt from retention — they count every emitted
//! event (replica-weighted), whether or not the ring still holds its record.
//!
//! # Clustered approximation
//!
//! Under the clustered fleet approximation each simulated instance stands for
//! `replicas` logical nodes. Its buffer tags every record with that weight
//! ([`EventRecord::weight`]), so counter-style analyses replica-weight representative
//! events the same way the outcome aggregates do; exact instances carry weight 1.
//!
//! # Sinks
//!
//! A merged [`EventLog`] can be exported as JSON Lines (one [`EventRecord`] per line,
//! the format `pliant-trace` reads back) or as Chrome trace-event JSON (open in
//! Perfetto or `chrome://tracing` for an interactive timeline). See [`SinkFormat`].

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

/// Default per-node ring capacity (records), used by the engines.
pub const DEFAULT_NODE_CAPACITY: usize = 4096;
/// Default fleet-coordinator ring capacity (records), used by the cluster engine.
pub const DEFAULT_FLEET_CAPACITY: usize = 65_536;

/// How much a run records; see the module docs for the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsLevel {
    /// Record nothing (the allocation-free null sink; the default).
    #[default]
    Off,
    /// Record decision events only.
    Decisions,
    /// Record decision events plus per-node dispatch detail.
    Full,
}

impl ObsLevel {
    /// Parses a command-line level name (`off` / `decisions` / `full`).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "decisions" => Some(ObsLevel::Decisions),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// The command-line name of the level.
    pub fn as_str(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Decisions => "decisions",
            ObsLevel::Full => "full",
        }
    }
}

/// The kind of action a controller decision carried (the observability mirror of
/// `pliant_core::actuator::Action`, reduced to its discriminant so events stay
/// heap-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsAction {
    /// Switch an application to a different variant (precise or approximate).
    SetVariant,
    /// Reclaim one core from an application for the interactive service.
    ReclaimCore,
    /// Return one previously-reclaimed core to an application.
    ReturnCore,
}

/// A node power state as the autoscaler reports it (mirror of
/// `pliant_cluster::autoscaler::NodePowerState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerStateKind {
    /// Serving traffic.
    Active,
    /// Excluded from dispatch, finishing its batch slots before parking.
    Draining,
    /// Suspended (billing the suspend draw, serving nothing).
    Parked,
}

/// What triggered an autoscaler transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleTrigger {
    /// The scale-out rule reactivated the node (sustained overload or a QoS breach).
    ScaleOut,
    /// The scale-in rule started draining the node (sustained headroom).
    ScaleIn,
    /// A draining node finished its batch work and parked.
    DrainComplete,
}

/// One typed, sim-time-stamped event. All payloads are primitive (no heap data), so
/// emitting an event never allocates; identity fields are *instance* indices (the
/// node index reported in snapshots and outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Emitted once at fleet construction: the run's logical shape. `job_codes` of
    /// other events index `AppId::all()`.
    FleetStart {
        /// Logical fleet size.
        nodes: u32,
        /// Simulated instances (equals `nodes` in exact mode).
        instances: u32,
        /// Batch slots per node.
        slots_per_node: u32,
        /// The fleet-wide QoS target, in seconds.
        qos_target_s: f64,
    },
    /// Emitted per population group at fleet construction when the clustered
    /// approximation is active: how the group was collapsed onto representatives.
    ApproximationPlan {
        /// Population-group index.
        group: u32,
        /// Representatives simulated for the group.
        representatives: u32,
        /// Logical nodes the group contains (the representatives' summed weight).
        replicas: u32,
    },
    /// A controller produced an action for one of its applications: the monitor
    /// signal it acted on and what it decided.
    ControllerDecision {
        /// Instance index of the deciding node.
        node: u32,
        /// Application slot the action targets.
        app: u32,
        /// The smoothed tail-latency signal the decision was based on, in seconds.
        signal_p99_s: f64,
        /// Latency slack relative to the QoS target (positive = headroom).
        slack: f64,
        /// The kind of action decided.
        action: ObsAction,
    },
    /// The actuator switched an application's variant.
    VariantSwitch {
        /// Instance index.
        node: u32,
        /// Application slot.
        app: u32,
        /// Target variant: `-1` = precise, `k >= 0` indexes the approximate variants.
        variant: i64,
    },
    /// The actuator reclaimed one core from an application.
    CoreReclaimed {
        /// Instance index.
        node: u32,
        /// Application slot the core came from.
        app: u32,
    },
    /// The actuator returned one core to an application.
    CoreReturned {
        /// Instance index.
        node: u32,
        /// Application slot the core went back to.
        app: u32,
    },
    /// A measured traffic-serving interval violated the node's QoS target.
    QosViolation {
        /// Instance index.
        node: u32,
        /// The interval's p99 latency, in seconds.
        p99_s: f64,
        /// The node's QoS target, in seconds.
        qos_target_s: f64,
    },
    /// The fleet's even load split routed load to a node this interval (Full level
    /// only — one per serving node per interval).
    BalancerDispatch {
        /// Instance index.
        node: u32,
        /// Offered load routed to the node, per replica, in saturation units.
        assigned_load: f64,
    },
    /// A serving node received zero load while the fleet had load to place. No fleet
    /// emits it: the even load split hands every serving node a positive share. The
    /// variant stays because the benchmark's counter table (`balancer.sheds`) names
    /// its kind; it goes when the benchmark retires that counter.
    BalancerShed {
        /// Instance index.
        node: u32,
    },
    /// The batch scheduler placed queued jobs onto a node.
    JobPlaced {
        /// Instance index of the receiving node.
        node: u32,
        /// Job identity: index into `AppId::all()`.
        job_code: u32,
        /// Logical jobs the placement stands for (a clustered batch collapses `w`
        /// identical queued jobs onto one representative slot).
        weight: u32,
    },
    /// A node slot's finished job was replaced by a fresh one (the node-side half of
    /// a placement).
    JobReplaced {
        /// Instance index.
        node: u32,
        /// Batch slot that was recycled.
        slot: u32,
        /// Logical jobs the new occupant stands for.
        weight: u32,
    },
    /// A batch job ran to completion.
    JobCompleted {
        /// Instance index.
        node: u32,
        /// Batch slot the job occupied.
        slot: u32,
        /// Logical jobs the completion stands for.
        weight: u32,
        /// Output-quality loss of the completed job, in percent.
        inaccuracy_pct: f64,
    },
    /// Fault injection crashed a node: it stops serving traffic and running batch
    /// work until it recovers.
    NodeFailed {
        /// Instance index of the crashed node.
        node: u32,
        /// Length of the outage, in decision intervals.
        outage_intervals: u32,
    },
    /// A crashed node came back after its outage and rejoined the fleet.
    NodeRecovered {
        /// Instance index of the recovered node.
        node: u32,
    },
    /// Fault injection degraded a node's effective frequency (a straggler): it keeps
    /// serving, but its capacity is scaled by `factor` until the episode ends.
    NodeDegraded {
        /// Instance index of the degraded node.
        node: u32,
        /// Capacity multiplier while degraded (`0 < factor < 1`).
        factor: f64,
        /// Length of the degradation episode, in decision intervals.
        intervals: u32,
    },
    /// A batch job lost on a crashed node was returned to the scheduler queue.
    JobRequeued {
        /// Instance index of the crashed node the job was running on.
        node: u32,
        /// Job identity: index into `AppId::all()`.
        job_code: u32,
        /// Logical jobs the requeue stands for (replica-weighted).
        weight: u32,
    },
    /// The autoscaler moved a node between power states.
    AutoscalerTransition {
        /// Instance index.
        node: u32,
        /// State before the transition.
        from: PowerStateKind,
        /// State after the transition.
        to: PowerStateKind,
        /// What triggered it.
        trigger: ScaleTrigger,
    },
    /// Fleet-interval rollup emitted by the coordinator after every interval: the
    /// per-interval counters the machines-needed narrative is reconstructed from.
    IntervalSummary {
        /// Logical nodes serving traffic this interval.
        active_nodes: u32,
        /// Total offered load, in node-saturation units.
        total_load: f64,
        /// Logical node-intervals that served traffic (replica-weighted).
        busy: u32,
        /// Logical node-intervals that violated QoS (replica-weighted).
        violating: u32,
        /// Logical jobs placed at the start of the interval.
        jobs_placed: u32,
    },
    /// The sampling-based online placement picked a rack for this interval's batch
    /// admissions: `rack` won among `candidates` sampled power domains on combined
    /// power headroom and QoS slack.
    RackPlacement {
        /// The winning rack, in topology order.
        rack: u32,
        /// Racks sampled and scored this decision.
        candidates: u32,
        /// The winner's power headroom against its rack budget, in watts
        /// (`f64::INFINITY` serialized as a very large number never occurs: an
        /// unbudgeted rack reports the sampled score's neutral headroom of `0.0`).
        power_headroom_w: f64,
        /// The winner's mean QoS slack fraction across its serving members.
        qos_slack: f64,
    },
    /// A live migration moved an in-flight batch job between nodes (consolidation
    /// draining a node without waiting for its jobs to finish).
    JobMigrated {
        /// Instance index the job was extracted from (the draining node).
        node: u32,
        /// Instance index the job was implanted into.
        to_node: u32,
        /// Logical jobs the migration stands for (replica-weighted).
        weight: u32,
    },
    /// A rack's measured power crossed its budget: the scheduler stopped admitting
    /// placements into the rack until its draw fell back under the cap.
    RackPowerCapped {
        /// The capped rack, in topology order.
        rack: u32,
        /// The rack's measured power over the previous interval, in watts.
        power_w: f64,
        /// The rack's configured budget, in watts.
        budget_w: f64,
    },
    /// A rack power domain failed: every member node crashes at once for the duration
    /// (the fault schedule carries the per-member crashes; this fleet-level event
    /// marks the correlated cause).
    RackOutage {
        /// The failed rack, in topology order.
        rack: u32,
        /// Member nodes taken down together.
        nodes: u32,
        /// Length of the outage, in decision intervals.
        duration_intervals: u32,
    },
}

/// Event kinds, used to index [`MetricsRegistry`] counters. Order is the stable
/// counter order of [`ObsSummary::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EventKind {
    /// [`Event::FleetStart`].
    FleetStart = 0,
    /// [`Event::ApproximationPlan`].
    ApproximationPlan,
    /// [`Event::ControllerDecision`].
    ControllerDecision,
    /// [`Event::VariantSwitch`].
    VariantSwitch,
    /// [`Event::CoreReclaimed`].
    CoreReclaimed,
    /// [`Event::CoreReturned`].
    CoreReturned,
    /// [`Event::QosViolation`].
    QosViolation,
    /// [`Event::BalancerDispatch`].
    BalancerDispatch,
    /// [`Event::BalancerShed`].
    BalancerShed,
    /// [`Event::JobPlaced`].
    JobPlaced,
    /// [`Event::JobReplaced`].
    JobReplaced,
    /// [`Event::JobCompleted`].
    JobCompleted,
    /// [`Event::NodeFailed`].
    NodeFailed,
    /// [`Event::NodeRecovered`].
    NodeRecovered,
    /// [`Event::NodeDegraded`].
    NodeDegraded,
    /// [`Event::JobRequeued`].
    JobRequeued,
    /// [`Event::AutoscalerTransition`].
    AutoscalerTransition,
    /// [`Event::IntervalSummary`].
    IntervalSummary,
    /// [`Event::RackPlacement`].
    RackPlacement,
    /// [`Event::JobMigrated`].
    JobMigrated,
    /// [`Event::RackPowerCapped`].
    RackPowerCapped,
    /// [`Event::RackOutage`].
    RackOutage,
}

/// Number of event kinds (length of [`EventKind::ALL`]).
pub const EVENT_KINDS: usize = 22;

impl EventKind {
    /// Every kind, in counter order.
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::FleetStart,
        EventKind::ApproximationPlan,
        EventKind::ControllerDecision,
        EventKind::VariantSwitch,
        EventKind::CoreReclaimed,
        EventKind::CoreReturned,
        EventKind::QosViolation,
        EventKind::BalancerDispatch,
        EventKind::BalancerShed,
        EventKind::JobPlaced,
        EventKind::JobReplaced,
        EventKind::JobCompleted,
        EventKind::NodeFailed,
        EventKind::NodeRecovered,
        EventKind::NodeDegraded,
        EventKind::JobRequeued,
        EventKind::AutoscalerTransition,
        EventKind::IntervalSummary,
        EventKind::RackPlacement,
        EventKind::JobMigrated,
        EventKind::RackPowerCapped,
        EventKind::RackOutage,
    ];

    /// The kind's stable name (matches the [`Event`] variant name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FleetStart => "FleetStart",
            EventKind::ApproximationPlan => "ApproximationPlan",
            EventKind::ControllerDecision => "ControllerDecision",
            EventKind::VariantSwitch => "VariantSwitch",
            EventKind::CoreReclaimed => "CoreReclaimed",
            EventKind::CoreReturned => "CoreReturned",
            EventKind::QosViolation => "QosViolation",
            EventKind::BalancerDispatch => "BalancerDispatch",
            EventKind::BalancerShed => "BalancerShed",
            EventKind::JobPlaced => "JobPlaced",
            EventKind::JobReplaced => "JobReplaced",
            EventKind::JobCompleted => "JobCompleted",
            EventKind::NodeFailed => "NodeFailed",
            EventKind::NodeRecovered => "NodeRecovered",
            EventKind::NodeDegraded => "NodeDegraded",
            EventKind::JobRequeued => "JobRequeued",
            EventKind::AutoscalerTransition => "AutoscalerTransition",
            EventKind::IntervalSummary => "IntervalSummary",
            EventKind::RackPlacement => "RackPlacement",
            EventKind::JobMigrated => "JobMigrated",
            EventKind::RackPowerCapped => "RackPowerCapped",
            EventKind::RackOutage => "RackOutage",
        }
    }

    /// Parses a kind name (as printed by [`Self::name`]).
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::FleetStart { .. } => EventKind::FleetStart,
            Event::ApproximationPlan { .. } => EventKind::ApproximationPlan,
            Event::ControllerDecision { .. } => EventKind::ControllerDecision,
            Event::VariantSwitch { .. } => EventKind::VariantSwitch,
            Event::CoreReclaimed { .. } => EventKind::CoreReclaimed,
            Event::CoreReturned { .. } => EventKind::CoreReturned,
            Event::QosViolation { .. } => EventKind::QosViolation,
            Event::BalancerDispatch { .. } => EventKind::BalancerDispatch,
            Event::BalancerShed { .. } => EventKind::BalancerShed,
            Event::JobPlaced { .. } => EventKind::JobPlaced,
            Event::JobReplaced { .. } => EventKind::JobReplaced,
            Event::JobCompleted { .. } => EventKind::JobCompleted,
            Event::NodeFailed { .. } => EventKind::NodeFailed,
            Event::NodeRecovered { .. } => EventKind::NodeRecovered,
            Event::NodeDegraded { .. } => EventKind::NodeDegraded,
            Event::JobRequeued { .. } => EventKind::JobRequeued,
            Event::AutoscalerTransition { .. } => EventKind::AutoscalerTransition,
            Event::IntervalSummary { .. } => EventKind::IntervalSummary,
            Event::RackPlacement { .. } => EventKind::RackPlacement,
            Event::JobMigrated { .. } => EventKind::JobMigrated,
            Event::RackPowerCapped { .. } => EventKind::RackPowerCapped,
            Event::RackOutage { .. } => EventKind::RackOutage,
        }
    }

    /// The minimum [`ObsLevel`] at which the event is recorded.
    pub fn min_level(&self) -> ObsLevel {
        match self {
            Event::BalancerDispatch { .. } => ObsLevel::Full,
            _ => ObsLevel::Decisions,
        }
    }

    /// The instance index the event is about, when it has one (fleet-wide events —
    /// `FleetStart`, `ApproximationPlan`, `IntervalSummary`, and the rack-scoped
    /// events — have none; a migration reports its *source* node, the one being
    /// drained).
    pub fn node(&self) -> Option<u32> {
        match *self {
            Event::ControllerDecision { node, .. }
            | Event::VariantSwitch { node, .. }
            | Event::CoreReclaimed { node, .. }
            | Event::CoreReturned { node, .. }
            | Event::QosViolation { node, .. }
            | Event::BalancerDispatch { node, .. }
            | Event::BalancerShed { node }
            | Event::JobPlaced { node, .. }
            | Event::JobReplaced { node, .. }
            | Event::JobCompleted { node, .. }
            | Event::NodeFailed { node, .. }
            | Event::NodeRecovered { node }
            | Event::NodeDegraded { node, .. }
            | Event::JobRequeued { node, .. }
            | Event::AutoscalerTransition { node, .. }
            | Event::JobMigrated { node, .. } => Some(node),
            Event::FleetStart { .. }
            | Event::ApproximationPlan { .. }
            | Event::IntervalSummary { .. }
            | Event::RackPlacement { .. }
            | Event::RackPowerCapped { .. }
            | Event::RackOutage { .. } => None,
        }
    }
}

/// One recorded event: the decision interval and sim time it happened at, which
/// buffer recorded it, and the replica weight of that source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Decision-interval index (0-based).
    pub interval: u32,
    /// Simulated time of the interval, in seconds.
    pub time_s: f64,
    /// Which buffer recorded the event: `0` is the fleet coordinator, `i + 1` is
    /// instance `i`.
    pub source: u32,
    /// Replica weight of the source — the logical nodes a representative-sourced
    /// event stands for (`1` on exact instances and the coordinator). Counter-style
    /// analyses multiply by this, exactly like the outcome aggregates.
    pub weight: u32,
    /// The event itself.
    pub event: Event,
}

/// Fixed-slot counters over event kinds: raw emitted counts and replica-weighted
/// logical counts. Incrementing never allocates (the registry is two fixed arrays),
/// which is what lets it sit on the per-interval hot path.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counts: [u64; EVENT_KINDS],
    weighted: [u64; EVENT_KINDS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counts: [0; EVENT_KINDS],
            weighted: [0; EVENT_KINDS],
        }
    }

    /// Counts one event of `kind` emitted by a source standing for `weight` logical
    /// nodes.
    #[inline]
    pub fn record(&mut self, kind: EventKind, weight: u32) {
        let i = kind as usize;
        self.counts[i] += 1;
        self.weighted[i] += u64::from(weight);
    }

    /// Raw emitted count for `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Replica-weighted logical count for `kind`.
    pub fn weighted(&self, kind: EventKind) -> u64 {
        self.weighted[kind as usize]
    }

    /// Folds another registry into this one (used by the deterministic merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for i in 0..EVENT_KINDS {
            self.counts[i] += other.counts[i];
            self.weighted[i] += other.weighted[i];
        }
    }

    /// Total raw events counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total replica-weighted events counted.
    pub fn total_weighted(&self) -> u64 {
        self.weighted.iter().sum()
    }
}

/// One named counter in an [`ObsSummary`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsCounter {
    /// Event-kind name (see [`EventKind::name`]).
    pub name: String,
    /// Raw emitted events of this kind.
    pub count: u64,
    /// Replica-weighted logical events of this kind.
    pub weighted: u64,
}

/// Outcome-attached observability rollup: what a run emitted, folded per event kind.
/// Attached as `ColocationOutcome.obs` / `ClusterOutcome.obs` with `serde(default)`,
/// so archives written before the observability subsystem still deserialize (as an
/// empty, level-`Off` summary).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSummary {
    /// The level the run recorded at.
    #[serde(default)]
    pub level: ObsLevel,
    /// Raw events emitted (counted even when the ring dropped their records).
    #[serde(default)]
    pub events_recorded: u64,
    /// Replica-weighted logical events emitted.
    #[serde(default)]
    pub events_weighted: u64,
    /// Records the bounded rings overwrote (retention pressure; raise the capacity or
    /// lower the level if nonzero matters).
    #[serde(default)]
    pub events_dropped: u64,
    /// Per-kind counters in [`EventKind::ALL`] order, omitting all-zero kinds.
    #[serde(default)]
    pub counters: Vec<ObsCounter>,
}

impl ObsSummary {
    /// The counter for a kind, when the run emitted any.
    pub fn counter(&self, kind: EventKind) -> Option<&ObsCounter> {
        self.counters.iter().find(|c| c.name == kind.name())
    }
}

/// A bounded, per-source event ring: the recording half of the subsystem. One
/// buffer belongs to exactly one source (the fleet coordinator or one node
/// instance) and only that source writes it, so filling it needs no
/// synchronization.
#[derive(Debug, Clone)]
pub struct ObsBuffer {
    level: ObsLevel,
    source: u32,
    weight: u32,
    capacity: usize,
    /// Ring storage. Until the ring wraps this is chronological; afterwards the
    /// oldest record sits at `head` and the ring reads `records[head..] ++
    /// records[..head]`.
    records: Vec<EventRecord>,
    head: usize,
    dropped: u64,
    registry: MetricsRegistry,
}

impl ObsBuffer {
    /// A disabled buffer ([`ObsLevel::Off`], zero capacity, no allocation). This is
    /// the null sink every engine uses by default.
    pub fn disabled() -> Self {
        ObsBuffer {
            level: ObsLevel::Off,
            source: 0,
            weight: 1,
            capacity: 0,
            records: Vec::new(),
            head: 0,
            dropped: 0,
            registry: MetricsRegistry::new(),
        }
    }

    /// A recording buffer for `source` (0 = fleet coordinator, `i + 1` = instance
    /// `i`) whose events stand for `weight` logical nodes, retaining the most recent
    /// `capacity` records. The ring is preallocated here so [`Self::emit`] never
    /// allocates.
    pub fn new(level: ObsLevel, source: u32, weight: u32, capacity: usize) -> Self {
        let capacity = if level == ObsLevel::Off { 0 } else { capacity };
        ObsBuffer {
            level,
            source,
            weight: weight.max(1),
            capacity,
            records: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            registry: MetricsRegistry::new(),
        }
    }

    /// The buffer's recording level.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Whether the buffer records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != ObsLevel::Off
    }

    /// Records one event at `interval` / `time_s`. With the level
    /// [`Off`](ObsLevel::Off) this is a no-op (one branch, no memory traffic); below
    /// the event's [`Event::min_level`] it is likewise skipped. Otherwise the
    /// counters are updated and the record lands in the ring, overwriting the oldest
    /// record once `capacity` is reached. Never allocates.
    #[inline]
    pub fn emit(&mut self, interval: u32, time_s: f64, event: Event) {
        if self.level == ObsLevel::Off {
            return;
        }
        if event.min_level() == ObsLevel::Full && self.level != ObsLevel::Full {
            return;
        }
        self.registry.record(event.kind(), self.weight);
        let record = EventRecord {
            interval,
            time_s,
            source: self.source,
            weight: self.weight,
            event,
        };
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else if self.capacity > 0 {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Records the ring currently holds (oldest lost records excluded).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drains the ring into `out` in chronological order and folds the counters into
    /// `registry`, leaving the buffer empty but reusable.
    fn drain_into(&mut self, out: &mut Vec<EventRecord>, registry: &mut MetricsRegistry) -> u64 {
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        registry.merge(&self.registry);
        let dropped = self.dropped;
        self.records.clear();
        self.head = 0;
        self.dropped = 0;
        self.registry = MetricsRegistry::new();
        dropped
    }
}

/// The merged, deterministic event stream of one run.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// The level the run recorded at.
    pub level: ObsLevel,
    /// Every retained record, ordered by `(interval, source, emission order)`.
    pub records: Vec<EventRecord>,
    /// Records the bounded rings overwrote across all sources.
    pub dropped: u64,
    registry: MetricsRegistry,
}

impl EventLog {
    /// Merges per-source buffers into one deterministic stream. `buffers` must be
    /// supplied in source order (fleet coordinator first, then instances by index) —
    /// the same deterministic node order the cluster engine uses to merge latency
    /// histograms and energy. Within a source, records keep their emission order;
    /// across sources they are interleaved by interval with a stable sort, so the
    /// merged stream depends only on what each source recorded, not on when its buffer
    /// was filled.
    pub fn merge(level: ObsLevel, buffers: impl IntoIterator<Item = ObsBuffer>) -> Self {
        let mut records = Vec::new();
        let mut registry = MetricsRegistry::new();
        let mut dropped = 0u64;
        for mut buffer in buffers {
            dropped += buffer.drain_into(&mut records, &mut registry);
        }
        // Stable by construction: buffers arrive in source order and each is
        // chronological, so sorting by interval alone interleaves sources
        // deterministically (fleet events first within an interval, then nodes).
        records.sort_by_key(|r| r.interval);
        EventLog {
            level,
            records,
            dropped,
            registry,
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log retains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Folds the log into the outcome-attached rollup.
    pub fn summary(&self) -> ObsSummary {
        let counters = EventKind::ALL
            .iter()
            .filter(|k| self.registry.count(**k) > 0)
            .map(|k| ObsCounter {
                name: k.name().to_string(),
                count: self.registry.count(*k),
                weighted: self.registry.weighted(*k),
            })
            .collect();
        ObsSummary {
            level: self.level,
            events_recorded: self.registry.total(),
            events_weighted: self.registry.total_weighted(),
            events_dropped: self.dropped,
            counters,
        }
    }

    /// Writes the log as JSON Lines: one [`EventRecord`] object per line, in stream
    /// order. This is the format `pliant-trace` reads back.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        for record in &self.records {
            let line = serde_json::to_string(record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Writes the log in Chrome trace-event JSON (the `traceEvents` array format).
    /// Open the file in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`:
    /// each source becomes a track (`tid` 0 is the fleet coordinator, `tid i + 1` is
    /// instance `i`), every event an instant with its payload under `args`, and the
    /// interval summaries additionally drive counter tracks (active nodes, offered
    /// load, violating node-intervals).
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        let to_io = |e: serde::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        writeln!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        for record in &self.records {
            let ts_us = record.time_s * 1e6;
            let args = serde_json::to_value(&record.event).map_err(to_io)?;
            // Events serialize externally tagged: {"Kind": {fields...}} (or a bare
            // string for fieldless kinds); unwrap the tag into name + args.
            let (name, fields) = match &args {
                serde::Value::Object(entries) if entries.len() == 1 => {
                    (entries[0].0.clone(), entries[0].1.clone())
                }
                _ => (record.event.kind().name().to_string(), args.clone()),
            };
            let mut arg_entries = match fields {
                serde::Value::Object(entries) => entries,
                other => vec![("value".to_string(), other)],
            };
            arg_entries.push((
                "weight".to_string(),
                serde::Value::UInt(u64::from(record.weight)),
            ));
            arg_entries.push((
                "interval".to_string(),
                serde::Value::UInt(u64::from(record.interval)),
            ));
            let instant = serde::Value::Object(vec![
                ("name".to_string(), serde::Value::Str(name)),
                ("ph".to_string(), serde::Value::Str("i".to_string())),
                ("s".to_string(), serde::Value::Str("t".to_string())),
                ("ts".to_string(), serde::Value::Float(ts_us)),
                ("pid".to_string(), serde::Value::UInt(0)),
                (
                    "tid".to_string(),
                    serde::Value::UInt(u64::from(record.source)),
                ),
                ("args".to_string(), serde::Value::Object(arg_entries)),
            ]);
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            write!(w, "{}", serde_json::to_string(&instant).map_err(to_io)?)?;
            if let Event::IntervalSummary {
                active_nodes,
                total_load,
                violating,
                ..
            } = record.event
            {
                for (counter, value) in [
                    ("active_nodes", active_nodes as f64),
                    ("total_offered_load", total_load),
                    ("violating_node_intervals", violating as f64),
                ] {
                    let c = serde::Value::Object(vec![
                        ("name".to_string(), serde::Value::Str(counter.to_string())),
                        ("ph".to_string(), serde::Value::Str("C".to_string())),
                        ("ts".to_string(), serde::Value::Float(ts_us)),
                        ("pid".to_string(), serde::Value::UInt(0)),
                        ("tid".to_string(), serde::Value::UInt(0)),
                        (
                            "args".to_string(),
                            serde::Value::Object(vec![(
                                "value".to_string(),
                                serde::Value::Float(value),
                            )]),
                        ),
                    ]);
                    writeln!(w, ",")?;
                    write!(w, "{}", serde_json::to_string(&c).map_err(to_io)?)?;
                }
            }
        }
        writeln!(w, "\n]}}")?;
        Ok(())
    }
}

/// Export formats for a merged [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFormat {
    /// JSON Lines, one [`EventRecord`] per line (`pliant-trace` input).
    Jsonl,
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    ChromeTrace,
}

impl SinkFormat {
    /// Picks a format from a path extension: `.json` means Chrome trace-event JSON,
    /// anything else (conventionally `.jsonl`) means JSON Lines.
    pub fn for_path(path: &str) -> SinkFormat {
        if path.ends_with(".json") {
            SinkFormat::ChromeTrace
        } else {
            SinkFormat::Jsonl
        }
    }

    /// Writes `log` to `w` in this format.
    pub fn write(&self, log: &EventLog, w: &mut dyn Write) -> io::Result<()> {
        match self {
            SinkFormat::Jsonl => log.write_jsonl(w),
            SinkFormat::ChromeTrace => log.write_chrome_trace(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(node: u32) -> Event {
        Event::ControllerDecision {
            node,
            app: 0,
            signal_p99_s: 0.01,
            slack: -0.1,
            action: ObsAction::SetVariant,
        }
    }

    #[test]
    fn off_level_records_nothing() {
        let mut b = ObsBuffer::new(ObsLevel::Off, 1, 1, 128);
        b.emit(0, 0.0, decision(0));
        assert!(b.is_empty());
        assert_eq!(b.dropped, 0);
        assert_eq!(b.registry.total(), 0);
    }

    #[test]
    fn decisions_level_filters_full_only_events() {
        let mut b = ObsBuffer::new(ObsLevel::Decisions, 1, 1, 128);
        b.emit(
            0,
            0.0,
            Event::BalancerDispatch {
                node: 0,
                assigned_load: 0.5,
            },
        );
        b.emit(0, 0.0, decision(0));
        assert_eq!(b.len(), 1);
        assert_eq!(b.registry.count(EventKind::BalancerDispatch), 0);
        assert_eq!(b.registry.count(EventKind::ControllerDecision), 1);
        let mut full = ObsBuffer::new(ObsLevel::Full, 1, 1, 128);
        full.emit(
            0,
            0.0,
            Event::BalancerDispatch {
                node: 0,
                assigned_load: 0.5,
            },
        );
        assert_eq!(full.len(), 1);
    }

    #[test]
    fn ring_retains_the_most_recent_records_and_counts_drops() {
        let mut b = ObsBuffer::new(ObsLevel::Decisions, 1, 1, 4);
        for i in 0..10u32 {
            b.emit(i, i as f64, decision(i));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped, 6);
        // Counters are exempt from retention.
        assert_eq!(b.registry.count(EventKind::ControllerDecision), 10);
        let log = EventLog::merge(ObsLevel::Decisions, [b]);
        let intervals: Vec<u32> = log.records.iter().map(|r| r.interval).collect();
        assert_eq!(intervals, vec![6, 7, 8, 9], "ring keeps the newest records");
        assert_eq!(log.dropped, 6);
    }

    #[test]
    fn merge_interleaves_sources_deterministically() {
        let mut fleet = ObsBuffer::new(ObsLevel::Decisions, 0, 1, 64);
        let mut n0 = ObsBuffer::new(ObsLevel::Decisions, 1, 1, 64);
        let mut n1 = ObsBuffer::new(ObsLevel::Decisions, 2, 3, 64);
        for interval in 0..3u32 {
            n1.emit(interval, interval as f64, decision(1));
            n0.emit(interval, interval as f64, decision(0));
            fleet.emit(
                interval,
                interval as f64,
                Event::IntervalSummary {
                    active_nodes: 2,
                    total_load: 1.0,
                    busy: 4,
                    violating: 0,
                    jobs_placed: 0,
                },
            );
        }
        // Buffer order is source order regardless of emission order above.
        let log = EventLog::merge(ObsLevel::Decisions, [fleet, n0, n1]);
        let sources: Vec<u32> = log.records.iter().map(|r| r.source).collect();
        assert_eq!(sources, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(log.records[2].weight, 3, "representative weight is tagged");
        let summary = log.summary();
        assert_eq!(summary.events_recorded, 9);
        // 3 fleet summaries (weight 1) + 3 weight-1 + 3 weight-3 decisions.
        assert_eq!(summary.events_weighted, 3 + 3 + 9);
        assert_eq!(
            summary
                .counter(EventKind::ControllerDecision)
                .map(|c| c.weighted),
            Some(12)
        );
    }

    #[test]
    fn event_records_round_trip_through_jsonl() {
        let mut b = ObsBuffer::new(ObsLevel::Decisions, 3, 2, 64);
        b.emit(
            5,
            5.0,
            Event::AutoscalerTransition {
                node: 2,
                from: PowerStateKind::Active,
                to: PowerStateKind::Draining,
                trigger: ScaleTrigger::ScaleIn,
            },
        );
        b.emit(
            6,
            6.0,
            Event::JobCompleted {
                node: 2,
                slot: 1,
                weight: 4,
                inaccuracy_pct: 2.5,
            },
        );
        let log = EventLog::merge(ObsLevel::Decisions, [b]);
        let mut jsonl = Vec::new();
        log.write_jsonl(&mut jsonl).expect("in-memory write");
        let parsed: Vec<EventRecord> = String::from_utf8(jsonl)
            .expect("JSON is UTF-8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line parses"))
            .collect();
        assert_eq!(parsed, log.records);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_with_one_entry_per_record() {
        let mut b = ObsBuffer::new(ObsLevel::Decisions, 0, 1, 64);
        b.emit(0, 1.0, decision(0));
        b.emit(
            1,
            2.0,
            Event::IntervalSummary {
                active_nodes: 4,
                total_load: 2.5,
                busy: 4,
                violating: 1,
                jobs_placed: 2,
            },
        );
        let log = EventLog::merge(ObsLevel::Decisions, [b]);
        let mut out = Vec::new();
        log.write_chrome_trace(&mut out).expect("in-memory write");
        let text = String::from_utf8(out).expect("UTF-8");
        let value: serde::Value = serde_json::from_str(&text).expect("well-formed JSON");
        let serde::Value::Object(entries) = value else {
            panic!("chrome trace is an object");
        };
        let (_, events) = &entries[0];
        let serde::Value::Array(events) = events else {
            panic!("traceEvents is an array");
        };
        // 2 instants + 3 counter samples from the interval summary.
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn summaries_round_trip_and_default_for_legacy_archives() {
        let summary = ObsSummary {
            level: ObsLevel::Decisions,
            events_recorded: 10,
            events_weighted: 40,
            events_dropped: 2,
            counters: vec![ObsCounter {
                name: "QosViolation".to_string(),
                count: 10,
                weighted: 40,
            }],
        };
        let json = serde_json::to_string(&summary).expect("serializable");
        let back: ObsSummary = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, summary);
        let legacy: ObsSummary = serde_json::from_str("{}").expect("empty object");
        assert_eq!(legacy, ObsSummary::default());
        assert_eq!(legacy.level, ObsLevel::Off);
    }

    #[test]
    fn sink_format_is_picked_from_the_extension() {
        assert_eq!(SinkFormat::for_path("x.json"), SinkFormat::ChromeTrace);
        assert_eq!(SinkFormat::for_path("x.jsonl"), SinkFormat::Jsonl);
        assert_eq!(SinkFormat::for_path("trace"), SinkFormat::Jsonl);
    }
}
