//! Scenario descriptions: one full parameter combination of the
//! experimental setup (§5).

use serde::{Deserialize, Serialize};

use platform::{Pinning, Platform, PlatformError, ProcessorId, Topology};
use sched::{BusModel, PlacementPolicy};
use slicing::{BaselineStrategy, CommEstimate, MetricKind};
use taskgraph::gen::{Shape, WorkloadSpec};
use taskgraph::{TaskGraph, Time};

/// Error produced by [`Scenario::validate`]: the scenario definition is
/// degenerate and would never produce a usable sweep.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The scenario asks for zero replications per point.
    NoReplications,
    /// The system-size sweep is empty.
    NoSystemSizes,
    /// The system-size sweep contains a zero-processor platform.
    ZeroSystemSize,
    /// The workload specification is inconsistent (empty or zero-width
    /// ranges, non-positive MET, out-of-range variation, …); the message
    /// names the violated constraint.
    Workload(String),
    /// A platform of the sweep cannot be built (a negative per-item
    /// communication cost).
    Platform(PlatformError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoReplications => {
                write!(f, "scenario needs at least one replication")
            }
            ScenarioError::NoSystemSizes => {
                write!(f, "scenario needs at least one system size")
            }
            ScenarioError::ZeroSystemSize => {
                write!(f, "system-size sweep contains a zero-processor system")
            }
            ScenarioError::Workload(msg) => write!(f, "invalid workload spec: {msg}"),
            ScenarioError::Platform(e) => write!(f, "invalid platform: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The deadline-distribution technique a scenario evaluates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Technique {
    /// A slicing technique (BST/AST): a metric plus a communication-cost
    /// estimation strategy.
    Slicing {
        /// The path metric.
        metric: MetricKind,
        /// The communication-cost estimation strategy.
        estimate: CommEstimate,
    },
    /// A pre-slicing baseline from the literature (UD/ED).
    Baseline(BaselineStrategy),
}

impl Technique {
    /// A short label used in reports.
    pub fn label(&self) -> String {
        match self {
            Technique::Slicing { metric, estimate } => {
                format!("{}/{}", metric.label(), estimate.label())
            }
            Technique::Baseline(b) => b.label().to_owned(),
        }
    }
}

/// Where workloads come from: the §5.2 random generator or one of the
/// regular structures of §8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// Random task graphs per [`WorkloadSpec`].
    Random(WorkloadSpec),
    /// Structured task graphs of the given shape; temporal parameters come
    /// from the spec.
    Shaped {
        /// The structural family.
        shape: Shape,
        /// Temporal parameters (execution times, OLR, CCR).
        spec: WorkloadSpec,
    },
}

impl WorkloadSource {
    /// The underlying temporal specification.
    pub fn spec(&self) -> &WorkloadSpec {
        match self {
            WorkloadSource::Random(spec) => spec,
            WorkloadSource::Shaped { spec, .. } => spec,
        }
    }
}

/// Families of interconnect topologies, instantiated per system size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Time-multiplexed shared bus (the paper's platform).
    SharedBus,
    /// Dedicated links between all processor pairs.
    FullyConnected,
    /// Bidirectional ring.
    Ring,
    /// 2-D mesh, factored as close to square as possible.
    Mesh2D,
}

impl TopologyKind {
    /// Builds the topology for a system of `n` processors with the given
    /// per-item (per hop, where applicable) cost.
    pub fn build(self, n: usize, cost_per_item: Time) -> Topology {
        match self {
            TopologyKind::SharedBus => Topology::SharedBus { cost_per_item },
            TopologyKind::FullyConnected => Topology::FullyConnected { cost_per_item },
            TopologyKind::Ring => Topology::Ring {
                cost_per_item_hop: cost_per_item,
            },
            TopologyKind::Mesh2D => {
                let (w, h) = near_square_factors(n);
                Topology::Mesh2D {
                    width: w,
                    height: h,
                    cost_per_item_hop: cost_per_item,
                }
            }
        }
    }

    /// A short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::SharedBus => "bus",
            TopologyKind::FullyConnected => "full",
            TopologyKind::Ring => "ring",
            TopologyKind::Mesh2D => "mesh",
        }
    }
}

/// The largest factor pair `(w, h)` of `n` with `w ≥ h` and `h` maximal —
/// i.e. the most square 2-D mesh hosting exactly `n` processors.
fn near_square_factors(n: usize) -> (usize, usize) {
    let mut best = (n, 1);
    let mut h = 1;
    while h * h <= n {
        if n.is_multiple_of(h) {
            best = (n / h, h);
        }
        h += 1;
    }
    best
}

/// How strict locality constraints are generated for a workload.
///
/// The paper's setting is *relaxed*: most subtasks are free, with at most a
/// small subset (e.g. sensor/actuator tasks) pre-assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinningPolicy {
    /// No subtask is pinned (the headline experiments).
    Relaxed,
    /// Input and output subtasks are pinned round-robin across processors,
    /// modelling sensor/actuator locality.
    AnchoredIo,
}

impl PinningPolicy {
    /// Materializes the pinning for a concrete graph and platform.
    ///
    /// # Errors
    ///
    /// Returns an error if a pin refers to an invalid processor (cannot
    /// happen for round-robin pins on a valid platform).
    pub fn build(self, graph: &TaskGraph, platform: &Platform) -> Result<Pinning, PlatformError> {
        let mut pins = Pinning::new();
        match self {
            PinningPolicy::Relaxed => {}
            PinningPolicy::AnchoredIo => {
                let n = platform.processor_count() as u32;
                for (i, &id) in graph
                    .inputs()
                    .iter()
                    .chain(graph.outputs().iter())
                    .enumerate()
                {
                    // A subtask that is both input and output keeps its
                    // first pin.
                    if !pins.is_pinned(id) {
                        pins.pin(id, ProcessorId::new(i as u32 % n))?;
                    }
                }
            }
        }
        Ok(pins)
    }

    /// A short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PinningPolicy::Relaxed => "relaxed",
            PinningPolicy::AnchoredIo => "anchored-io",
        }
    }
}

/// Scheduler configuration for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerSpec {
    /// Honour assigned release times (the paper's time-driven model).
    pub respect_release: bool,
    /// Communication bandwidth model.
    pub bus_model: BusModel,
    /// Processor-placement policy.
    pub placement: PlacementPolicy,
}

impl Default for SchedulerSpec {
    /// The paper's scheduler: time-driven, insertion-based placement,
    /// fixed-delay communication.
    fn default() -> Self {
        SchedulerSpec {
            respect_release: true,
            bus_model: BusModel::Delay,
            placement: PlacementPolicy::Insertion,
        }
    }
}

/// One full parameter combination: workload × technique × platform sweep.
///
/// Running a scenario (see [`Runner`]) evaluates every system size with
/// `replications` random workloads. Workload seeds are derived per
/// replication from `(base_seed, workload stream, replication index)` via
/// [`stream_seed`], so two scenarios with the same workload source see
/// *identical* graphs — the paired-comparison setup the paper uses to
/// compare metrics fairly — and any replication is independently
/// computable on any worker.
///
/// [`Runner`]: crate::Runner
/// [`stream_seed`]: taskgraph::gen::stream_seed
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display label for reports (e.g. `"PURE/CCNE"`).
    pub label: String,
    /// Workload source.
    pub workload: WorkloadSource,
    /// Deadline-distribution technique under evaluation.
    pub technique: Technique,
    /// System sizes (processor counts) to sweep.
    pub system_sizes: Vec<usize>,
    /// Interconnect family.
    pub topology: TopologyKind,
    /// Per-item (and per-hop) communication cost.
    pub cost_per_item: Time,
    /// Locality-constraint policy.
    pub pinning: PinningPolicy,
    /// Scheduler configuration.
    pub scheduler: SchedulerSpec,
    /// Number of random workloads per system size.
    pub replications: usize,
    /// Root seed of the experiment's per-replication seed streams.
    pub base_seed: u64,
    /// Clamp assignment windows so every subtask's deadline precedes all of
    /// its successors' releases (see [`Slicer::with_strict_windows`]).
    ///
    /// Off by default: the paper's NORM/THRES/ADAPT weighting can assign a
    /// predecessor a deadline later than a successor's release on skewed
    /// paths (a latent window violation the audit reports), and the
    /// published figures were produced without the clamp. Enabling it
    /// changes deadlines (and therefore figures) for the affected cells.
    ///
    /// [`Slicer::with_strict_windows`]: slicing::Slicer::with_strict_windows
    pub strict_windows: bool,
}

impl Scenario {
    /// The paper's scenario skeleton: shared bus at one unit per item,
    /// relaxed locality, time-driven scheduler, 128 replications, system
    /// sizes 2–16.
    pub fn paper(
        label: impl Into<String>,
        workload: WorkloadSpec,
        metric: MetricKind,
        estimate: CommEstimate,
    ) -> Self {
        Scenario::with_technique(label, workload, Technique::Slicing { metric, estimate })
    }

    /// A paper-skeleton scenario evaluating a pre-slicing baseline (UD/ED).
    pub fn baseline(
        label: impl Into<String>,
        workload: WorkloadSpec,
        strategy: BaselineStrategy,
    ) -> Self {
        Scenario::with_technique(label, workload, Technique::Baseline(strategy))
    }

    /// A paper-skeleton scenario with an arbitrary technique.
    pub fn with_technique(
        label: impl Into<String>,
        workload: WorkloadSpec,
        technique: Technique,
    ) -> Self {
        Scenario {
            label: label.into(),
            workload: WorkloadSource::Random(workload),
            technique,
            system_sizes: (2..=16).step_by(2).collect(),
            topology: TopologyKind::SharedBus,
            cost_per_item: Time::new(1),
            pinning: PinningPolicy::Relaxed,
            scheduler: SchedulerSpec::default(),
            replications: 128,
            base_seed: 0xFEA57,
            strict_windows: false,
        }
    }

    /// Validates that the scenario can be swept at all.
    ///
    /// The [`Runner`] calls this before doing any work, so a degenerate
    /// scenario fails fast with a typed error instead of panicking (or
    /// dividing by zero) somewhere in the middle of a sweep.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ScenarioError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use feast::{Scenario, ScenarioError};
    /// use slicing::{CommEstimate, MetricKind};
    /// use taskgraph::gen::{ExecVariation, WorkloadSpec};
    ///
    /// let scenario = Scenario::paper(
    ///     "x",
    ///     WorkloadSpec::paper(ExecVariation::Mdet),
    ///     MetricKind::pure(),
    ///     CommEstimate::Ccne,
    /// );
    /// assert!(scenario.validate().is_ok());
    /// let broken = scenario.with_replications(0);
    /// assert_eq!(broken.validate(), Err(ScenarioError::NoReplications));
    /// ```
    ///
    /// [`Runner`]: crate::Runner
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.replications == 0 {
            return Err(ScenarioError::NoReplications);
        }
        if self.system_sizes.is_empty() {
            return Err(ScenarioError::NoSystemSizes);
        }
        if self.system_sizes.contains(&0) {
            return Err(ScenarioError::ZeroSystemSize);
        }
        for &n in &self.system_sizes {
            Platform::homogeneous(n, self.topology.build(n, self.cost_per_item))
                .map_err(ScenarioError::Platform)?;
        }
        self.workload
            .spec()
            .validate()
            .map_err(ScenarioError::Workload)
    }

    /// Replaces the replication count.
    #[must_use]
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Replaces the system-size sweep.
    #[must_use]
    pub fn with_system_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.system_sizes = sizes;
        self
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Replaces the topology family.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the workload source.
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSource) -> Self {
        self.workload = workload;
        self
    }

    /// Replaces the pinning policy.
    #[must_use]
    pub fn with_pinning(mut self, pinning: PinningPolicy) -> Self {
        self.pinning = pinning;
        self
    }

    /// Replaces the scheduler configuration.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables (or disables) the strict assignment-window clamp; see
    /// [`Scenario::strict_windows`].
    #[must_use]
    pub fn with_strict_windows(mut self, strict: bool) -> Self {
        self.strict_windows = strict;
        self
    }
}

#[cfg(test)]
mod tests {
    use taskgraph::gen::ExecVariation;

    use super::*;

    #[test]
    fn near_square_factorizations() {
        assert_eq!(near_square_factors(1), (1, 1));
        assert_eq!(near_square_factors(6), (3, 2));
        assert_eq!(near_square_factors(12), (4, 3));
        assert_eq!(near_square_factors(16), (4, 4));
        assert_eq!(near_square_factors(7), (7, 1)); // prime: a line
    }

    #[test]
    fn topology_kinds_build_valid_platforms() {
        for kind in [
            TopologyKind::SharedBus,
            TopologyKind::FullyConnected,
            TopologyKind::Ring,
            TopologyKind::Mesh2D,
        ] {
            for n in [2, 6, 7, 16] {
                let topo = kind.build(n, Time::new(1));
                assert!(
                    Platform::homogeneous(n, topo).is_ok(),
                    "{} with {n} processors",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn paper_scenario_defaults() {
        let s = Scenario::paper(
            "PURE/CCNE",
            WorkloadSpec::paper(ExecVariation::Ldet),
            MetricKind::pure(),
            CommEstimate::Ccne,
        );
        assert_eq!(s.replications, 128);
        assert_eq!(s.system_sizes, vec![2, 4, 6, 8, 10, 12, 14, 16]);
        assert_eq!(s.topology, TopologyKind::SharedBus);
        assert_eq!(s.pinning, PinningPolicy::Relaxed);
        assert!(s.scheduler.respect_release);
        assert!(!s.strict_windows, "paper defaults leave windows relaxed");
        assert_eq!(s.label, "PURE/CCNE");
    }

    #[test]
    fn builders() {
        let s = Scenario::paper(
            "x",
            WorkloadSpec::default(),
            MetricKind::adapt(),
            CommEstimate::Ccne,
        )
        .with_replications(8)
        .with_system_sizes(vec![2, 4])
        .with_base_seed(42)
        .with_topology(TopologyKind::Ring)
        .with_pinning(PinningPolicy::AnchoredIo)
        .with_strict_windows(true);
        assert!(s.strict_windows);
        assert_eq!(s.replications, 8);
        assert_eq!(s.system_sizes, vec![2, 4]);
        assert_eq!(s.base_seed, 42);
        assert_eq!(s.topology, TopologyKind::Ring);
        assert_eq!(s.pinning.label(), "anchored-io");
    }

    #[test]
    fn anchored_io_pins_inputs_and_outputs() {
        use taskgraph::Subtask;
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(Subtask::new(Time::new(1)).released_at(Time::ZERO));
        let z = b.add_subtask(Subtask::new(Time::new(1)).due_at(Time::new(10)));
        b.add_edge(a, z, 1).unwrap();
        let g = b.build().unwrap();
        let p = Platform::paper(2).unwrap();
        let pins = PinningPolicy::AnchoredIo.build(&g, &p).unwrap();
        assert_eq!(pins.len(), 2);
        assert!(pins.is_pinned(a) && pins.is_pinned(z));
        let relaxed = PinningPolicy::Relaxed.build(&g, &p).unwrap();
        assert!(relaxed.is_empty());
    }

    #[test]
    fn technique_labels() {
        let slicing = Technique::Slicing {
            metric: MetricKind::pure(),
            estimate: CommEstimate::Ccaa,
        };
        assert_eq!(slicing.label(), "PURE/CCAA");
        assert_eq!(
            Technique::Baseline(BaselineStrategy::Ultimate).label(),
            "UD"
        );
    }

    #[test]
    fn scenario_serde_round_trip() {
        let scenario = Scenario::paper(
            "PURE/CCNE",
            WorkloadSpec::default(),
            MetricKind::thres(2.0),
            CommEstimate::Ccaa,
        )
        .with_topology(TopologyKind::Mesh2D)
        .with_pinning(PinningPolicy::AnchoredIo);
        let json = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn scheduler_spec_default_is_papers_model() {
        let spec = SchedulerSpec::default();
        assert!(spec.respect_release);
        assert_eq!(spec.bus_model, sched::BusModel::Delay);
        assert_eq!(spec.placement, sched::PlacementPolicy::Insertion);
    }

    #[test]
    fn validate_catches_degenerate_scenarios() {
        let good = Scenario::paper(
            "ok",
            WorkloadSpec::default(),
            MetricKind::pure(),
            CommEstimate::Ccne,
        );
        assert_eq!(good.validate(), Ok(()));

        let s = good.clone().with_replications(0);
        assert_eq!(s.validate(), Err(ScenarioError::NoReplications));

        let s = good.clone().with_system_sizes(vec![]);
        assert_eq!(s.validate(), Err(ScenarioError::NoSystemSizes));

        let s = good.clone().with_system_sizes(vec![4, 0]);
        assert_eq!(s.validate(), Err(ScenarioError::ZeroSystemSize));

        // A negative communication cost is rejected for every topology
        // family; a zero cost is valid.
        for kind in [
            TopologyKind::SharedBus,
            TopologyKind::FullyConnected,
            TopologyKind::Ring,
            TopologyKind::Mesh2D,
        ] {
            let mut s = good.clone().with_topology(kind);
            s.cost_per_item = Time::new(-1);
            assert_eq!(
                s.validate(),
                Err(ScenarioError::Platform(PlatformError::NegativeCost(
                    Time::new(-1)
                ))),
                "{}",
                kind.label()
            );
            s.cost_per_item = Time::ZERO;
            assert_eq!(s.validate(), Ok(()), "{}", kind.label());
        }

        // Zero-width / inconsistent spec ranges surface as typed errors
        // instead of a mid-sweep panic.
        #[allow(clippy::reversed_empty_ranges)]
        let s = good.clone().with_workload(WorkloadSource::Random(
            WorkloadSpec::default().with_depth(4..=2),
        ));
        assert!(matches!(s.validate(), Err(ScenarioError::Workload(_))));
        let s = good.with_workload(WorkloadSource::Random(
            WorkloadSpec::default().with_olr(-1.0),
        ));
        assert!(matches!(s.validate(), Err(ScenarioError::Workload(_))));
    }

    #[test]
    fn scenario_error_display() {
        assert!(ScenarioError::NoReplications
            .to_string()
            .contains("replication"));
        assert!(ScenarioError::NoSystemSizes
            .to_string()
            .contains("system size"));
        assert!(ScenarioError::ZeroSystemSize.to_string().contains("zero"));
        assert!(ScenarioError::Workload("bad".into())
            .to_string()
            .contains("bad"));
        assert!(
            ScenarioError::Platform(PlatformError::NegativeCost(Time::new(-1)))
                .to_string()
                .contains("negative")
        );
    }

    #[test]
    fn workload_source_spec_access() {
        let spec = WorkloadSpec::default();
        let r = WorkloadSource::Random(spec.clone());
        assert_eq!(r.spec(), &spec);
        let s = WorkloadSource::Shaped {
            shape: Shape::Chain { length: 4 },
            spec: spec.clone(),
        };
        assert_eq!(s.spec(), &spec);
    }
}
