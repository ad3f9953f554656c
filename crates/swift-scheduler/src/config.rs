//! Scheduling policy configurations: Swift and the three baselines the
//! paper compares against (JetScope, Bubble Execution, Spark), and the
//! simulation-wide [`SimConfig`] that carries one of them.
//!
//! Each policy is expressed as a combination of four orthogonal choices —
//! how the job DAG is partitioned into schedule units, when a unit is
//! submitted, how tasks launch, and how shuffle data moves — so the
//! experiments can also ablate each choice independently. A policy has one
//! scheme selection for every edge; only the staging medium differs
//! between edges within a unit and edges between units.

use swift_shuffle::{AdaptiveThresholds, ShuffleMedium, ShuffleScheme};
use swift_sim::SimDuration;

/// How a job DAG is cut into schedule units (each unit is gang scheduled).
#[derive(Clone, Debug, PartialEq)]
pub enum Partitioning {
    /// Swift: shuffle-mode-aware graphlets (Algorithms 1 & 2).
    Graphlets,
    /// JetScope / Impala: the whole job is one unit.
    WholeJob,
    /// Spark: every stage is its own unit.
    PerStage,
    /// Bubble Execution: greedy accumulation of stages (in topological
    /// order, merging across pipeline *and* barrier edges) until a unit
    /// reaches `max_tasks` task instances — an approximation of Bubble's
    /// resource-aware, data-size-driven cuts.
    Bubbles {
        /// Maximum task instances per bubble.
        max_tasks: u64,
    },
}

/// When a schedule unit is handed to the Resource Scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submission {
    /// Conservative (§III-A2): submit once every cross-unit producer stage
    /// has completed, so no allocated executor waits for missing input.
    AllInputsReady,
    /// Eager: submit as soon as *any* member stage could run (source
    /// stages make a unit immediately submittable). Whole-job gang
    /// scheduling behaves this way — and pays for it in IdleRatio.
    FirstStageReady,
}

/// When a task's executor returns to the resource pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseMode {
    /// As soon as the task finishes (Spark: map output is on disk, the
    /// slot is free).
    PerTask,
    /// When the whole job completes (JetScope: the query occupies its
    /// slots MPP-style for its entire duration).
    JobEnd,
}

/// Task launch cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchModel {
    /// Swift/JetScope/Bubble: executors are pre-launched; launching a task
    /// costs one plan delivery.
    PlanDelivery,
    /// Spark: each stage wave pays package download + executor launch
    /// (`CostModel::SPARK_STAGE_LAUNCH`).
    ColdStart,
}

/// How shuffle schemes are chosen per edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShuffleSelection {
    /// Swift's adaptive selection by shuffle edge size, under the paper's
    /// thresholds (§III-B: [`AdaptiveThresholds::default`]).
    Adaptive,
    /// Always use one scheme (used for the Fig. 12 comparison runs).
    Fixed(ShuffleScheme),
}

impl ShuffleSelection {
    /// Picks the scheme for an edge of `edge_size` task pairs.
    pub fn select(&self, edge_size: u64) -> ShuffleScheme {
        match self {
            ShuffleSelection::Adaptive => AdaptiveThresholds::default().select(edge_size),
            ShuffleSelection::Fixed(s) => *s,
        }
    }
}

/// A complete scheduling policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyConfig {
    /// Display name used in reports ("swift", "jetscope", ...).
    pub name: String,
    /// DAG partitioning into schedule units.
    pub partitioning: Partitioning,
    /// Unit submission rule.
    pub submission: Submission,
    /// Task launch cost model.
    pub launch: LaunchModel,
    /// Scheme selection for every edge, within a unit or between units.
    pub shuffle: ShuffleSelection,
    /// Staging medium for edges within a unit.
    pub intra_unit_medium: ShuffleMedium,
    /// Staging medium for edges between units (Bubble/Spark stage
    /// intermediate data on disk).
    pub cross_unit_medium: ShuffleMedium,
    /// Extra one-off overhead charged when a job is partitioned
    /// (Bubble Execution's "high partitioning overhead").
    pub partition_overhead: SimDuration,
    /// When executors return to the pool.
    pub release: ReleaseMode,
}

impl PolicyConfig {
    /// Swift as deployed: graphlet partitioning, conservative submission,
    /// pre-launched executors, adaptive memory-based in-network shuffling.
    pub fn swift() -> Self {
        PolicyConfig {
            name: "swift".into(),
            partitioning: Partitioning::Graphlets,
            submission: Submission::AllInputsReady,
            launch: LaunchModel::PlanDelivery,
            shuffle: ShuffleSelection::Adaptive,
            intra_unit_medium: ShuffleMedium::Memory,
            cross_unit_medium: ShuffleMedium::Memory,
            partition_overhead: SimDuration::ZERO,
            // The Cache Worker decouples producers from consumers: a
            // finished task's executor frees immediately, its output lives
            // in the CW (§III-B). This is a big part of Swift's utilization
            // win over streaming gang engines.
            release: ReleaseMode::PerTask,
        }
    }

    /// Swift with a fixed shuffle scheme everywhere (Fig. 12 runs).
    pub fn swift_fixed_shuffle(scheme: ShuffleScheme) -> Self {
        let mut p = Self::swift();
        p.name = format!("swift-{scheme}");
        p.shuffle = ShuffleSelection::Fixed(scheme);
        p
    }

    /// JetScope model: whole-job gang scheduling with in-memory direct
    /// streaming between long-running executors.
    pub fn jetscope() -> Self {
        PolicyConfig {
            name: "jetscope".into(),
            partitioning: Partitioning::WholeJob,
            submission: Submission::FirstStageReady,
            launch: LaunchModel::PlanDelivery,
            shuffle: ShuffleSelection::Fixed(ShuffleScheme::Direct),
            intra_unit_medium: ShuffleMedium::Memory,
            cross_unit_medium: ShuffleMedium::Memory,
            partition_overhead: SimDuration::ZERO,
            release: ReleaseMode::JobEnd,
        }
    }

    /// Bubble Execution model: data-size-bounded sub-graphs, executors
    /// assigned per bubble (and idle until input data arrive —
    /// `FirstStageReady`), disk-staged shuffle between bubbles, noticeable
    /// partitioning overhead.
    pub fn bubble(max_tasks: u64, partition_overhead: SimDuration) -> Self {
        PolicyConfig {
            name: "bubble".into(),
            partitioning: Partitioning::Bubbles { max_tasks },
            submission: Submission::FirstStageReady,
            launch: LaunchModel::PlanDelivery,
            shuffle: ShuffleSelection::Fixed(ShuffleScheme::Direct),
            intra_unit_medium: ShuffleMedium::Memory,
            cross_unit_medium: ShuffleMedium::Disk,
            partition_overhead,
            // Disk-staged shuffle persists outputs, so tasks release
            // per-task; Bubble's costs are the idle wait for input data,
            // the disk staging, and the partitioning overhead.
            release: ReleaseMode::PerTask,
        }
    }

    /// Spark model: stage-at-a-time scheduling, cold task launch (package
    /// download + executor start), disk-based shuffle between stages.
    pub fn spark() -> Self {
        PolicyConfig {
            name: "spark".into(),
            partitioning: Partitioning::PerStage,
            submission: Submission::AllInputsReady,
            launch: LaunchModel::ColdStart,
            shuffle: ShuffleSelection::Fixed(ShuffleScheme::Direct),
            intra_unit_medium: ShuffleMedium::Disk,
            cross_unit_medium: ShuffleMedium::Disk,
            partition_overhead: SimDuration::ZERO,
            release: ReleaseMode::PerTask,
        }
    }
}

/// Which recovery policy handles failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Swift's fine-grained graphlet-based recovery (§IV-B).
    FineGrained,
    /// Restart the whole job (the baseline in Figs. 14 & 15).
    JobRestart,
}

/// Simulation-wide configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scheduling policy.
    pub policy: PolicyConfig,
    /// Recovery policy.
    pub recovery: RecoveryPolicy,
    /// If set, sample `(time, running executors)` at every multiple of this
    /// interval up to the last event batch. Each sample carries the state
    /// just before its boundary; sampling queues no event.
    pub sample_every: Option<SimDuration>,
    /// Ignored: the event queue has no window. It stays only because the
    /// benchmark passes it to `ShardedEventQueue::new`.
    pub shard_window: SimDuration,
}

impl SimConfig {
    /// Swift policy with fine-grained recovery and no sampling.
    pub fn swift() -> Self {
        SimConfig {
            policy: PolicyConfig::swift(),
            recovery: RecoveryPolicy::FineGrained,
            sample_every: None,
            shard_window: SimDuration::from_millis(256),
        }
    }

    /// Same, for an arbitrary policy.
    pub fn with_policy(policy: PolicyConfig) -> Self {
        SimConfig {
            policy,
            ..Self::swift()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let s = PolicyConfig::swift();
        assert_eq!(s.partitioning, Partitioning::Graphlets);
        assert_eq!(s.submission, Submission::AllInputsReady);
        assert_eq!(s.cross_unit_medium, ShuffleMedium::Memory);

        let j = PolicyConfig::jetscope();
        assert_eq!(j.partitioning, Partitioning::WholeJob);
        assert_eq!(j.submission, Submission::FirstStageReady);

        let b = PolicyConfig::bubble(500, SimDuration::from_millis(500));
        assert_eq!(b.partitioning, Partitioning::Bubbles { max_tasks: 500 });
        assert_eq!(b.cross_unit_medium, ShuffleMedium::Disk);

        let sp = PolicyConfig::spark();
        assert_eq!(sp.partitioning, Partitioning::PerStage);
        assert_eq!(sp.launch, LaunchModel::ColdStart);
        assert_eq!(sp.intra_unit_medium, ShuffleMedium::Disk);
    }

    #[test]
    fn fixed_selection_ignores_size() {
        let sel = ShuffleSelection::Fixed(ShuffleScheme::Local);
        assert_eq!(sel.select(1), ShuffleScheme::Local);
        assert_eq!(sel.select(1_000_000), ShuffleScheme::Local);
        assert_eq!(PolicyConfig::swift().shuffle, ShuffleSelection::Adaptive);
    }

    #[test]
    fn adaptive_selection_uses_production_thresholds() {
        let ad = ShuffleSelection::Adaptive;
        assert_eq!(ad.select(0), ShuffleScheme::Direct);
        assert_eq!(ad.select(9_999), ShuffleScheme::Direct);
        assert_eq!(ad.select(10_000), ShuffleScheme::Remote);
        assert_eq!(ad.select(90_000), ShuffleScheme::Remote);
        assert_eq!(ad.select(90_001), ShuffleScheme::Local);
        assert_eq!(ad.select(u64::MAX), ShuffleScheme::Local);
    }

    #[test]
    fn fixed_shuffle_variant_renames() {
        let p = PolicyConfig::swift_fixed_shuffle(ShuffleScheme::Remote);
        assert_eq!(p.name, "swift-remote");
        assert_eq!(p.shuffle, ShuffleSelection::Fixed(ShuffleScheme::Remote));
    }
}
