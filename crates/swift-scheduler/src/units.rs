//! Schedule units: the gang-scheduled sub-graphs each policy produces.

use crate::config::Partitioning;
use swift_dag::{partition, JobDag, Partition, StageId};

/// One gang-scheduled unit of a job under some policy: a graphlet for
/// Swift, the whole job for JetScope, a single stage for Spark, a bubble
/// for Bubble Execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleUnit {
    /// Dense unit id within the job.
    pub id: u32,
    /// Member stages, sorted.
    pub stages: Vec<StageId>,
}

/// A job's partitioning into schedule units plus lookup tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitPlan {
    /// The units, id-ordered.
    pub units: Vec<ScheduleUnit>,
    /// `stage_to_unit[stage]` = owning unit.
    pub stage_to_unit: Vec<u32>,
}

impl UnitPlan {
    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if there are no units (impossible for a valid DAG).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The unit owning `stage`.
    pub fn unit_of(&self, stage: StageId) -> u32 {
        self.stage_to_unit[stage.index()]
    }

    /// Total task instances of `unit` — its gang size.
    pub fn gang_size(&self, dag: &JobDag, unit: u32) -> u64 {
        self.units[unit as usize]
            .stages
            .iter()
            .map(|&s| dag.stage(s).task_count as u64)
            .sum()
    }

    /// The graphlet plan of an already computed partition: one unit per
    /// graphlet, with its id and stages.
    pub fn from_partition(p: &Partition) -> UnitPlan {
        let units = p
            .graphlets()
            .iter()
            .map(|g| ScheduleUnit {
                id: g.id.raw(),
                stages: g.stages.clone(),
            })
            .collect();
        let stage_to_unit = (0..p.stage_count())
            .map(|s| p.graphlet_of(StageId(s as u32)).raw())
            .collect();
        UnitPlan {
            units,
            stage_to_unit,
        }
    }

    /// Stages in other units that feed `unit`, one per feeding edge (a
    /// stage feeding the unit over two edges comes twice) — the stages
    /// whose completion gates conservative submission. An iterator, so
    /// the check allocates nothing.
    pub fn upstream_stages<'a>(
        &'a self,
        dag: &'a JobDag,
        unit: u32,
    ) -> impl Iterator<Item = StageId> + 'a {
        self.units[unit as usize]
            .stages
            .iter()
            .flat_map(move |&s| dag.incoming(s))
            .filter(move |e| self.unit_of(e.src) != unit)
            .map(|e| e.src)
    }
}

/// Builds the unit plan for `dag` under the given partitioning rule.
pub fn plan_units(dag: &JobDag, partitioning: &Partitioning) -> UnitPlan {
    match partitioning {
        Partitioning::Graphlets => UnitPlan::from_partition(&partition(dag)),
        Partitioning::WholeJob => {
            let stages: Vec<StageId> = dag.stages().iter().map(|s| s.id).collect();
            UnitPlan {
                units: vec![ScheduleUnit { id: 0, stages }],
                stage_to_unit: vec![0; dag.stage_count()],
            }
        }
        Partitioning::PerStage => {
            let units = dag
                .stages()
                .iter()
                .map(|s| ScheduleUnit {
                    id: s.id.raw(),
                    stages: vec![s.id],
                })
                .collect();
            UnitPlan {
                units,
                stage_to_unit: (0..dag.stage_count() as u32).collect(),
            }
        }
        Partitioning::Bubbles { max_tasks } => plan_bubbles(dag, *max_tasks),
    }
}

/// Greedy bubble construction: walk stages in topological order and keep
/// appending to the current bubble until its task count would exceed
/// `max_tasks`; then start a new bubble. Guarantees every bubble respects
/// the cap unless a single stage alone exceeds it (that stage becomes a
/// bubble by itself). This approximates Bubble Execution's resource-aware
/// cuts with a deterministic, cheap rule.
fn plan_bubbles(dag: &JobDag, max_tasks: u64) -> UnitPlan {
    let mut stage_to_unit = vec![u32::MAX; dag.stage_count()];
    let mut units: Vec<ScheduleUnit> = Vec::new();
    let mut current: Vec<StageId> = Vec::new();
    let mut current_tasks = 0u64;
    for &s in dag.topo_order() {
        let t = dag.stage(s).task_count as u64;
        if !current.is_empty() && current_tasks + t > max_tasks {
            let id = units.len() as u32;
            for &m in &current {
                stage_to_unit[m.index()] = id;
            }
            units.push(ScheduleUnit {
                id,
                stages: std::mem::take(&mut current),
            });
            current_tasks = 0;
        }
        current.push(s);
        current_tasks += t;
    }
    if !current.is_empty() {
        let id = units.len() as u32;
        for &m in &current {
            stage_to_unit[m.index()] = id;
        }
        units.push(ScheduleUnit {
            id,
            stages: current,
        });
    }
    for u in &mut units {
        u.stages.sort();
    }
    UnitPlan {
        units,
        stage_to_unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{DagBuilder, Operator};

    fn chain(n: u32, tasks: u32) -> JobDag {
        let mut b = DagBuilder::new(1, "chain");
        let mut prev = None;
        for i in 0..n {
            let s = b
                .stage(format!("S{i}"), tasks)
                .op(Operator::ShuffleRead)
                .op(Operator::MergeSort)
                .op(Operator::ShuffleWrite)
                .build();
            if let Some(p) = prev {
                b.edge(p, s);
            }
            prev = Some(s);
        }
        b.build().unwrap()
    }

    #[test]
    fn whole_job_is_one_unit() {
        let dag = chain(5, 4);
        let plan = plan_units(&dag, &Partitioning::WholeJob);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.gang_size(&dag, 0), 20);
        assert_eq!(plan.upstream_stages(&dag, 0).count(), 0);
    }

    #[test]
    fn per_stage_is_one_unit_per_stage() {
        let dag = chain(5, 4);
        let plan = plan_units(&dag, &Partitioning::PerStage);
        assert_eq!(plan.len(), 5);
        for (i, u) in plan.units.iter().enumerate() {
            assert_eq!(u.stages, vec![StageId(i as u32)]);
        }
        assert!(plan.upstream_stages(&dag, 2).eq([StageId(1)]));
    }

    #[test]
    fn graphlets_match_dag_partition() {
        let dag = chain(5, 4); // every edge is a barrier (MergeSort stages)
        let plan = plan_units(&dag, &Partitioning::Graphlets);
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn bubbles_respect_task_cap() {
        let dag = chain(6, 10);
        let plan = plan_units(&dag, &Partitioning::Bubbles { max_tasks: 25 });
        // 10+10 = 20 fits, +10 would be 30 > 25 -> bubbles of 2 stages.
        assert_eq!(plan.len(), 3);
        for u in 0..plan.len() as u32 {
            assert!(plan.gang_size(&dag, u) <= 25);
        }
    }

    #[test]
    fn oversized_stage_forms_own_bubble() {
        let mut b = DagBuilder::new(1, "big");
        let a = b
            .stage("A", 100)
            .op(Operator::Filter)
            .op(Operator::ShuffleWrite)
            .build();
        let c = b
            .stage("B", 2)
            .op(Operator::ShuffleRead)
            .op(Operator::AdhocSink)
            .build();
        b.edge(a, c);
        let dag = b.build().unwrap();
        let plan = plan_units(&dag, &Partitioning::Bubbles { max_tasks: 10 });
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.gang_size(&dag, 0), 100);
        assert_eq!(plan.gang_size(&dag, 1), 2);
    }

    #[test]
    fn unit_lookup_is_total_and_consistent() {
        let dag = chain(7, 3);
        for p in [
            Partitioning::Graphlets,
            Partitioning::WholeJob,
            Partitioning::PerStage,
            Partitioning::Bubbles { max_tasks: 7 },
        ] {
            let plan = plan_units(&dag, &p);
            let mut seen = vec![false; dag.stage_count()];
            for u in &plan.units {
                for &s in &u.stages {
                    assert!(!seen[s.index()], "{p:?}: stage {s} in two units");
                    seen[s.index()] = true;
                    assert_eq!(plan.unit_of(s), u.id, "{p:?}");
                }
            }
            assert!(seen.iter().all(|&x| x), "{p:?}: all stages covered");
        }
    }
}
