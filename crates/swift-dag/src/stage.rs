//! Stages: the vertices of a Swift job DAG.

use crate::ids::StageId;
use crate::operator::Operator;

/// Resource/size hints for a stage, consumed by the scheduler's placement
/// logic and by the cluster cost model when the stage runs in simulation.
///
/// A `StageProfile` describes the *per-task* shape of the work. The numbers
/// mirror what Fig. 13 of the paper publishes for TPC-H Q13 (input records
/// and input size per task) plus the compute cost the simulator needs.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StageProfile {
    /// Rows read by one task (from storage or from the incoming shuffle).
    pub input_rows_per_task: u64,
    /// Bytes read by one task.
    pub input_bytes_per_task: u64,
    /// Bytes one task writes to its outgoing shuffle (0 for sinks).
    pub output_bytes_per_task: u64,
    /// Pure record-processing time for one task, in microseconds, excluding
    /// launch and shuffle phases (those are charged by the cost model).
    pub process_us_per_task: u64,
    /// Preferred machines for data locality (indices into the cluster's
    /// machine list). Empty means no locality preference: the paper's
    /// placement rule then picks the most free machine.
    pub locality: Vec<u32>,
}

/// One stage of a job: a chain of operators executed by `task_count`
/// parallel tasks.
///
/// Stages are created through [`crate::DagBuilder`]; their `id` doubles as
/// the index into [`crate::JobDag::stages`].
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Dense id of this stage within its job.
    pub id: StageId,
    /// Human-readable name, e.g. `"M1"` or `"J4"` in the paper's Fig. 4.
    pub name: String,
    /// Operator chain executed by each task, in order.
    pub operators: Vec<Operator>,
    /// Degree of parallelism: number of task instances.
    pub task_count: u32,
    /// Whether tasks of this stage are idempotent (§IV-B1): re-running an
    /// idempotent task reproduces the identical output data *and order*, so
    /// downstream consumers that already received its data need not re-run.
    pub idempotent: bool,
    /// Size/cost hints for scheduling and simulation.
    pub profile: StageProfile,
}

impl Stage {
    /// Returns `true` if any operator in this stage *sorts its output*
    /// (`MergeSort` / `SortBy`), which makes every outgoing edge of the
    /// stage a barrier edge (Fig. 4 rule; see [`crate::classify_edge`]).
    pub fn sorts_output(&self) -> bool {
        self.operators.iter().any(Operator::sorts_output)
    }

    /// Returns `true` if any operator requires globally sorted input
    /// (`MergeJoin`, `StreamedAggregate`, `Window`, `MergeSort`).
    pub fn requires_sorted_input(&self) -> bool {
        self.operators.iter().any(Operator::requires_sorted_input)
    }

    /// Returns `true` if the stage ends in a terminal sink.
    pub fn is_sink_stage(&self) -> bool {
        self.operators.iter().any(Operator::is_sink)
    }

    /// Returns `true` if the stage reads base tables.
    pub fn is_source_stage(&self) -> bool {
        self.operators.iter().any(Operator::is_source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(ops: Vec<Operator>) -> Stage {
        Stage {
            id: StageId(0),
            name: "test".into(),
            operators: ops,
            task_count: 4,
            idempotent: true,
            profile: StageProfile::default(),
        }
    }

    #[test]
    fn sink_and_source_stage_detection() {
        let sink = stage(vec![Operator::ShuffleRead, Operator::AdhocSink]);
        assert!(sink.is_sink_stage());
        assert!(!sink.is_source_stage());
        let src = stage(vec![
            Operator::TableScan { table: "t".into() },
            Operator::ShuffleWrite,
        ]);
        assert!(src.is_source_stage());
        assert!(!src.is_sink_stage());
    }
}
