//! Instance-version accounting for shuffle channels.
//!
//! Fine-grained recovery (§IV-B) re-launches failed task instances while
//! the rest of the job keeps running. A consumer must never read shuffle
//! data written by a *superseded* instance of a producer: when the Admin
//! re-runs a producer, its old buffered output (and any Cache Worker
//! segment it wrote) is invalid the moment the new instance exists.
//!
//! [`VersionLedger`] tracks, per task, the latest launched instance epoch
//! and the epoch that wrote the currently visible output. The chaos
//! harness drives it from simulation observer events and turns any stale
//! delivery into an invariant violation; a real data path would perform
//! the same check on its channel metadata.

use std::collections::BTreeMap;
use swift_dag::TaskId;

/// Identifies one task instance stream: a workload job index plus the
/// task's id within its DAG.
pub type LedgerKey = (usize, TaskId);

/// A violation detected by the ledger: data from a superseded instance
/// reached (or would reach) a consumer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleDelivery {
    /// The producing task.
    pub producer: LedgerKey,
    /// Epoch that wrote the delivered data.
    pub delivered_epoch: u32,
    /// Latest instance epoch of the producer at delivery time.
    pub latest_epoch: u32,
}

impl std::fmt::Display for StaleDelivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale shuffle delivery from job {} task {}: data epoch {} superseded by epoch {}",
            self.producer.0, self.producer.1, self.delivered_epoch, self.latest_epoch
        )
    }
}

/// Tracks instance epochs per task and validates shuffle deliveries.
#[derive(Clone, Debug, Default)]
pub struct VersionLedger {
    /// Latest launched instance epoch per task.
    latest: BTreeMap<LedgerKey, u32>,
    /// Epoch whose output is currently staged/visible, set on completion.
    output: BTreeMap<LedgerKey, u32>,
}

impl VersionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that instance `epoch` of `task` has been launched. Epochs
    /// must be non-decreasing; a re-launch with a higher epoch supersedes
    /// all prior output of the task.
    pub fn begin_instance(&mut self, key: LedgerKey, epoch: u32) {
        let e = self.latest.entry(key).or_insert(epoch);
        *e = (*e).max(epoch);
    }

    /// Records that instance `epoch` of `task` finished and its output is
    /// now the visible one. Output from an epoch older than the latest
    /// launched instance is ignored (it is already superseded).
    pub fn record_output(&mut self, key: LedgerKey, epoch: u32) {
        self.begin_instance(key, epoch);
        if epoch >= self.latest_epoch(key) {
            self.output.insert(key, epoch);
        }
    }

    /// Latest launched instance epoch of `task` (0 if never seen).
    pub fn latest_epoch(&self, key: LedgerKey) -> u32 {
        *self.latest.get(&key).unwrap_or(&0)
    }

    /// Whether the ledger has ever seen an instance of `task`. Needed to
    /// tell "never launched" apart from "launched at epoch 0".
    pub fn seen(&self, key: LedgerKey) -> bool {
        self.latest.contains_key(&key)
    }

    /// Epoch whose output is currently visible, if the task ever finished.
    pub fn output_epoch(&self, key: LedgerKey) -> Option<u32> {
        self.output.get(&key).copied()
    }

    /// Validates a delivery of `producer`'s output written by
    /// `delivered_epoch`. Returns a violation if a newer instance of the
    /// producer has been launched since that output was written.
    pub fn check_delivery(
        &self,
        producer: LedgerKey,
        delivered_epoch: u32,
    ) -> Result<(), StaleDelivery> {
        let latest = self.latest_epoch(producer);
        if delivered_epoch < latest {
            Err(StaleDelivery {
                producer,
                delivered_epoch,
                latest_epoch: latest,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dag::{StageId, TaskId};

    fn key(job: usize, stage: u32, idx: u32) -> LedgerKey {
        (job, TaskId::new(StageId(stage), idx))
    }

    #[test]
    fn fresh_output_is_deliverable() {
        let mut l = VersionLedger::new();
        l.begin_instance(key(0, 0, 0), 0);
        l.record_output(key(0, 0, 0), 0);
        assert!(l.check_delivery(key(0, 0, 0), 0).is_ok());
        assert_eq!(l.output_epoch(key(0, 0, 0)), Some(0));
    }

    #[test]
    fn relaunch_supersedes_old_output() {
        let mut l = VersionLedger::new();
        l.record_output(key(0, 1, 2), 0);
        l.begin_instance(key(0, 1, 2), 1);
        let err = l.check_delivery(key(0, 1, 2), 0).unwrap_err();
        assert_eq!(err.delivered_epoch, 0);
        assert_eq!(err.latest_epoch, 1);
        // The new instance's output is fine again.
        l.record_output(key(0, 1, 2), 1);
        assert!(l.check_delivery(key(0, 1, 2), 1).is_ok());
    }

    #[test]
    fn late_output_from_superseded_instance_is_ignored() {
        let mut l = VersionLedger::new();
        l.begin_instance(key(0, 0, 0), 3);
        l.record_output(key(0, 0, 0), 1);
        assert_eq!(l.output_epoch(key(0, 0, 0)), None, "epoch 1 < latest 3");
        assert_eq!(l.latest_epoch(key(0, 0, 0)), 3);
    }

    #[test]
    fn jobs_are_independent() {
        let mut l = VersionLedger::new();
        l.record_output(key(0, 0, 0), 0);
        l.record_output(key(1, 0, 0), 5);
        l.begin_instance(key(1, 0, 0), 6);
        assert!(l.check_delivery(key(0, 0, 0), 0).is_ok());
        assert!(l.check_delivery(key(1, 0, 0), 5).is_err());
    }

    #[test]
    fn rendered_state_is_independent_of_insertion_order() {
        // Regression for the HashMap-era ledger: anything derived from
        // iterating the ledger (Debug dumps, chaos reports) must be
        // byte-identical no matter the order events arrived in.
        let keys = [key(2, 1, 3), key(0, 4, 0), key(1, 0, 7), key(0, 0, 0)];
        let mut forward = VersionLedger::new();
        for (i, &k) in keys.iter().enumerate() {
            forward.begin_instance(k, i as u32);
            forward.record_output(k, i as u32);
        }
        let mut backward = VersionLedger::new();
        for (i, &k) in keys.iter().enumerate().rev() {
            backward.begin_instance(k, i as u32);
            backward.record_output(k, i as u32);
        }
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
    }
}
