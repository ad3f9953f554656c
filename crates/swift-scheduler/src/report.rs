//! Metrics collected by a simulation run — the raw material for every
//! figure and table of the evaluation.

use swift_dag::StageId;
use swift_sim::{Fnv64, SimDuration, SimTime};

/// The four task phases of Fig. 9b: task launching (L), shuffle reading
/// (SR; table scanning for source stages), record processing (P) and
/// shuffle writing (SW; adhoc sinking for sink stages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Task launch: plan delivery (Swift) or package download + executor
    /// launch (Spark).
    pub launch: SimDuration,
    /// Shuffle read / table scan per task.
    pub shuffle_read: SimDuration,
    /// Record processing per task.
    pub process: SimDuration,
    /// Shuffle write / adhoc sink per task.
    pub shuffle_write: SimDuration,
}

impl PhaseBreakdown {
    /// Sum of all four phases.
    pub fn total(&self) -> SimDuration {
        self.launch + self.shuffle_read + self.process + self.shuffle_write
    }
}

/// Per-stage outcome of a job run.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage id within the job.
    pub stage: StageId,
    /// Stage name (e.g. "J4").
    pub name: String,
    /// Number of task instances.
    pub tasks: u32,
    /// Modeled per-task phase durations.
    pub phases: PhaseBreakdown,
    /// Completion time of the stage's last task.
    pub completed_at: SimTime,
}

/// Per-job outcome.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Index of the job in the submitted workload.
    pub job_index: usize,
    /// Job name.
    pub name: String,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time (equal to `submitted` if the job was aborted before
    /// doing anything).
    pub finished: SimTime,
    /// `finished - submitted`.
    pub elapsed: SimDuration,
    /// Whether the job was aborted (useless failure, §IV-C).
    pub aborted: bool,
    /// Per-stage details.
    pub stages: Vec<StageReport>,
    /// Total task instances.
    pub total_tasks: u64,
    /// Task executions beyond the first run of each task (failure
    /// recovery re-runs).
    pub rerun_tasks: u64,
    /// Executor-seconds spent waiting for input data after the plan
    /// arrived (the IdleRatio numerator).
    pub idle_time: SimDuration,
    /// Executor-seconds between plan arrival and task completion (the
    /// IdleRatio denominator).
    pub occupied_time: SimDuration,
}

impl JobReport {
    /// The job's IdleRatio (§III-A): idle executor time over occupied
    /// executor time, aggregated over its tasks.
    ///
    /// Edge cases: a job that never occupied an executor (aborted before
    /// any task completed, or zero-duration) has ratio `0.0` when it also
    /// accrued no idle time, and `f64::INFINITY` when executors idled but
    /// nothing ever ran to completion — reporting `0.0` there would hide
    /// a pure-waste job.
    pub fn idle_ratio(&self) -> f64 {
        let den = self.occupied_time.as_secs_f64();
        if den == 0.0 {
            if self.idle_time == SimDuration::ZERO {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.idle_time.as_secs_f64() / den
        }
    }
}

/// Outcome of one whole simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Policy name ("swift", "spark", ...).
    pub policy: String,
    /// Per-job reports, in submission (workload) order.
    pub jobs: Vec<JobReport>,
    /// `(time_seconds, running_executors)` samples (Fig. 10).
    pub utilization: Vec<(f64, u32)>,
    /// Time of the last job completion.
    pub makespan: SimTime,
    /// Events processed by the event loop.
    pub events_processed: u64,
}

impl RunReport {
    /// Cluster-wide IdleRatio across completed jobs (Fig. 3). Aborted jobs
    /// are excluded: their partial executor time never produced a result,
    /// so folding it in would let a crashed workload mask (or inflate) the
    /// steady-state ratio the figure is about. An empty or zero-duration
    /// run reports `0.0`.
    pub fn idle_ratio(&self) -> f64 {
        let idle: f64 = self
            .jobs
            .iter()
            .filter(|j| !j.aborted)
            .map(|j| j.idle_time.as_secs_f64())
            .sum();
        let occ: f64 = self
            .jobs
            .iter()
            .filter(|j| !j.aborted)
            .map(|j| j.occupied_time.as_secs_f64())
            .sum();
        if occ == 0.0 {
            0.0
        } else {
            idle / occ
        }
    }

    /// Mean job elapsed time in seconds (completed jobs only).
    pub fn mean_job_seconds(&self) -> f64 {
        let done: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| !j.aborted)
            .map(|j| j.elapsed.as_secs_f64())
            .collect();
        swift_sim::stats::mean(&done)
    }

    /// Elapsed seconds of every completed job, in workload order.
    pub fn job_seconds(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| !j.aborted)
            .map(|j| j.elapsed.as_secs_f64())
            .collect()
    }

    /// Looks up a job report by workload index.
    pub fn job(&self, index: usize) -> &JobReport {
        &self.jobs[index]
    }

    /// A stable 64-bit digest of the whole report: every field of the
    /// report, its jobs, their stages and phases, folded word by word
    /// through [`Fnv64`]. Equal reports have equal digests, so unequal
    /// digests prove unequal reports — the compact form of the chaos
    /// harness's same-seed determinism invariant, and what the pinned
    /// digest tests hold against the past. (The converse is only
    /// overwhelmingly likely: it is a 64-bit hash.)
    pub fn digest(&self) -> u64 {
        // Destructured without `..` here and in every `eat` below: a new
        // field does not compile until it is hashed.
        let RunReport {
            policy,
            jobs,
            utilization,
            makespan,
            events_processed,
        } = self;
        let mut h = Fnv64::new();
        h.eat_str(policy);
        h.eat(jobs.len() as u64);
        for job in jobs {
            job.eat(&mut h);
        }
        h.eat(utilization.len() as u64);
        for &(at_secs, running) in utilization {
            h.eat(at_secs.to_bits());
            h.eat(u64::from(running));
        }
        h.eat(makespan.as_micros());
        h.eat(*events_processed);
        h.finish()
    }
}

impl JobReport {
    fn eat(&self, h: &mut Fnv64) {
        let JobReport {
            job_index,
            name,
            submitted,
            finished,
            elapsed,
            aborted,
            stages,
            total_tasks,
            rerun_tasks,
            idle_time,
            occupied_time,
        } = self;
        h.eat(*job_index as u64);
        h.eat_str(name);
        h.eat(submitted.as_micros());
        h.eat(finished.as_micros());
        h.eat(elapsed.as_micros());
        h.eat(u64::from(*aborted));
        h.eat(stages.len() as u64);
        for stage in stages {
            stage.eat(h);
        }
        h.eat(*total_tasks);
        h.eat(*rerun_tasks);
        h.eat(idle_time.as_micros());
        h.eat(occupied_time.as_micros());
    }
}

impl StageReport {
    fn eat(&self, h: &mut Fnv64) {
        let StageReport {
            stage,
            name,
            tasks,
            phases,
            completed_at,
        } = self;
        let PhaseBreakdown {
            launch,
            shuffle_read,
            process,
            shuffle_write,
        } = phases;
        h.eat(u64::from(stage.raw()));
        h.eat_str(name);
        h.eat(u64::from(*tasks));
        h.eat(launch.as_micros());
        h.eat(shuffle_read.as_micros());
        h.eat(process.as_micros());
        h.eat(shuffle_write.as_micros());
        h.eat(completed_at.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(index: usize, aborted: bool, idle_ms: u64, occupied_ms: u64) -> JobReport {
        JobReport {
            job_index: index,
            name: format!("job{index}"),
            submitted: SimTime::ZERO,
            finished: SimTime::ZERO,
            elapsed: SimDuration::ZERO,
            aborted,
            stages: Vec::new(),
            total_tasks: 0,
            rerun_tasks: 0,
            idle_time: SimDuration::from_millis(idle_ms),
            occupied_time: SimDuration::from_millis(occupied_ms),
        }
    }

    fn run(jobs: Vec<JobReport>) -> RunReport {
        RunReport {
            policy: "swift".to_string(),
            jobs,
            utilization: Vec::new(),
            makespan: SimTime::ZERO,
            events_processed: 0,
        }
    }

    #[test]
    fn job_idle_ratio_zero_duration_is_zero() {
        assert_eq!(job(0, false, 0, 0).idle_ratio(), 0.0);
    }

    #[test]
    fn job_idle_ratio_idle_without_occupancy_is_infinite() {
        // Executors waited but no task ever completed: pure waste, not 0.
        assert_eq!(job(0, true, 500, 0).idle_ratio(), f64::INFINITY);
    }

    #[test]
    fn job_idle_ratio_normal_division() {
        let r = job(0, false, 250, 1_000).idle_ratio();
        assert!((r - 0.25).abs() < 1e-12, "got {r}");
    }

    #[test]
    fn run_idle_ratio_empty_job_list_is_zero() {
        assert_eq!(run(Vec::new()).idle_ratio(), 0.0);
    }

    #[test]
    fn run_idle_ratio_zero_duration_run_is_zero() {
        let r = run(vec![job(0, false, 0, 0), job(1, false, 0, 0)]);
        assert_eq!(r.idle_ratio(), 0.0);
    }

    #[test]
    fn run_idle_ratio_excludes_aborted_jobs() {
        // The aborted job's huge idle time must not pollute the aggregate.
        let r = run(vec![job(0, false, 100, 1_000), job(1, true, 9_999, 1)]);
        assert!((r.idle_ratio() - 0.1).abs() < 1e-12);
        // All jobs aborted: no completed occupancy at all.
        let r = run(vec![job(0, true, 9_999, 1)]);
        assert_eq!(r.idle_ratio(), 0.0);
    }

    fn us(micros: u64) -> SimDuration {
        SimDuration::from_micros(micros)
    }

    fn at(micros: u64) -> SimTime {
        SimTime::ZERO + us(micros)
    }

    /// The compiler makes `digest` name every field; this checks that it
    /// also hashes each one.
    #[test]
    fn digest_moves_with_every_field() {
        let mut base = run(vec![job(0, false, 10, 100)]);
        base.utilization = vec![(0.5, 3)];
        base.jobs[0].stages = vec![StageReport {
            stage: StageId(1),
            name: "J1".to_string(),
            tasks: 4,
            phases: PhaseBreakdown {
                launch: us(1),
                shuffle_read: us(2),
                process: us(3),
                shuffle_write: us(4),
            },
            completed_at: at(50),
        }];

        type Perturb = fn(&mut RunReport);
        let perturbations: &[(&str, Perturb)] = &[
            ("policy", |r| r.policy.push('x')),
            ("jobs", |r| r.jobs.push(job(1, false, 0, 0))),
            ("utilization", |r| r.utilization.push((1.0, 0))),
            ("utilization.0", |r| r.utilization[0].0 = -0.5),
            ("utilization.1", |r| r.utilization[0].1 = 4),
            ("makespan", |r| r.makespan = at(9)),
            ("events_processed", |r| r.events_processed = 1),
            ("job_index", |r| r.jobs[0].job_index = 1),
            ("job.name", |r| r.jobs[0].name.push('x')),
            ("submitted", |r| r.jobs[0].submitted = at(1)),
            ("finished", |r| r.jobs[0].finished = at(1)),
            ("elapsed", |r| r.jobs[0].elapsed = us(1)),
            ("aborted", |r| r.jobs[0].aborted = true),
            ("stages", |r| r.jobs[0].stages.clear()),
            ("total_tasks", |r| r.jobs[0].total_tasks = 1),
            ("rerun_tasks", |r| r.jobs[0].rerun_tasks = 1),
            ("idle_time", |r| r.jobs[0].idle_time = us(1)),
            ("occupied_time", |r| r.jobs[0].occupied_time = us(1)),
            ("stage", |r| r.jobs[0].stages[0].stage = StageId(2)),
            ("stage.name", |r| r.jobs[0].stages[0].name.clear()),
            ("tasks", |r| r.jobs[0].stages[0].tasks = 5),
            ("completed_at", |r| {
                r.jobs[0].stages[0].completed_at = at(51)
            }),
            ("launch", |r| r.jobs[0].stages[0].phases.launch = us(9)),
            ("shuffle_read", |r| {
                r.jobs[0].stages[0].phases.shuffle_read = us(9)
            }),
            ("process", |r| r.jobs[0].stages[0].phases.process = us(9)),
            ("shuffle_write", |r| {
                r.jobs[0].stages[0].phases.shuffle_write = us(9)
            }),
        ];
        let mut seen = vec![("nothing", base.digest())];
        for &(field, perturb) in perturbations {
            let mut r = base.clone();
            perturb(&mut r);
            let digest = r.digest();
            for &(other, other_digest) in &seen {
                assert_ne!(digest, other_digest, "perturbing {field} and {other}");
            }
            seen.push((field, digest));
        }
    }
}
