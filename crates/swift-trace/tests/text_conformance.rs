//! Conformance of the byte-level trace writer with the text format.
//!
//! The reference below renders the format with `format!`, one format
//! string per event kind, exactly as the format is specified: a
//! right-aligned 12-column timestamp, the event name, then the kind's
//! `key=value` fields. Every `SimEvent` variant is built with field
//! values at 0, at `u32::MAX`/`u64::MAX` and seeded at random, with every
//! label of every enum, empty and non-empty lists, and timestamps of 1,
//! 11, 12, 13 and 20 digits. The writer must match the reference byte for
//! byte through [`TraceEvent::write_line`], [`Trace::render_text`] (with
//! its header and footer), [`Trace::render_counters_text`] and a
//! [`StreamSink`] cut at its smallest chunk. A [`StreamSink`] must also
//! match [`Trace::render_text`] at every boundary of the batches it hands
//! its render thread.

use swift_cluster::MachineHealth;
use swift_ft::{FailureKind, RecoveryCase};
use swift_scheduler::{GraphletState, SimEvent, TaskRef};
use swift_shuffle::{ShuffleMedium, ShuffleScheme};
use swift_sim::{SimRng, SimTime};
use swift_trace::{
    StreamSink, Trace, TraceEvent, TraceSink, DEFAULT_CHUNK_BYTES, STREAM_BATCH_EVENTS,
    TEXT_FORMAT_VERSION,
};

const SCHEMES: [ShuffleScheme; 3] = [
    ShuffleScheme::Direct,
    ShuffleScheme::Local,
    ShuffleScheme::Remote,
];
const MEDIA: [ShuffleMedium; 2] = [ShuffleMedium::Memory, ShuffleMedium::Disk];
const FAILURES: [FailureKind; 4] = [
    FailureKind::ProcessRestart,
    FailureKind::MachineCrash,
    FailureKind::MachineUnhealthy,
    FailureKind::ApplicationError,
];
const CASES: [RecoveryCase; 7] = [
    RecoveryCase::Useless,
    RecoveryCase::NoActionNeeded,
    RecoveryCase::IntraIdempotent,
    RecoveryCase::IntraNonIdempotent,
    RecoveryCase::InputFailure,
    RecoveryCase::OutputFailure,
    RecoveryCase::Mixed,
];
const STATES: [GraphletState; 2] = [GraphletState::Submitted, GraphletState::Complete];
const HEALTH: [MachineHealth; 3] = [
    MachineHealth::Healthy,
    MachineHealth::ReadOnly,
    MachineHealth::Failed,
];

/// Timestamps of 1, 11, 12, 13 and 20 digits (the column is 12 wide).
const TIMESTAMPS: [u64; 6] = [
    0,
    7,
    12_345_678_901,
    123_456_789_012,
    1_234_567_890_123,
    u64::MAX,
];

/// Where field values come from.
enum Values {
    Zero,
    Max,
    Random(SimRng),
}

impl Values {
    fn u64(&mut self) -> u64 {
        match self {
            Values::Zero => 0,
            Values::Max => u64::MAX,
            // Spread the digit counts: a random width, then a value of it.
            Values::Random(rng) => rng.u64() >> rng.range(0, 64),
        }
    }

    fn u32(&mut self) -> u32 {
        match self {
            Values::Max => u32::MAX,
            _ => self.u64() as u32,
        }
    }

    fn u16(&mut self) -> u16 {
        match self {
            Values::Max => u16::MAX,
            _ => self.u64() as u16,
        }
    }

    fn bool(&mut self) -> bool {
        match self {
            Values::Zero => false,
            Values::Max => true,
            Values::Random(_) => self.u64() & 1 == 1,
        }
    }

    fn task(&mut self) -> TaskRef {
        TaskRef {
            stage: self.u32(),
            index: self.u32(),
        }
    }
}

/// Every event kind once, enum labels chosen by `round`, lists of length
/// `round % 4` (so some empty) and field values from `v`.
fn every_kind(round: usize, v: &mut Values) -> Vec<SimEvent> {
    let list = round % 4;
    vec![
        SimEvent::JobSubmitted { job: v.u32() },
        SimEvent::SchemeSelected {
            job: v.u32(),
            edge: v.u32(),
            src: v.u32(),
            dst: v.u32(),
            size: v.u64(),
            scheme: SCHEMES[round % SCHEMES.len()],
            medium: MEDIA[round % MEDIA.len()],
            crossing: v.bool(),
        },
        SimEvent::TemplateMiss {
            job: v.u32(),
            signature: v.u64(),
        },
        SimEvent::TemplateHit {
            job: v.u32(),
            signature: v.u64(),
        },
        SimEvent::TemplateInstantiate {
            job: v.u32(),
            units: v.u32(),
            edges: v.u32(),
        },
        SimEvent::GraphletState {
            job: v.u32(),
            unit: v.u32(),
            state: STATES[round % STATES.len()],
            stages: (0..list).map(|_| v.u32()).collect(),
        },
        SimEvent::GangWaitStarted {
            job: v.u32(),
            unit: v.u32(),
            tasks: v.u32(),
        },
        SimEvent::GangWaitEnded {
            job: v.u32(),
            unit: v.u32(),
            tasks: v.u32(),
            wave: v.bool(),
        },
        SimEvent::TaskAssigned {
            job: v.u32(),
            task: v.task(),
            epoch: v.u32(),
            executor: v.u32(),
        },
        SimEvent::PlanDelivered {
            job: v.u32(),
            task: v.task(),
            epoch: v.u32(),
        },
        SimEvent::TaskStarted {
            job: v.u32(),
            task: v.task(),
            epoch: v.u32(),
        },
        SimEvent::TaskFinished {
            job: v.u32(),
            task: v.task(),
            epoch: v.u32(),
        },
        SimEvent::TaskInvalidated {
            job: v.u32(),
            task: v.task(),
            new_epoch: v.u32(),
        },
        SimEvent::InputRead {
            job: v.u32(),
            consumer: v.task(),
            producer_stage: v.u32(),
            producers: v.u32(),
        },
        SimEvent::FailureDetected {
            job: v.u32(),
            task: v.task(),
            kind: FAILURES[round % FAILURES.len()],
        },
        SimEvent::RecoveryPlanned {
            job: v.u32(),
            failed: v.task(),
            case: CASES[round % CASES.len()],
            abort: v.bool(),
            rerun: (0..list).map(|_| v.task()).collect(),
            updates: v.u32(),
        },
        SimEvent::JobRestarted { job: v.u32() },
        SimEvent::JobCompleted {
            job: v.u32(),
            aborted: v.bool(),
        },
        SimEvent::MachineHealthChanged {
            machine: v.u32(),
            from: HEALTH[round % HEALTH.len()],
            to: HEALTH[(round + 1) % HEALTH.len()],
        },
        SimEvent::CacheSpill {
            machine: v.u32(),
            bytes: v.u64(),
            segments: v.u32(),
        },
        SimEvent::CacheEvict {
            machine: v.u32(),
            bytes: v.u64(),
        },
        SimEvent::CounterFrame {
            window: v.u64(),
            // Ids 0-31: the 24-series vocabulary and ids past it, which
            // the counter tracks name `unknown`.
            values: (0..list * 9).map(|_| (v.u16() % 32, v.u64())).collect(),
        },
        SimEvent::RunFinished { events: v.u64() },
        SimEvent::JobAdmitted {
            job: v.u32(),
            tenant: v.u32(),
            queue_depth: v.u32(),
        },
        SimEvent::JobRejected {
            job: v.u32(),
            tenant: v.u32(),
            queue_depth: v.u32(),
            retry_after_ms: v.u64(),
        },
        SimEvent::SessionWarmHit {
            job: v.u32(),
            tenant: v.u32(),
            session: v.u32(),
        },
        SimEvent::SessionColdStart {
            job: v.u32(),
            tenant: v.u32(),
            session: v.u32(),
            executors: v.u32(),
        },
        SimEvent::SessionExpired {
            tenant: v.u32(),
            session: v.u32(),
            executors: v.u32(),
        },
    ]
}

/// The whole corpus: every kind under every value source, label round
/// and timestamp.
fn corpus() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let sources = [
        Values::Zero,
        Values::Max,
        Values::Random(SimRng::new(41)),
        Values::Random(SimRng::new(0x7ace)),
    ];
    for mut v in sources {
        for round in 0..8 {
            for (i, kind) in every_kind(round, &mut v).into_iter().enumerate() {
                let at = SimTime(TIMESTAMPS[(round + i) % TIMESTAMPS.len()]);
                out.push(TraceEvent { at, kind });
            }
        }
    }
    out
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

fn task(t: &TaskRef) -> String {
    format!("{}.{}", t.stage, t.index)
}

/// The format, one `format!` per kind (no trailing newline).
fn reference_line(e: &TraceEvent) -> String {
    let fields = match &e.kind {
        SimEvent::JobSubmitted { job } | SimEvent::JobRestarted { job } => {
            format!(" job={job}")
        }
        SimEvent::SchemeSelected {
            job,
            edge,
            src,
            dst,
            size,
            scheme,
            medium,
            crossing,
        } => {
            let medium = match medium {
                ShuffleMedium::Memory => "memory",
                ShuffleMedium::Disk => "disk",
            };
            format!(
                " job={job} edge={edge} src={src} dst={dst} size={size} scheme={scheme} \
                 medium={medium} crossing={crossing}"
            )
        }
        SimEvent::TemplateMiss { job, signature } | SimEvent::TemplateHit { job, signature } => {
            format!(" job={job} signature={signature:016x}")
        }
        SimEvent::TemplateInstantiate { job, units, edges } => {
            format!(" job={job} units={units} edges={edges}")
        }
        SimEvent::GraphletState {
            job,
            unit,
            state,
            stages,
        } => {
            let mut s = format!(" job={job} unit={unit} state={}", state.as_str());
            if !stages.is_empty() {
                s += &format!(" stages={}", join(stages, |x| x.to_string()));
            }
            s
        }
        SimEvent::GangWaitStarted { job, unit, tasks } => {
            format!(" job={job} unit={unit} tasks={tasks}")
        }
        SimEvent::GangWaitEnded {
            job,
            unit,
            tasks,
            wave,
        } => format!(" job={job} unit={unit} tasks={tasks} wave={wave}"),
        SimEvent::TaskAssigned {
            job,
            task: t,
            epoch,
            executor,
        } => format!(" job={job} task={} epoch={epoch} exec={executor}", task(t)),
        SimEvent::PlanDelivered {
            job,
            task: t,
            epoch,
        }
        | SimEvent::TaskStarted {
            job,
            task: t,
            epoch,
        }
        | SimEvent::TaskFinished {
            job,
            task: t,
            epoch,
        } => {
            format!(" job={job} task={} epoch={epoch}", task(t))
        }
        SimEvent::TaskInvalidated {
            job,
            task: t,
            new_epoch,
        } => format!(" job={job} task={} new_epoch={new_epoch}", task(t)),
        SimEvent::InputRead {
            job,
            consumer,
            producer_stage,
            producers,
        } => format!(
            " job={job} consumer={} producer_stage={producer_stage} producers={producers}",
            task(consumer)
        ),
        SimEvent::FailureDetected { job, task: t, kind } => {
            format!(" job={job} task={} kind={kind}", task(t))
        }
        SimEvent::RecoveryPlanned {
            job,
            failed,
            case,
            abort,
            rerun,
            updates,
        } => {
            let mut s = format!(
                " job={job} failed={} case={case} abort={abort} updates={updates}",
                task(failed)
            );
            if !rerun.is_empty() {
                s += &format!(" rerun={}", join(rerun, task));
            }
            s
        }
        SimEvent::JobCompleted { job, aborted } => format!(" job={job} aborted={aborted}"),
        SimEvent::MachineHealthChanged { machine, from, to } => {
            format!(
                " machine={machine} from={} to={}",
                health(*from),
                health(*to)
            )
        }
        SimEvent::CacheSpill {
            machine,
            bytes,
            segments,
        } => format!(" machine={machine} bytes={bytes} segments={segments}"),
        SimEvent::CacheEvict { machine, bytes } => {
            format!(" machine={machine} bytes={bytes}")
        }
        SimEvent::CounterFrame { window, values } => {
            let mut s = format!(" window={window}");
            for (id, v) in values {
                s += &format!(" s{id}={v}");
            }
            s
        }
        SimEvent::RunFinished { events } => format!(" events={events}"),
        SimEvent::JobAdmitted {
            job,
            tenant,
            queue_depth,
        } => format!(" job={job} tenant={tenant} queue_depth={queue_depth}"),
        SimEvent::JobRejected {
            job,
            tenant,
            queue_depth,
            retry_after_ms,
        } => format!(
            " job={job} tenant={tenant} queue_depth={queue_depth} retry_after_ms={retry_after_ms}"
        ),
        SimEvent::SessionWarmHit {
            job,
            tenant,
            session,
        } => format!(" job={job} tenant={tenant} session={session}"),
        SimEvent::SessionColdStart {
            job,
            tenant,
            session,
            executors,
        } => format!(" job={job} tenant={tenant} session={session} executors={executors}"),
        SimEvent::SessionExpired {
            tenant,
            session,
            executors,
        } => format!(" tenant={tenant} session={session} executors={executors}"),
    };
    format!("{:>12} {}{fields}", e.at.as_micros(), e.name())
}

fn health(h: MachineHealth) -> &'static str {
    match h {
        MachineHealth::Healthy => "healthy",
        MachineHealth::ReadOnly => "read_only",
        MachineHealth::Failed => "failed",
    }
}

fn reference_text(trace: &Trace) -> String {
    let mut s = format!(
        "# swift-trace v{TEXT_FORMAT_VERSION}\n# scenario={} seed={}\n",
        trace.scenario, trace.seed
    );
    for e in &trace.events {
        s += &reference_line(e);
        s.push('\n');
    }
    s + &format!("# events={}\n", trace.events.len())
}

fn reference_counters(trace: &Trace) -> String {
    let mut s = String::new();
    for e in &trace.events {
        if let SimEvent::CounterFrame { window, values } = &e.kind {
            for (id, v) in values {
                let name = swift_metrics::series_def(*id).map_or("unknown", |d| d.name);
                s += &format!("{:>12} window={window} {name} {v}\n", e.at.as_micros());
            }
        }
    }
    s
}

#[test]
fn every_line_matches_the_reference() {
    let events = corpus();
    let mut kinds = std::collections::BTreeSet::new();
    for e in &events {
        kinds.insert(e.name());
        let mut out = Vec::new();
        e.write_line(&mut out);
        let line = String::from_utf8(out).expect("trace text is UTF-8");
        assert_eq!(line, reference_line(e) + "\n", "{e:?}");
    }
    assert_eq!(kinds.len(), 28, "every event kind is covered");
}

#[test]
fn line_appends_after_existing_bytes() {
    let e = TraceEvent {
        at: SimTime(42),
        kind: SimEvent::JobSubmitted { job: 9 },
    };
    let mut out = b"prefix\n".to_vec();
    e.write_line(&mut out);
    assert_eq!(out, b"prefix\n          42 job_submitted job=9\n");
}

#[test]
fn whole_renders_match_the_reference() {
    let trace = Trace {
        scenario: "conformance / ünïcode".to_string(),
        seed: u64::MAX,
        events: corpus(),
    };
    assert_eq!(trace.render_text(), reference_text(&trace));
    let counters = trace.render_counters_text();
    assert!(
        counters.contains(" unknown "),
        "an unknown series id is covered"
    );
    assert_eq!(counters, reference_counters(&trace));

    // The smallest chunk, where many lines are longer than the chunk.
    let mut sink = StreamSink::with_chunk(Vec::new(), &trace.scenario, trace.seed, 64);
    let mut longest = 0;
    for e in &trace.events {
        longest = longest.max(reference_line(e).len() + 1);
        sink.record(e.clone());
    }
    let (bytes, stats) = sink.finish_into_inner().expect("a Vec never fails a write");
    assert!(longest > 64);
    assert!(stats.peak_buffer_bytes <= longest);
    assert_eq!(String::from_utf8(bytes).unwrap(), reference_text(&trace));
}

/// `n` task events with seeded fields, each line at most 64 bytes, so a
/// 64-byte chunk never has to hold more than one line.
fn short_events(n: usize) -> Vec<TraceEvent> {
    let mut rng = SimRng::new(0x5eed);
    let mut at = 0;
    (0..n)
        .map(|i| {
            at += rng.range(0, 5_000_000);
            let (job, epoch) = (rng.range(0, 10_000) as u32, rng.range(0, 4) as u32);
            let task = TaskRef {
                stage: rng.range(0, 100) as u32,
                index: rng.range(0, 10_000) as u32,
            };
            let kind = if i % 2 == 0 {
                SimEvent::TaskStarted { job, task, epoch }
            } else {
                SimEvent::TaskFinished { job, task, epoch }
            };
            TraceEvent {
                at: SimTime(at),
                kind,
            }
        })
        .collect()
}

#[test]
fn streams_match_the_render_at_every_batch_boundary() {
    let b = STREAM_BATCH_EVENTS;
    for n in [b - 1, b, b + 1, 3 * b] {
        let trace = Trace {
            scenario: "batches".to_string(),
            seed: 3,
            events: short_events(n),
        };
        let rendered = trace.render_text();
        assert!(rendered.lines().all(|l| l.len() < 64), "n={n}");
        for chunk in [64, DEFAULT_CHUNK_BYTES] {
            let mut sink = StreamSink::with_chunk(Vec::new(), &trace.scenario, trace.seed, chunk);
            for e in &trace.events {
                sink.record(e.clone());
            }
            let (bytes, stats) = sink.finish_into_inner().expect("a Vec never fails a write");
            assert_eq!(stats.events, n as u64, "n={n} chunk={chunk}");
            assert_eq!(
                stats.bytes_written as usize,
                bytes.len(),
                "n={n} chunk={chunk}"
            );
            assert!(
                stats.peak_buffer_bytes <= chunk,
                "n={n} chunk={chunk}: peak buffer {}",
                stats.peak_buffer_bytes
            );
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                rendered,
                "n={n} chunk={chunk}"
            );
        }
    }
}
