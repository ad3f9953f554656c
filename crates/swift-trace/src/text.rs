//! The one writer of the trace text format.
//!
//! Every byte of trace text goes through this module: the two-line
//! header, each event line ([`TraceEvent::write_line`]), the counter-track
//! lines and the `# events=N` footer. [`crate::Trace::render_text`],
//! [`crate::Trace::render_counters_text`] and [`crate::StreamSink`] all
//! append to a `Vec<u8>` through it, which is why the streamed bytes equal
//! the buffered render: there is no second renderer to drift.
//!
//! The streaming sink renders every event of a run, so the writer stays
//! off `fmt`: decimal numbers go out through a two-digit lookup table,
//! written in place at the end of the output (the 12-column timestamp
//! is padded in the same block), labels are `&'static str`, and template
//! signatures use a fixed-width hex writer. Everything written is ASCII
//! apart from the scenario label, so the bytes are UTF-8 by construction.

use swift_metrics::series_def;
use swift_scheduler::{SimEvent, TaskRef};

use crate::event::{health_str, medium_str, TraceEvent};
use crate::TEXT_FORMAT_VERSION;

/// Width of the right-aligned timestamp column.
const TS_WIDTH: usize = 12;

/// Digits of the widest `u64`.
const MAX_DIGITS: usize = 20;

/// `"00" "01" … "99"`: two decimal digits per entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Decimal digits in `v`.
#[inline]
fn digit_count(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
}

/// Writes `v`'s decimal digits into `buf` so that the last one lands at
/// `buf[end - 1]`; `end` must leave room for all of them.
#[inline]
fn digits(buf: &mut [u8], end: usize, mut v: u64) {
    let mut i = end;
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        buf[i - 2..i].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        buf[i - 1] = b'0' + v as u8;
    }
}

/// Appends `v` in decimal. The digits are written in place: a block as
/// wide as the widest `u64` is appended, the digits go in at its head and
/// the rest is cut off. A fixed-size append is a couple of stores, where
/// appending the digits from a stack buffer would cost a `memcpy` call
/// per number.
#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    let end = out.len() + digit_count(v);
    out.extend_from_slice(&[0; MAX_DIGITS]);
    digits(out, end, v);
    out.truncate(end);
}

/// Appends `micros` right-aligned in the 12-column timestamp field, the
/// way [`push_u64`] appends a number but into a block of spaces; a wider
/// value overflows the column rather than being cut.
#[inline]
fn push_ts(out: &mut Vec<u8>, micros: u64) {
    let end = out.len() + digit_count(micros).max(TS_WIDTH);
    out.extend_from_slice(&[b' '; MAX_DIGITS]);
    digits(out, end, micros);
    out.truncate(end);
}

/// Appends `v` as 16 lowercase hex digits, zero-padded.
#[inline]
fn push_hex16(out: &mut Vec<u8>, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&buf);
}

/// Appends ` key=` then `v` in decimal.
#[inline]
fn field(out: &mut Vec<u8>, key: &[u8], v: u32) {
    out.extend_from_slice(key);
    push_u64(out, u64::from(v));
}

/// Appends ` key=` then `v` in decimal.
#[inline]
fn field64(out: &mut Vec<u8>, key: &[u8], v: u64) {
    out.extend_from_slice(key);
    push_u64(out, v);
}

/// Appends ` key=` then the task coordinate as `stage.index`.
#[inline]
fn field_task(out: &mut Vec<u8>, key: &[u8], t: &TaskRef) {
    field(out, key, t.stage);
    field(out, b".", t.index);
}

/// Appends ` key=` then a label.
#[inline]
fn field_str(out: &mut Vec<u8>, key: &[u8], v: &str) {
    out.extend_from_slice(key);
    out.extend_from_slice(v.as_bytes());
}

/// Appends ` key=` then `true` or `false`.
#[inline]
fn field_bool(out: &mut Vec<u8>, key: &[u8], v: bool) {
    out.extend_from_slice(key);
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

/// Appends the two header lines: the format version, then the scenario
/// label and seed.
pub(crate) fn write_header(out: &mut Vec<u8>, scenario: &str, seed: u64) {
    field(out, b"# swift-trace v", TEXT_FORMAT_VERSION);
    out.extend_from_slice(b"\n# scenario=");
    out.extend_from_slice(scenario.as_bytes());
    field64(out, b" seed=", seed);
    out.push(b'\n');
}

/// Appends the `# events=N` footer line.
pub(crate) fn write_footer(out: &mut Vec<u8>, events: u64) {
    field64(out, b"# events=", events);
    out.push(b'\n');
}

/// Appends one counter-track line per series of a `counters` frame:
/// `{micros:>12} window=W {series name} {value}`. Other events append
/// nothing.
pub(crate) fn write_counter_lines(out: &mut Vec<u8>, event: &TraceEvent) {
    let SimEvent::CounterFrame { window, values } = &event.kind else {
        return;
    };
    for &(id, v) in values {
        push_ts(out, event.at.as_micros());
        field64(out, b" window=", *window);
        out.push(b' ');
        out.extend_from_slice(series_def(id).map_or("unknown", |d| d.name).as_bytes());
        out.push(b' ');
        push_u64(out, v);
        out.push(b'\n');
    }
}

impl TraceEvent {
    /// Appends the event's stable text line, newline included: the
    /// right-aligned 12-column timestamp, the event name, then its
    /// `key=value` fields in a fixed order.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        push_ts(out, self.at.as_micros());
        out.push(b' ');
        out.extend_from_slice(self.name().as_bytes());
        match &self.kind {
            SimEvent::JobSubmitted { job } | SimEvent::JobRestarted { job } => {
                field(out, b" job=", *job);
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
                field(out, b" job=", *job);
                field(out, b" edge=", *edge);
                field(out, b" src=", *src);
                field(out, b" dst=", *dst);
                field64(out, b" size=", *size);
                field_str(out, b" scheme=", scheme.as_str());
                field_str(out, b" medium=", medium_str(*medium));
                field_bool(out, b" crossing=", *crossing);
            }
            SimEvent::TemplateMiss { job, signature }
            | SimEvent::TemplateHit { job, signature } => {
                field(out, b" job=", *job);
                out.extend_from_slice(b" signature=");
                push_hex16(out, *signature);
            }
            SimEvent::TemplateInstantiate { job, units, edges } => {
                field(out, b" job=", *job);
                field(out, b" units=", *units);
                field(out, b" edges=", *edges);
            }
            SimEvent::GraphletState {
                job,
                unit,
                state,
                stages,
            } => {
                field(out, b" job=", *job);
                field(out, b" unit=", *unit);
                field_str(out, b" state=", state.as_str());
                if let Some((first, rest)) = stages.split_first() {
                    field(out, b" stages=", *first);
                    for &stage in rest {
                        field(out, b",", stage);
                    }
                }
            }
            SimEvent::GangWaitStarted { job, unit, tasks } => {
                field(out, b" job=", *job);
                field(out, b" unit=", *unit);
                field(out, b" tasks=", *tasks);
            }
            SimEvent::GangWaitEnded {
                job,
                unit,
                tasks,
                wave,
            } => {
                field(out, b" job=", *job);
                field(out, b" unit=", *unit);
                field(out, b" tasks=", *tasks);
                field_bool(out, b" wave=", *wave);
            }
            SimEvent::TaskAssigned {
                job,
                task,
                epoch,
                executor,
            } => {
                field(out, b" job=", *job);
                field_task(out, b" task=", task);
                field(out, b" epoch=", *epoch);
                field(out, b" exec=", *executor);
            }
            SimEvent::PlanDelivered { job, task, epoch }
            | SimEvent::TaskStarted { job, task, epoch }
            | SimEvent::TaskFinished { job, task, epoch } => {
                field(out, b" job=", *job);
                field_task(out, b" task=", task);
                field(out, b" epoch=", *epoch);
            }
            SimEvent::TaskInvalidated {
                job,
                task,
                new_epoch,
            } => {
                field(out, b" job=", *job);
                field_task(out, b" task=", task);
                field(out, b" new_epoch=", *new_epoch);
            }
            SimEvent::InputRead {
                job,
                consumer,
                producer_stage,
                producers,
            } => {
                field(out, b" job=", *job);
                field_task(out, b" consumer=", consumer);
                field(out, b" producer_stage=", *producer_stage);
                field(out, b" producers=", *producers);
            }
            SimEvent::FailureDetected { job, task, kind } => {
                field(out, b" job=", *job);
                field_task(out, b" task=", task);
                field_str(out, b" kind=", kind.as_str());
            }
            SimEvent::RecoveryPlanned {
                job,
                failed,
                case,
                abort,
                rerun,
                updates,
            } => {
                field(out, b" job=", *job);
                field_task(out, b" failed=", failed);
                field_str(out, b" case=", case.as_str());
                field_bool(out, b" abort=", *abort);
                field(out, b" updates=", *updates);
                if let Some((first, rest)) = rerun.split_first() {
                    field_task(out, b" rerun=", first);
                    for t in rest {
                        field_task(out, b",", t);
                    }
                }
            }
            SimEvent::JobCompleted { job, aborted } => {
                field(out, b" job=", *job);
                field_bool(out, b" aborted=", *aborted);
            }
            SimEvent::MachineHealthChanged { machine, from, to } => {
                field(out, b" machine=", *machine);
                field_str(out, b" from=", health_str(*from));
                field_str(out, b" to=", health_str(*to));
            }
            SimEvent::CacheSpill {
                machine,
                bytes,
                segments,
            } => {
                field(out, b" machine=", *machine);
                field64(out, b" bytes=", *bytes);
                field(out, b" segments=", *segments);
            }
            SimEvent::CacheEvict { machine, bytes } => {
                field(out, b" machine=", *machine);
                field64(out, b" bytes=", *bytes);
            }
            SimEvent::CounterFrame { window, values } => {
                field64(out, b" window=", *window);
                for &(id, v) in values {
                    field(out, b" s", u32::from(id));
                    field64(out, b"=", v);
                }
            }
            SimEvent::RunFinished { events } => {
                field64(out, b" events=", *events);
            }
            SimEvent::JobAdmitted {
                job,
                tenant,
                queue_depth,
            } => {
                field(out, b" job=", *job);
                field(out, b" tenant=", *tenant);
                field(out, b" queue_depth=", *queue_depth);
            }
            SimEvent::JobRejected {
                job,
                tenant,
                queue_depth,
                retry_after_ms,
            } => {
                field(out, b" job=", *job);
                field(out, b" tenant=", *tenant);
                field(out, b" queue_depth=", *queue_depth);
                field64(out, b" retry_after_ms=", *retry_after_ms);
            }
            SimEvent::SessionWarmHit {
                job,
                tenant,
                session,
            } => {
                field(out, b" job=", *job);
                field(out, b" tenant=", *tenant);
                field(out, b" session=", *session);
            }
            SimEvent::SessionColdStart {
                job,
                tenant,
                session,
                executors,
            } => {
                field(out, b" job=", *job);
                field(out, b" tenant=", *tenant);
                field(out, b" session=", *session);
                field(out, b" executors=", *executors);
            }
            SimEvent::SessionExpired {
                tenant,
                session,
                executors,
            } => {
                field(out, b" tenant=", *tenant);
                field(out, b" session=", *session);
                field(out, b" executors=", *executors);
            }
        }
        out.push(b'\n');
    }
}
