//! Streaming JSONL trace export with bounded memory.

use super::{Observer, ObserverFactory, RunContext, RunEnd, RunLabel, SimEvent};
use crate::error::SimError;
use crate::faults::FaultAction;
use dmhpc_metrics::{JobOutcome, JobRecord};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Default write-buffer size (bytes) — the constant that bounds a trace
/// run's memory footprint.
pub const DEFAULT_BUFFER: usize = 64 * 1024;

/// Streams the event stream to disk as JSON lines, one object per event,
/// through a fixed-size buffer: memory stays O(buffer) however many
/// events the run produces, so arbitrarily long runs export full traces.
///
/// The first line is a `run_start` header (label, job count, origin), the
/// last a `run_end` footer (event counts, passes, trace hash); every line
/// in between is one [`SimEvent`]. All values are integers (microsecond
/// times) or shortest-round-trip floats, and the stream is a pure
/// function of the run — byte-identical across thread counts and
/// event-queue backends (tested).
///
/// I/O errors are deferred: the sink goes quiet and reports via
/// [`TraceSink::finish`] / [`Observer::failure`] (the experiment runner
/// checks the latter after every cell).
#[derive(Debug)]
pub struct TraceSink {
    out: BufWriter<File>,
    path: PathBuf,
    events: u64,
    /// The line being formatted: JSON is ASCII here, so bytes.
    line: Vec<u8>,
    error: Option<SimError>,
}

impl TraceSink {
    /// Create (truncate) `path` with the default buffer size.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SimError> {
        Self::with_buffer(path, DEFAULT_BUFFER)
    }

    /// Create (truncate) `path` with an explicit buffer size in bytes —
    /// the memory bound of the sink.
    pub fn with_buffer(path: impl Into<PathBuf>, buffer: usize) -> Result<Self, SimError> {
        let path = path.into();
        let file = File::create(&path)
            .map_err(|e| SimError::io(format!("creating trace {}", path.display()), e))?;
        Ok(TraceSink {
            out: BufWriter::with_capacity(buffer.max(1), file),
            path,
            events: 0,
            line: Vec::with_capacity(160),
            error: None,
        })
    }

    /// Where the trace is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far (header/footer lines not counted).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Flush and close, returning the event count — or the first deferred
    /// I/O error.
    pub fn finish(mut self) -> Result<u64, SimError> {
        self.flush();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(SimError::io(
                    format!("flushing trace {}", self.path.display()),
                    e,
                ));
            }
        }
    }

    fn write_line(&mut self) {
        if self.error.is_some() {
            return;
        }
        self.line.push(b'\n');
        if let Err(e) = self.out.write_all(&self.line) {
            self.error = Some(SimError::io(
                format!("writing trace {}", self.path.display()),
                e,
            ));
        }
    }

    fn format_event(line: &mut Vec<u8>, ev: &SimEvent) {
        line.extend_from_slice(br#"{"t_us":"#);
        push_uint(line, ev.at().as_micros());
        line.extend_from_slice(br#","kind":""#);
        line.extend_from_slice(ev.kind().as_bytes());
        line.push(b'"');
        match ev {
            SimEvent::JobSubmitted { job, resubmit, .. } => {
                push_field(line, r#","job":"#, job.id.0);
                push_field(line, r#","nodes":"#, job.nodes.into());
                push_field(line, r#","runtime_us":"#, job.runtime.as_micros());
                push_field(line, r#","mem_mib":"#, job.mem_per_node);
                push_bool(line, r#","resubmit":"#, *resubmit);
            }
            SimEvent::JobStarted {
                job,
                nodes,
                dilation,
                ..
            } => {
                push_field(line, r#","job":"#, job.0);
                push_field(line, r#","nodes":"#, (*nodes).into());
                push_float(line, r#","dilation":"#, *dilation);
            }
            SimEvent::AllocationGrabbed {
                job,
                nodes,
                local_mib,
                remote_mib,
                ..
            }
            | SimEvent::AllocationReleased {
                job,
                nodes,
                local_mib,
                remote_mib,
                ..
            } => {
                push_field(line, r#","job":"#, job.0);
                push_field(line, r#","nodes":"#, (*nodes).into());
                push_field(line, r#","local_mib":"#, *local_mib);
                push_field(line, r#","remote_mib":"#, *remote_mib);
            }
            SimEvent::JobFinished { record, .. }
            | SimEvent::JobFailed { record, .. }
            | SimEvent::JobRejected { record, .. } => Self::format_record(line, record),
            SimEvent::JobInterrupted {
                job,
                rework_s,
                resubmitted,
                ..
            } => {
                push_field(line, r#","job":"#, job.0);
                push_float(line, r#","rework_s":"#, *rework_s);
                push_bool(line, r#","resubmitted":"#, *resubmitted);
            }
            SimEvent::FaultApplied {
                action,
                nodes_in_service,
                ..
            }
            | SimEvent::FaultCleared {
                action,
                nodes_in_service,
                ..
            } => {
                Self::format_action(line, action);
                push_field(line, r#","in_service":"#, *nodes_in_service as u64);
            }
            SimEvent::JobDeferred {
                job, recheck_at, ..
            } => {
                push_field(line, r#","job":"#, job.0);
                push_field(line, r#","recheck_us":"#, recheck_at.as_micros());
            }
            SimEvent::JobPreempted { job, for_job, .. } => {
                push_field(line, r#","job":"#, job.0);
                push_field(line, r#","for_job":"#, for_job.0);
            }
            SimEvent::PassCompleted {
                started,
                rejected,
                queued,
                ..
            } => {
                push_field(line, r#","started":"#, *started as u64);
                push_field(line, r#","rejected":"#, *rejected as u64);
                push_field(line, r#","queued":"#, *queued as u64);
            }
        }
        line.push(b'}');
    }

    fn format_record(line: &mut Vec<u8>, r: &JobRecord) {
        let outcome = match r.outcome {
            JobOutcome::Completed => "completed",
            JobOutcome::Killed => "killed",
            JobOutcome::Rejected => "rejected",
            JobOutcome::Failed => "failed",
        };
        push_field(line, r#","job":"#, r.job.id.0);
        line.extend_from_slice(br#","outcome":""#);
        line.extend_from_slice(outcome.as_bytes());
        line.push(b'"');
        if let Some(start) = r.start {
            push_field(line, r#","start_us":"#, start.as_micros());
        }
        if let Some(finish) = r.finish {
            push_field(line, r#","finish_us":"#, finish.as_micros());
        }
        if r.start.is_some() {
            push_field(line, r#","nodes":"#, r.nodes_allocated.into());
            push_field(line, r#","remote_per_node":"#, r.remote_per_node);
            push_float(line, r#","dilation":"#, r.dilation_actual);
        }
    }

    fn format_action(line: &mut Vec<u8>, action: &FaultAction) {
        let (name, target) = match *action {
            FaultAction::NodeFail(n) => ("node_fail", n.0),
            FaultAction::NodeRepair(n) => ("node_repair", n.0),
            FaultAction::DrainStart(n) => ("drain_start", n.0),
            FaultAction::DrainEnd(n) => ("drain_end", n.0),
            FaultAction::PoolDegrade { pool, .. } => ("pool_degrade", pool.0),
            FaultAction::PoolRepair(p) => ("pool_repair", p.0),
        };
        line.extend_from_slice(br#","action":""#);
        line.extend_from_slice(name.as_bytes());
        line.push(b'"');
        push_field(line, r#","target":"#, target.into());
        if let FaultAction::PoolDegrade { factor, .. } = *action {
            push_float(line, r#","factor":"#, factor);
        }
    }
}

/// Append `key` (its leading comma, quotes and colon included) and `value`.
fn push_field(line: &mut Vec<u8>, key: &str, value: u64) {
    line.extend_from_slice(key.as_bytes());
    push_uint(line, value);
}

/// Append `key` and `value` as `true` or `false`.
fn push_bool(line: &mut Vec<u8>, key: &str, value: bool) {
    line.extend_from_slice(key.as_bytes());
    line.extend_from_slice(if value { b"true" } else { b"false" });
}

/// Append `key` and `value` as `Display` writes it. An integral value
/// below 2^53 is written as its integer digits, which is what `Display`
/// writes for it too, without going through `core::fmt`; -0 and every
/// other value still go through `Display`.
fn push_float(line: &mut Vec<u8>, key: &str, value: f64) {
    line.extend_from_slice(key.as_bytes());
    if value.fract() == 0.0 && value.is_sign_positive() && value < 9_007_199_254_740_992.0 {
        push_uint(line, value as u64);
    } else {
        let _ = write!(line, "{value}");
    }
}

/// The two-digit decimal strings "00" to "99", back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `value` in decimal, two digits at a time.
fn push_uint(line: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    while value >= 10 {
        let pair = (value % 100) as usize * 2;
        first -= 2;
        digits[first..first + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        value /= 100;
    }
    if value > 0 || first == digits.len() {
        first -= 1;
        digits[first] = b'0' + value as u8;
    }
    line.extend_from_slice(&digits[first..]);
}

impl Observer for TraceSink {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.line.clear();
        let label = dmhpc_metrics::json::Json::Str(ctx.label.clone()).to_string_compact();
        let _ = write!(
            self.line,
            r#"{{"kind":"run_start","label":{label},"jobs":{},"nodes":{},"start_us":{}}}"#,
            ctx.jobs,
            ctx.cluster.total_nodes(),
            ctx.start.as_micros()
        );
        self.write_line();
    }

    fn on_event(&mut self, ev: &SimEvent) {
        self.line.clear();
        Self::format_event(&mut self.line, ev);
        self.write_line();
        self.events += 1;
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        self.line.clear();
        let _ = write!(
            self.line,
            r#"{{"kind":"run_end","t_us":{},"end_us":{},"events":{},"engine_events":{},"passes":{},"trace_hash":"{:016x}"}}"#,
            end.at.as_micros(),
            end.end.as_micros(),
            self.events,
            end.events_processed,
            end.passes,
            end.trace_hash
        );
        self.write_line();
        self.flush();
    }

    fn failure(&self) -> Option<SimError> {
        self.error.clone()
    }
}

/// [`ObserverFactory`] writing one `<run>.jsonl` per run into a
/// directory — the factory behind `ExperimentRunner::trace_dir` and
/// `repro … --trace-out DIR`.
///
/// File stems come from the lossy [`RunLabel`] sanitization, so two
/// distinct run labels can collide (e.g. `fcfs|easy` and `fcfs-easy`);
/// the factory disambiguates repeats with a numeric suffix instead of
/// letting two concurrent sinks interleave into one file. The used-stem
/// set is shared across clones of the factory (they target the same
/// directory).
#[derive(Debug, Clone)]
pub struct TraceDir {
    dir: PathBuf,
    buffer: usize,
    used: std::sync::Arc<std::sync::Mutex<std::collections::BTreeSet<String>>>,
}

impl TraceDir {
    /// Create the directory (if missing) and return the factory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        Self::with_buffer(dir, DEFAULT_BUFFER)
    }

    /// Like [`TraceDir::new`] with an explicit per-sink buffer size.
    pub fn with_buffer(dir: impl Into<PathBuf>, buffer: usize) -> Result<Self, SimError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SimError::io(format!("creating trace dir {}", dir.display()), e))?;
        Ok(TraceDir {
            dir,
            buffer,
            used: std::sync::Arc::default(),
        })
    }
}

impl ObserverFactory for TraceDir {
    fn make(&self, run: &RunLabel) -> Result<Box<dyn Observer>, SimError> {
        let stem = {
            // lint: allow(panic) — a poisoned lock means a sibling observer already panicked
            let mut used = self.used.lock().expect("trace stem set poisoned");
            let mut stem = run.file_stem.clone();
            let mut n = 1u32;
            while !used.insert(stem.clone()) {
                n += 1;
                stem = format!("{}-{n}", run.file_stem);
            }
            stem
        };
        let path = self.dir.join(format!("{stem}.jsonl"));
        Ok(Box::new(TraceSink::with_buffer(path, self.buffer)?))
    }
}

/// Parse and validate one line of a streamed trace: it must be a JSON
/// object carrying a string `"kind"`. Returns the parsed document (CI
/// smoke checks and notebooks use this to consume traces without a JSON
/// dependency of their own).
pub fn parse_trace_line(line: &str) -> Result<dmhpc_metrics::json::Json, SimError> {
    let doc = dmhpc_metrics::json::parse(line)?;
    doc.expect_key("kind")?.to_str()?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_des::time::SimTime;
    use dmhpc_workload::JobBuilder;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dmhpc-trace-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_parseable_jsonl() {
        let path = tmp("parse.jsonl");
        let mut sink = TraceSink::with_buffer(&path, 64).unwrap();
        sink.on_event(&SimEvent::JobSubmitted {
            at: SimTime::from_secs(1),
            job: JobBuilder::new(7).nodes(2).runtime_secs(10, 20).build(),
            resubmit: false,
        });
        sink.on_event(&SimEvent::PassCompleted {
            at: SimTime::from_secs(1),
            started: 1,
            rejected: 0,
            queued: 0,
        });
        assert_eq!(sink.events_written(), 2);
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let doc = dmhpc_metrics::json::parse(line).expect("line parses");
            assert!(doc.get("kind").is_some());
        }
        assert!(lines[0].contains(r#""kind":"submit""#));
        assert!(lines[0].contains(r#""job":7"#));
        let _ = std::fs::remove_file(&path);
    }

    /// Numbers written without `core::fmt` read exactly as `Display`
    /// writes them.
    #[test]
    fn numbers_match_display() {
        for v in [0, 1, 9, 10, 11, 99, 100, 101, 4_294_967_295, u64::MAX] {
            let mut line = Vec::new();
            push_uint(&mut line, v);
            assert_eq!(line, v.to_string().into_bytes());
        }
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1.25,
            1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e20,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        for v in floats {
            let mut line = Vec::new();
            push_float(&mut line, ",", v);
            assert_eq!(line, format!(",{v}").into_bytes(), "{v:?}");
        }
    }

    #[test]
    fn trace_dir_names_files_by_run() {
        let dir = tmp("dir");
        let factory = TraceDir::new(&dir).unwrap();
        let mut obs = factory.make(&RunLabel::new("a|b c")).unwrap();
        obs.on_event(&SimEvent::PassCompleted {
            at: SimTime::ZERO,
            started: 0,
            rejected: 0,
            queued: 0,
        });
        obs.on_run_end(&RunEnd {
            at: SimTime::ZERO,
            end: SimTime::ZERO,
            events_processed: 0,
            passes: 0,
            trace_hash: 0,
        });
        assert!(obs.failure().is_none());
        drop(obs);
        let text = std::fs::read_to_string(dir.join("a-b-c.jsonl")).unwrap();
        assert!(text.lines().count() == 2, "event + footer");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
