//! In-memory span recording around calls into the workspace's layers.
//!
//! Spans are kept in memory while a traced run executes and written out
//! once, when it ends, as one JSON object per line. A span's self time is
//! its duration minus the part of it that its child spans cover.

use gossip_analysis::oracle::OracleSuite;
use plurality_core::observe::{Observer, PhaseSnapshot};
use plurality_core::{Outcome, StageId};
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The request (trial or served request) the span belongs to.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (messages for phases and trials).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder: a stack of open spans whose top is the
/// parent of the next span begun.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    trace: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `id_base` keeps span ids of different threads apart.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Tracer {
            epoch,
            next_id: id_base,
            trace: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its handle.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let now = self.now_ns();
        self.spans.push(Span {
            id: self.next_id,
            parent,
            trace: self.trace,
            name,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.next_id += 1;
        let handle = self.spans.len() - 1;
        self.open.push(handle);
        handle
    }

    /// Closes `handle` and every span opened after it.
    pub fn end(&mut self, handle: usize, count: u64) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == handle {
                break;
            }
        }
        self.spans[handle].count = count;
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            trace: self.trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            count,
        });
        self.next_id += 1;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes spans as JSON lines, each with its computed self time.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"count\":{}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.trace,
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
            s.count,
        )?;
    }
    out.flush()
}

/// The observer of a traced trial: stage and phase spans from the
/// protocol's phase-boundary callbacks, plus a span around every callback
/// of the campaign's oracle suite, when the trial has one. Observers see
/// immutable snapshots and no RNG, so attaching this one cannot change
/// the trial's result.
pub struct TrialObserver<'t> {
    tracer: &'t mut Tracer,
    suite: Option<OracleSuite>,
    stage: Option<(StageId, usize)>,
    phase: Option<usize>,
}

impl<'t> TrialObserver<'t> {
    pub fn new(tracer: &'t mut Tracer, suite: Option<OracleSuite>) -> Self {
        TrialObserver {
            tracer,
            suite,
            stage: None,
            phase: None,
        }
    }

    /// Judges the finished outcome under a span of its own and returns
    /// the oracle violations (none without a suite).
    pub fn judge(mut self, outcome: &Outcome) -> Vec<String> {
        let Some(suite) = self.suite.take() else {
            return Vec::new();
        };
        let span = self.tracer.begin("analysis.judge");
        let violations = suite.judge(outcome);
        self.tracer.end(span, 0);
        violations.iter().map(ToString::to_string).collect()
    }

    fn with_suite(&mut self, call: impl FnOnce(&mut OracleSuite)) {
        if let Some(suite) = self.suite.as_mut() {
            let start = Instant::now();
            call(suite);
            self.tracer
                .record("analysis.oracle", start, Instant::now(), 0);
        }
    }

    fn close_stage(&mut self) {
        if let Some((_, span)) = self.stage.take() {
            self.tracer.end(span, 0);
        }
    }
}

impl Observer for TrialObserver<'_> {
    fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
        if let Some(stage) = stage {
            if self.stage.map(|(s, _)| s) != Some(stage) {
                self.close_stage();
                let name = match stage {
                    StageId::One => "core.stage1",
                    StageId::Two => "core.stage2",
                };
                self.stage = Some((stage, self.tracer.begin(name)));
            }
        }
        self.phase = Some(self.tracer.begin("core.phase"));
        self.with_suite(|s| s.on_phase_begin(stage, phase));
    }

    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        self.with_suite(|s| s.on_phase_end(snapshot));
        if let Some(span) = self.phase.take() {
            self.tracer.end(span, snapshot.messages());
        }
    }

    fn on_stage_transition(&mut self, from: StageId, to: StageId) {
        self.with_suite(|s| s.on_stage_transition(from, to));
    }

    fn on_finish(&mut self) {
        self.close_stage();
        self.with_suite(|s| s.on_finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            trace: 0,
            name: "t",
            start_ns,
            end_ns,
            count: 0,
        };
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn nested_spans_take_the_innermost_open_span_as_parent() {
        let mut t = Tracer::new(Instant::now(), 100);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner, 3);
        t.end(outer, 0);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].count, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
