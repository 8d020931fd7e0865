//! The benchmark's span recorder: timestamps the events the program
//! already emits, parents them under the benchmark's span for the call in
//! flight, and derives each layer's self time.
//!
//! The program emits no start events. Its spans are recovered from what
//! it does emit:
//!
//! * `PhaseTiming { phase, nanos }` arrives when a phase ends, so the
//!   phase ran over `[receipt - nanos, receipt]`;
//! * a search on one thread opens at its first store lookup or phase and
//!   closes at its `Terminated` event (or at a `node_crashed` fault);
//! * `PlacementScored`, `JournalAppended` and `CheckpointWritten` end a
//!   ranking, journal append or checkpoint write that began at the
//!   previous event the same thread emitted in the call (or the call's
//!   start).
//!
//! A layer's self time is its span minus the part of that interval its
//! child spans cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use clite_telemetry::{Event, Phase, Recorder};

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small dense id for the calling thread (stable for its lifetime).
#[must_use]
pub fn thread_index() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// One event as received: when, on which thread, what.
#[derive(Debug, Clone)]
pub struct Received {
    /// Receipt time since the recorder's origin.
    pub at: Duration,
    /// [`thread_index`] of the emitting thread.
    pub thread: u32,
    /// The event.
    pub event: Event,
}

/// What a [`SpanRecorder`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Only the fleet's per-event marks (`JournalAppended`, `JobArrived`,
    /// `CheckpointWritten`), enough to time durable-fleet events from the
    /// program's own boundaries, with search events folded into a
    /// [`SearchTally`] on receipt instead of kept.
    Marks,
    /// Every event, for the traced run.
    All,
}

/// A [`Recorder`] that timestamps events on receipt and keeps them in
/// memory until the round ends.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    keep: Keep,
    events: Mutex<Vec<Received>>,
    tally: Mutex<SearchTally>,
}

impl SpanRecorder {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(keep: Keep) -> Self {
        Self {
            origin: Instant::now(),
            keep,
            events: Mutex::new(Vec::new()),
            tally: Mutex::new(SearchTally::default()),
        }
    }

    /// Time since the recorder's origin, on the same clock as receipts.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Every event kept so far, in receipt order.
    #[must_use]
    pub fn take(&self) -> Vec<Received> {
        let mut events = std::mem::take(&mut *self.events.lock().expect("span recorder lock"));
        events.sort_by_key(|r| r.at);
        events
    }

    /// The searches seen so far: folded on receipt when keeping marks,
    /// from the kept events otherwise.
    #[must_use]
    pub fn searches(&self, kept: &[Received]) -> Vec<SearchSummary> {
        match self.keep {
            Keep::Marks => std::mem::take(&mut self.tally.lock().expect("tally lock").done),
            Keep::All => {
                let mut tally = SearchTally::default();
                for r in kept {
                    tally.fold(r.at, r.thread, &r.event);
                }
                tally.done
            }
        }
    }
}

fn is_mark(event: &Event) -> bool {
    matches!(
        event,
        Event::JournalAppended { .. } | Event::JobArrived { .. } | Event::CheckpointWritten { .. }
    )
}

impl Recorder for SpanRecorder {
    fn record(&self, event: &Event) {
        let at = self.origin.elapsed();
        let thread = thread_index();
        if self.keep == Keep::Marks && !is_mark(event) {
            if SearchTally::folds(event) {
                self.tally.lock().expect("tally lock").fold(at, thread, event);
            }
            return;
        }
        self.events.lock().expect("span recorder lock").push(Received {
            at,
            thread,
            event: event.clone(),
        });
    }
}

/// One finished CLITE search, as its events describe it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSummary {
    /// Host time from the search's first event to its `Terminated`.
    pub host: Duration,
    /// Observation windows the search sampled.
    pub windows: usize,
    /// Windows until every LC job first met QoS (all of them if never).
    pub to_qos: usize,
    /// Whether the search ended on a QoS-meeting partition.
    pub qos_met: bool,
    /// Whether it started cold: no stored samples warmed it.
    pub cold: bool,
}

#[derive(Debug)]
struct OpenSearch {
    start: Duration,
    violated: std::collections::BTreeSet<usize>,
    warm: bool,
}

/// Folds search events, per emitting thread, into [`SearchSummary`]s.
/// A search opens at its first event and closes at `Terminated`; one cut
/// short by a node crash is dropped.
#[derive(Debug, Default)]
pub struct SearchTally {
    open: BTreeMap<u32, OpenSearch>,
    /// Searches closed so far, in closing order.
    pub done: Vec<SearchSummary>,
}

impl SearchTally {
    /// Whether `fold` reads this event.
    #[must_use]
    pub fn folds(event: &Event) -> bool {
        matches!(
            event,
            Event::StoreHit { .. }
                | Event::StoreMiss { .. }
                | Event::WarmStarted { .. }
                | Event::BootstrapSample { .. }
                | Event::QosViolation { .. }
                | Event::PhaseTiming { .. }
                | Event::Terminated { .. }
                | Event::FaultInjected { .. }
        )
    }

    /// Folds one event received at `at` from `thread`.
    pub fn fold(&mut self, at: Duration, thread: u32, event: &Event) {
        let start = match event {
            Event::PhaseTiming { phase: Phase::ParDispatch, .. } => return,
            Event::PhaseTiming { nanos, .. } => at.saturating_sub(Duration::from_nanos(*nanos)),
            Event::FaultInjected { fault, .. } if fault == "node_crashed" => {
                self.open.remove(&thread);
                return;
            }
            Event::Terminated { reason, samples, best_score } => {
                if let Some(open) = self.open.remove(&thread) {
                    let first_met = (0..*samples).find(|i| !open.violated.contains(i));
                    self.done.push(SearchSummary {
                        host: at.saturating_sub(open.start),
                        windows: *samples,
                        to_qos: first_met.map_or(*samples, |i| i + 1),
                        qos_met: *best_score >= 0.5
                            && *reason != clite_telemetry::StopReason::Infeasible,
                        cold: !open.warm,
                    });
                }
                return;
            }
            _ if Self::folds(event) => at,
            _ => return,
        };
        let open = self.open.entry(thread).or_insert_with(|| OpenSearch {
            start,
            violated: Default::default(),
            warm: false,
        });
        match event {
            Event::QosViolation { sample, .. } => {
                open.violated.insert(*sample);
            }
            Event::WarmStarted { .. } => open.warm = true,
            _ => {}
        }
    }
}

/// One benchmark call into the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Start, on the recorder's clock.
    pub start: Duration,
    /// End, on the recorder's clock.
    pub end: Duration,
    /// Trace index of the fleet event (or search index).
    pub seq: u64,
    /// Thread the call ran on.
    pub thread: u32,
    /// Whether the call is a job arrival.
    pub arrival: bool,
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The benchmark's call.
    Call,
    /// One CLITE search (a node probe or re-partition).
    Search,
    /// One profiled search phase.
    Phase(Phase),
    /// Candidate ranking before an admission.
    Rank,
    /// A write-ahead journal append.
    Journal,
    /// A fleet checkpoint write.
    Checkpoint,
}

impl Kind {
    /// The program layer the span's self time belongs to.
    #[must_use]
    pub fn layer(self, call_layer: &'static str) -> &'static str {
        match self {
            Kind::Call => call_layer,
            Kind::Search | Kind::Phase(Phase::Score) => "clite",
            Kind::Phase(Phase::GpFit | Phase::GpExtend) => "clite-gp",
            Kind::Phase(Phase::Acquisition) => "clite-bo",
            Kind::Phase(Phase::Observe) => "clite-sim",
            Kind::Phase(Phase::ParDispatch) => "clite-par",
            Kind::Phase(Phase::LoadGen | Phase::LoadReport) => "clite-load",
            Kind::Rank => "clite-learn",
            Kind::Journal | Kind::Checkpoint => "clite-store",
        }
    }

    /// Stable name for the span dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::Search => "search",
            Kind::Phase(p) => p.name(),
            Kind::Rank => "rank",
            Kind::Journal => "journal_append",
            Kind::Checkpoint => "checkpoint_write",
        }
    }
}

/// One span of the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Emitting thread.
    pub thread: u32,
    /// Start on the recorder's clock.
    pub start: Duration,
    /// End on the recorder's clock.
    pub end: Duration,
    /// Parent span index (`None` for calls).
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The length of the union of `intervals` clipped to `[lo, hi]`.
#[must_use]
pub fn covered(lo: Duration, hi: Duration, intervals: &mut [(Duration, Duration)]) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part its children
/// cover. Children may run in parallel on other threads; their union is
/// what counts.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration().saturating_sub(covered(span.start, span.end, kids)))
        .collect()
}

/// Builds the span tree of a round from its calls and the events
/// received during them. Events outside every call are not parented and
/// are returned as the second value's count.
#[must_use]
pub fn build(calls: &[Call], events: &[Received]) -> (Vec<Span>, usize) {
    let mut spans = Vec::new();
    let mut unparented = 0;
    let mut next = 0;
    for call in calls {
        // Calls are sequential, events sorted: skip those before the call.
        while next < events.len() && events[next].at < call.start {
            unparented += 1;
            next += 1;
        }
        let first = next;
        while next < events.len() && events[next].at <= call.end {
            next += 1;
        }
        build_call(call, &events[first..next], &mut spans);
    }
    unparented += events.len() - next;
    (spans, unparented)
}

fn build_call(call: &Call, events: &[Received], spans: &mut Vec<Span>) {
    let root = spans.len();
    spans.push(Span {
        kind: Kind::Call,
        thread: call.thread,
        start: call.start,
        end: call.end,
        parent: None,
    });
    let mut last: BTreeMap<u32, Duration> = BTreeMap::new();
    let mut open: BTreeMap<u32, usize> = BTreeMap::new();
    let mut searches = Vec::new();
    let mut dispatches = Vec::new();
    for r in events {
        let th = r.thread;
        let previous = last.get(&th).copied().unwrap_or(call.start);
        let mut open_search = |start: Duration, spans: &mut Vec<Span>| -> usize {
            *open.entry(th).or_insert_with(|| {
                spans.push(Span {
                    kind: Kind::Search,
                    thread: th,
                    start,
                    end: start,
                    parent: Some(root),
                });
                searches.push(spans.len() - 1);
                spans.len() - 1
            })
        };
        match &r.event {
            Event::PhaseTiming { phase, nanos } => {
                let start = r.at.saturating_sub(Duration::from_nanos(*nanos)).max(call.start);
                let parent = if *phase == Phase::ParDispatch {
                    dispatches.push(spans.len());
                    root
                } else {
                    open_search(start, spans)
                };
                spans.push(Span {
                    kind: Kind::Phase(*phase),
                    thread: th,
                    start,
                    end: r.at,
                    parent: Some(parent),
                });
            }
            Event::StoreHit { .. } | Event::StoreMiss { .. } | Event::WarmStarted { .. } => {
                open_search(r.at, spans);
            }
            Event::Terminated { .. } => {
                if let Some(s) = open.remove(&th) {
                    spans[s].end = r.at;
                }
            }
            Event::FaultInjected { fault, .. } if fault == "node_crashed" => {
                if let Some(s) = open.remove(&th) {
                    spans[s].end = r.at;
                }
            }
            Event::PlacementScored { .. } => {
                spans.push(point_span(Kind::Rank, th, previous, r.at, root));
            }
            Event::JournalAppended { .. } => {
                spans.push(point_span(Kind::Journal, th, previous, r.at, root));
            }
            Event::CheckpointWritten { .. } => {
                spans.push(point_span(Kind::Checkpoint, th, previous, r.at, root));
            }
            _ => {}
        }
        last.insert(th, r.at);
    }
    // A search cut short without a closing event ends at its thread's
    // last receipt.
    for (th, s) in open {
        spans[s].end = last.get(&th).copied().unwrap_or(spans[s].start);
    }
    // Searches that ran inside a pool dispatch belong to it.
    for s in searches {
        if let Some(&d) = dispatches
            .iter()
            .find(|&&d| spans[d].start <= spans[s].start && spans[s].end <= spans[d].end)
        {
            spans[s].parent = Some(d);
        }
    }
}

fn point_span(kind: Kind, thread: u32, start: Duration, end: Duration, root: usize) -> Span {
    Span { kind, thread, start, end, parent: Some(root) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(kind: Kind, thread: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { kind, thread, start: ms(start), end: ms(end), parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // call [0,100] ⊃ rank [0,10], dispatch [10,90] ⊃ two parallel
        // searches [12,80] and [15,88]; search 1 ⊃ acquisition [20,60]
        // and observe [50,70] (overlapping, union 20..70).
        let spans = vec![
            span(Kind::Call, 0, 0, 100, None),
            span(Kind::Rank, 0, 0, 10, Some(0)),
            span(Kind::Phase(Phase::ParDispatch), 0, 10, 90, Some(0)),
            span(Kind::Search, 0, 12, 80, Some(2)),
            span(Kind::Search, 1, 15, 88, Some(2)),
            span(Kind::Phase(Phase::Acquisition), 0, 20, 60, Some(3)),
            span(Kind::Phase(Phase::Observe), 0, 50, 70, Some(3)),
        ];
        let got: Vec<u64> = self_times(&spans).iter().map(|d| d.as_millis() as u64).collect();
        // call: 100 - (rank 10 + dispatch 80) = 10
        // dispatch: 80 - union(12..88) = 4
        // search 1: 68 - union(20..70) = 18; search 2 has no children.
        assert_eq!(got, vec![10, 10, 4, 18, 73, 40, 20]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(Kind::Call, 0, 10, 20, None), span(Kind::Search, 0, 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], ms(5));
    }

    fn received(at: u64, thread: u32, event: Event) -> Received {
        Received { at: ms(at), thread, event }
    }

    #[test]
    fn events_become_spans_under_the_call_in_flight() {
        let calls = [
            Call { start: ms(0), end: ms(50), seq: 0, thread: 0, arrival: true },
            Call { start: ms(60), end: ms(70), seq: 1, thread: 0, arrival: true },
        ];
        let phase =
            |phase, nanos_ms: u64| Event::PhaseTiming { phase, nanos: nanos_ms * 1_000_000 };
        let terminated = Event::Terminated {
            reason: clite_telemetry::StopReason::EiConverged,
            samples: 3,
            best_score: 0.7,
        };
        let events = vec![
            received(2, 0, Event::JournalAppended { seqno: 0, bytes: 8 }),
            received(
                5,
                0,
                Event::PlacementScored { job: "x".into(), candidates: 4, best_score: 0.0 },
            ),
            // Worker thread 1 runs a search inside the dispatch [6,40].
            received(8, 1, Event::StoreMiss { mixes: 0 }),
            received(20, 1, phase(Phase::Observe, 10)),
            received(30, 1, terminated.clone()),
            received(40, 0, phase(Phase::ParDispatch, 34)),
            received(48, 0, Event::CheckpointWritten { seqno: 1, bytes: 64 }),
            received(55, 0, Event::JobArrived { job: 9, workload: "x".into() }),
        ];
        let (spans, unparented) = build(&calls, &events);
        assert_eq!(unparented, 1, "the event between the calls has no parent");
        let kinds: Vec<Kind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Kind::Call,
                Kind::Journal,
                Kind::Rank,
                Kind::Search,
                Kind::Phase(Phase::Observe),
                Kind::Phase(Phase::ParDispatch),
                Kind::Checkpoint,
                Kind::Call,
            ]
        );
        assert_eq!((spans[1].start, spans[1].end), (ms(0), ms(2)), "journal from call start");
        assert_eq!((spans[2].start, spans[2].end), (ms(2), ms(5)), "rank from previous event");
        assert_eq!((spans[3].start, spans[3].end), (ms(8), ms(30)));
        assert_eq!(spans[3].parent, Some(5), "search parented under the dispatch");
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!((spans[6].start, spans[6].end), (ms(40), ms(48)));
        let selfs = self_times(&spans);
        // call 0: 50 - union(0..2, 2..5, 6..40, 40..48) = 50 - 47 = 3
        assert_eq!(selfs[0], ms(3));
        // search: 22 - observe 10 = 12
        assert_eq!(selfs[3], ms(12));
    }
}
