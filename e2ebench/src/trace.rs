//! Tracing from outside the program: a bench clock, in-memory spans, the
//! per-unit stamp table, and timing decorators over the public traits
//! `Scheduler`, `WorkKernel` and `EventSink`.
//!
//! Nothing here reaches into the program: every span is taken around a
//! public call or inside a decorator the program calls through its trait.

use pilot_core::events::{EventSink, ProjEvent};
use pilot_core::ids::{PilotId, UnitId};
use pilot_core::scheduler::{PilotSnapshot, Scheduler, UnitRequest};
use pilot_core::state::UnitState;
use pilot_core::thread::{TaskCtx, TaskError, TaskOutput, WorkKernel};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the bench clock's epoch (first call in the process).
pub fn now_ns() -> u64 {
    // lint: allow(wall-clock, reason = "the benchmark's clock: the timing decorators stamp spans with it, and no stamp feeds a placement or any other decision of the program")
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds since the bench clock's epoch.
pub fn now_s() -> f64 {
    now_ns() as f64 * 1e-9
}

/// Lock a recorder's state. A panic elsewhere cannot leave it invalid —
/// every update is one push or one counter bump — so a poisoned lock is
/// recovered instead of failing the run.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One traced interval. `id` is the unit, frame, shard or pass the span
/// belongs to; `arg` carries a per-span count (events in a batch, rows in
/// a delta, 1 when a select bound the unit); `parent` names the parent
/// span by `(name, id)`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub id: u64,
    pub arg: u64,
    pub parent: Option<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store, shared by every thread of a traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    pub fn record(&self, span: Span) {
        lock(&self.spans).push(span);
    }

    /// Record `name` over `[start, now]` and return `now`.
    pub fn close(&self, name: &'static str, start: u64, id: u64, arg: u64) -> u64 {
        let end = now_ns();
        self.record(Span {
            name,
            start,
            end,
            id,
            arg,
            parent: None,
        });
        end
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }
}

/// Spans of one name.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name).map(|s| s.dur_ns() as f64).collect()
}

/// Self time per layer, in ns: for every span, its duration minus the part
/// of it covered by its child spans, summed by layer (the name's prefix
/// before the first `.`).
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut index: HashMap<(&'static str, u64), usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.entry((s.name, s.id)).or_insert(i);
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|k| index.get(&k)) {
            children[*p].push((s.start, s.end));
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(s.start, s.end, kids);
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Write spans as CSV (`name,start_ns,end_ns,id,arg,parent_name,parent_id`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,start_ns,end_ns,id,arg,parent_name,parent_id")?;
    for s in spans {
        let (pn, pid) = s.parent.map_or(("", 0), |(n, i)| (n, i));
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            s.name, s.start, s.end, s.id, s.arg, pn, pid
        )?;
    }
    w.flush()
}

/// Boundaries of one unit's path, in order. The ledger partitions
/// submit → visible at these stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// `submit_unit` called.
    SubmitCall = 0,
    /// `submit_unit` returned.
    SubmitRet,
    /// The wrapped `Scheduler::select` returned a pilot for the unit.
    Select,
    /// The wrapped kernel was entered on an agent worker.
    KernelStart,
    /// The wrapped kernel returned.
    KernelEnd,
    /// The wrapped sink received the unit's `Done` event.
    SinkRecv,
    /// The sink call carrying that event returned.
    SinkRet,
    /// The fold published the delta batch carrying the `Done` row.
    Emitted,
    /// The subscriber received that batch.
    Delivered,
}

/// Number of stamps per unit.
pub const STAMPS: usize = 9;

/// Ledger segment names: segment `i` runs from stamp `i` to stamp `i + 1`.
pub const SEGMENTS: [&str; STAMPS - 1] = [
    "submit", "queue", "dispatch", "kernel", "report", "sink", "fold", "query",
];

/// Per-unit stamps, indexed by unit id; first write wins, 0 means unset.
pub struct Stamps {
    slots: Vec<[AtomicU64; STAMPS]>,
}

impl Stamps {
    /// A table for unit ids below `cap`.
    pub fn new(cap: usize) -> Arc<Stamps> {
        Arc::new(Stamps {
            slots: (0..cap)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        })
    }

    pub fn set(&self, unit: UnitId, which: Stamp, t: u64) {
        let i = unit.0 as usize;
        if i < self.slots.len() {
            let _ = self.slots[i][which as usize].compare_exchange(
                0,
                t,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    pub fn get(&self, unit: UnitId) -> Option<[u64; STAMPS]> {
        let i = unit.0 as usize;
        (i < self.slots.len())
            .then(|| std::array::from_fn(|k| self.slots[i][k].load(Ordering::Relaxed)))
    }
}

/// Stamp pairs `(a, b)` where `a` precedes `b` causally: both are taken on
/// one thread in program order, or `b` is taken only after the effect of
/// something stamped at `a` has been seen. The other neighbours race: the
/// manager can select a unit before `submit_unit` returns to the generator,
/// and the fold can publish before the sink call that fed it returns.
pub const CAUSAL: [(Stamp, Stamp); 9] = [
    (Stamp::SubmitCall, Stamp::SubmitRet),
    (Stamp::SubmitCall, Stamp::Select),
    (Stamp::SubmitRet, Stamp::Delivered),
    (Stamp::Select, Stamp::KernelStart),
    (Stamp::KernelStart, Stamp::KernelEnd),
    (Stamp::KernelEnd, Stamp::SinkRecv),
    (Stamp::SinkRecv, Stamp::SinkRet),
    (Stamp::SinkRecv, Stamp::Emitted),
    (Stamp::Emitted, Stamp::Delivered),
];

/// Per-unit ledger: segment durations (ns) that partition submit → visible.
///
/// A ledger closes only if the raw stamps respect every [`CAUSAL`] order
/// within `tolerance_ns`; a stamp taken at the wrong place, or a broker
/// instant mapped onto the bench clock with the wrong offset, breaks one.
/// Racing neighbours may be out of order: the later boundary is clamped to
/// the earlier one so every segment is non-negative and the segments sum
/// to the total, and `inversions` counts such clamps.
pub struct Ledger {
    pub segments: [u64; STAMPS - 1],
    pub total: u64,
    /// Causal pairs out of order by more than the tolerance, and the
    /// largest such distance (ns).
    pub violations: u32,
    pub max_violation_ns: u64,
    /// Boundaries clamped, and the largest distance one was moved (ns).
    pub inversions: u32,
    pub max_shift_ns: u64,
}

impl Ledger {
    /// `None` when a stamp is missing.
    pub fn from_stamps(b: &[u64; STAMPS], tolerance_ns: u64) -> Option<Ledger> {
        if b.contains(&0) {
            return None;
        }
        let mut violations = 0;
        let mut max_violation_ns = 0;
        for (a, z) in CAUSAL {
            let late = b[a as usize].saturating_sub(b[z as usize]);
            if late > tolerance_ns {
                violations += 1;
                max_violation_ns = max_violation_ns.max(late);
            }
        }
        let (first, last) = (b[0], b[STAMPS - 1]);
        let mut segments = [0u64; STAMPS - 1];
        let mut prev = first;
        let mut inversions = 0;
        let mut max_shift_ns = 0;
        for i in 1..STAMPS {
            let t = b[i].clamp(prev, last.max(prev));
            if t != b[i] {
                inversions += 1;
                max_shift_ns = u64::max(max_shift_ns, t.abs_diff(b[i]));
            }
            segments[i - 1] = t - prev;
            prev = t;
        }
        Some(Ledger {
            segments,
            total: last.saturating_sub(first),
            violations,
            max_violation_ns,
            inversions,
            max_shift_ns,
        })
    }

    /// Every causal order held, so the segments partition the total.
    pub fn closes(&self) -> bool {
        self.violations == 0
    }
}

/// Binding-layer recorder shared by a [`TimedScheduler`] and the bench.
pub struct BindRec {
    tracer: Option<Arc<Tracer>>,
    stamps: Option<Arc<Stamps>>,
    /// Span parent of every pass (the fabric run), if any.
    pass_parent: Option<(&'static str, u64)>,
    state: Mutex<BindCounts>,
}

/// Late-binding counters as seen through the decorator.
#[derive(Clone, Debug, Default)]
pub struct BindCounts {
    pub passes: u64,
    pub select_calls: u64,
    pub binds: u64,
    /// Time inside `select` (traced runs only).
    pub select_busy_ns: u64,
    /// Open pass: (start, last select end).
    open: Option<(u64, u64)>,
    /// Bench-clock instant of every bind, when kept (fabric tail rate).
    pub bind_times: Option<Vec<u64>>,
}

impl BindRec {
    /// A recorder; `tracer` set means a traced run (pass spans, select
    /// timing and counts; selects are counted, not spanned, as a fabric
    /// run makes millions), `keep_binds` keeps every bind's instant.
    pub fn new(
        tracer: Option<Arc<Tracer>>,
        stamps: Option<Arc<Stamps>>,
        pass_parent: Option<(&'static str, u64)>,
        keep_binds: bool,
    ) -> Arc<BindRec> {
        Arc::new(BindRec {
            tracer,
            stamps,
            pass_parent,
            state: Mutex::new(BindCounts {
                bind_times: keep_binds.then(Vec::new),
                ..BindCounts::default()
            }),
        })
    }

    fn close_pass(&self, st: &mut BindCounts) {
        if let (Some((start, end)), Some(t)) = (st.open.take(), &self.tracer) {
            t.record(Span {
                name: "binding.pass",
                start,
                end,
                id: st.passes,
                arg: 0,
                parent: self.pass_parent,
            });
        }
    }

    /// Close the open pass span and return the counters (with the bind
    /// instants, if kept).
    pub fn finish(&self) -> BindCounts {
        let mut st = lock(&self.state);
        self.close_pass(&mut st);
        let out = st.clone();
        st.bind_times = None;
        out
    }
}

/// Timing decorator over a late-binding [`Scheduler`].
pub struct TimedScheduler {
    pub inner: Box<dyn Scheduler>,
    pub rec: Arc<BindRec>,
}

impl Scheduler for TimedScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        let traced = self.rec.tracer.is_some();
        let t0 = if traced { now_ns() } else { 0 };
        let got = self.inner.select(unit, pilots);
        if !traced && got.is_none() {
            // Untraced runs only keep bind instants: no lock on a refusal.
            return got;
        }
        let t1 = now_ns();
        let mut st = lock(&self.rec.state);
        st.select_calls += 1;
        if traced {
            st.select_busy_ns += t1 - t0;
            if let Some((_, last)) = st.open.as_mut() {
                *last = t1;
            }
        }
        if got.is_some() {
            st.binds += 1;
            if let Some(v) = st.bind_times.as_mut() {
                v.push(t1);
            }
            if let Some(s) = &self.rec.stamps {
                s.set(unit.unit, Stamp::Select, t1);
            }
        }
        got
    }

    fn begin_pass(&mut self) {
        let mut st = lock(&self.rec.state);
        st.passes += 1;
        if self.rec.tracer.is_some() {
            self.rec.close_pass(&mut st);
            let t = now_ns();
            st.open = Some((t, t));
        }
        drop(st);
        self.inner.begin_pass();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Timing decorator over a [`WorkKernel`].
pub struct TimedKernel {
    pub inner: Arc<dyn WorkKernel>,
    pub tracer: Arc<Tracer>,
    pub stamps: Arc<Stamps>,
}

impl WorkKernel for TimedKernel {
    fn run(&self, ctx: &TaskCtx) -> Result<TaskOutput, TaskError> {
        let t0 = now_ns();
        self.stamps.set(ctx.unit, Stamp::KernelStart, t0);
        let r = self.inner.run(ctx);
        let t1 = self.tracer.close("kernel.run", t0, ctx.unit.0, 0);
        self.stamps.set(ctx.unit, Stamp::KernelEnd, t1);
        r
    }
}

/// Timing decorator over the broker-backed [`EventSink`]: the span covers
/// event encoding, the broker append and the WAL write.
pub struct TimedSink {
    pub inner: Arc<dyn EventSink>,
    pub tracer: Arc<Tracer>,
    pub stamps: Arc<Stamps>,
}

fn done_units(events: &[ProjEvent]) -> impl Iterator<Item = UnitId> + '_ {
    events.iter().filter_map(|e| match e {
        ProjEvent::Unit {
            unit,
            state: UnitState::Done,
            ..
        } => Some(*unit),
        _ => None,
    })
}

impl EventSink for TimedSink {
    fn emit_batch(&self, events: &[ProjEvent]) {
        let t0 = now_ns();
        for u in done_units(events) {
            self.stamps.set(u, Stamp::SinkRecv, t0);
        }
        self.inner.emit_batch(events);
        let t1 = self.tracer.close("sink.emit", t0, 0, events.len() as u64);
        for u in done_units(events) {
            self.stamps.set(u, Stamp::SinkRet, t1);
        }
    }
}

/// Peak resident set (VmHWM) and current thread count of this process,
/// from `/proc/self/status`: `(peak_rss_mb, threads)`.
pub fn proc_status() -> (f64, u64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:") as f64 / 1024.0, field("Threads:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u64) -> Span {
        Span {
            name,
            start,
            end,
            id,
            arg: 0,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut kid_a = span("binding.pass", 10, 20, 1);
        kid_a.parent = Some(("fabric.run", 0));
        let mut kid_b = span("binding.pass", 15, 30, 2);
        kid_b.parent = Some(("fabric.run", 0));
        let spans = vec![span("fabric.run", 0, 100, 0), kid_a, kid_b];
        let st = self_time_by_layer(&spans);
        assert_eq!(st["fabric"], 80);
        assert_eq!(st["binding"], 25);
    }

    #[test]
    fn ledger_partitions_the_total_and_clamps_races() {
        // The fold publishes (250) before the sink call returns (260): a
        // race, clamped.
        let b = [100, 110, 130, 160, 200, 210, 260, 250, 300];
        let l = Ledger::from_stamps(&b, 0).expect("complete");
        assert!(l.closes());
        assert_eq!(l.segments.iter().sum::<u64>(), l.total);
        assert_eq!(l.total, 200);
        assert_eq!((l.inversions, l.max_shift_ns), (1, 10));
        assert!(Ledger::from_stamps(&[0; STAMPS], 0).is_none());
    }

    #[test]
    fn ledger_fails_on_a_causal_stamp_out_of_order() {
        // Kernel end (150) before kernel start (160).
        let b = [100, 110, 130, 160, 150, 210, 220, 250, 300];
        let l = Ledger::from_stamps(&b, 0).expect("complete");
        assert!(!l.closes());
        assert_eq!((l.violations, l.max_violation_ns), (1, 10));
        // A publish instant mapped 40 ns too early lands before the sink
        // received the event: beyond a 20 ns tolerance, within a 50 ns one.
        let b = [100, 110, 130, 160, 200, 210, 220, 170, 300];
        assert!(!Ledger::from_stamps(&b, 20).expect("complete").closes());
        assert!(Ledger::from_stamps(&b, 50).expect("complete").closes());
    }
}
