//! The thread-backend stack every unit workload drives as one system: a
//! durable broker, a compacted projection topic behind a `BrokerSink`, the
//! thread backend with one pilot, a 2-shard `ShardedMaterializer` folding
//! the topic, and one delta subscription on its merged query service.

use crate::report::Outcome;
use crate::trace::{now_ns, BindRec, Span, Stamp, Stamps, TimedScheduler, TimedSink, Tracer};
use pilot_core::describe::{PilotDescription, UnitDescription};
use pilot_core::events::{EventSink, ProjEvent};
use pilot_core::ids::UnitId;
use pilot_core::scheduler::{FirstFitScheduler, Scheduler};
use pilot_core::state::UnitState;
use pilot_core::thread::{ServiceReport, ThreadPilotService, WorkKernel};
use pilot_query::{
    BrokerSink, DeltaBatch, DeltaSubscription, Materializer, ShardedMaterializer,
    ShardedQueryService,
};
use pilot_sim::SimDuration;
use pilot_streaming::{Broker, FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Projection topic name.
pub const PROJ_TOPIC: &str = "proj.events";
/// Projection topic partitions.
pub const PROJ_PARTITIONS: usize = 4;
/// Fold shards.
pub const FOLD_SHARDS: usize = 2;
/// Events applied between snapshot publications (the materializer's
/// default, set explicitly so the traced fold driver can mirror it).
pub const PUBLISH_EVERY: u64 = 64;
/// Staleness samples each shard keeps in a traced run.
const STALENESS_CAP: usize = 1 << 20;

/// What a traced run hands the stack so it can decorate the program.
#[derive(Clone)]
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    pub stamps: Arc<Stamps>,
    pub bind: Arc<BindRec>,
}

impl TraceCtx {
    /// A fresh context for unit ids below `cap`.
    pub fn new(cap: usize) -> TraceCtx {
        let tracer = Tracer::new();
        let stamps = Stamps::new(cap);
        let bind = BindRec::new(
            Some(Arc::clone(&tracer)),
            Some(Arc::clone(&stamps)),
            None,
            false,
        );
        TraceCtx {
            tracer,
            stamps,
            bind,
        }
    }
}

/// A fresh WAL directory inside the working directory (the checkout):
/// `.perfbench/wal-<pid>-<n>`.
pub fn scratch_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    Path::new(".perfbench").join(format!("{label}-{}-{n}", std::process::id()))
}

/// Open a durable broker (fsync off) in a fresh scratch directory.
pub fn open_broker(dir: &Path) -> Result<Arc<Broker>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = WalConfig::new(dir).with_fsync(FsyncPolicy::Never);
    Broker::open(cfg)
        .map(Arc::new)
        .map_err(|e| format!("broker open: {e:?}"))
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Workload-specific set-up on the fresh broker.
pub type SetupHook<'a> = &'a dyn Fn(&Broker) -> Result<(), String>;

/// No workload-specific set-up.
pub fn no_extra(_: &Broker) -> Result<(), String> {
    Ok(())
}

/// The running stack.
pub struct Stack {
    pub dir: PathBuf,
    pub broker: Arc<Broker>,
    pub sink: Arc<BrokerSink>,
    svc: Option<ThreadPilotService>,
    pub qs: ShardedQueryService,
    pub sub: DeltaSubscription,
    stop: Arc<AtomicBool>,
    fold: Option<JoinHandle<ShardedMaterializer>>,
    /// Bench-clock ns minus broker-clock ns.
    offset_ns: f64,
    /// How far a broker instant mapped onto the bench clock may be off:
    /// the offset's measurement error plus rounding.
    pub clock_tolerance_ns: u64,
    /// Seconds the set-up took.
    pub setup_s: f64,
}

impl Stack {
    /// Set up the whole stack and wait until it can serve: broker open,
    /// topic creation, service start, pilot `Active`, fold bootstrap and
    /// subscription attached. The span of this call is `setup_s`.
    /// `extra` runs inside the timed set-up, right after the broker opens
    /// (a workload's own topics and consumer groups). `suppress_done` is a
    /// self-test fault: the sink drops the first `Done` event it sees.
    pub fn new(
        pilot_cores: u32,
        trace: Option<&TraceCtx>,
        extra: SetupHook,
        suppress_done: bool,
    ) -> Result<Stack, String> {
        let t0 = now_ns();
        let dir = scratch_dir("wal");
        let broker = open_broker(&dir)?;
        extra(&broker)?;
        let sink = BrokerSink::create_compacted(Arc::clone(&broker), PROJ_TOPIC, PROJ_PARTITIONS)
            .map_err(|e| format!("projection topic: {e:?}"))?;
        let plain: Arc<dyn EventSink> = if suppress_done {
            Arc::new(DropFirstDone {
                inner: Arc::clone(&sink),
                dropped: AtomicBool::new(false),
            })
        } else {
            sink.clone()
        };
        let (scheduler, event_sink): (Box<dyn Scheduler>, Arc<dyn EventSink>) = match trace {
            Some(t) => (
                Box::new(TimedScheduler {
                    inner: Box::new(FirstFitScheduler),
                    rec: Arc::clone(&t.bind),
                }),
                Arc::new(TimedSink {
                    inner: plain,
                    tracer: Arc::clone(&t.tracer),
                    stamps: Arc::clone(&t.stamps),
                }),
            ),
            None => (Box::new(FirstFitScheduler), plain),
        };
        let svc = ThreadPilotService::with_sink(scheduler, event_sink);
        let pilot = svc.submit_pilot(PilotDescription::new(pilot_cores.max(1), SimDuration::MAX));
        if !svc.wait_pilot_active(pilot) {
            return Err("pilot never became active".into());
        }
        let mut mat = ShardedMaterializer::bootstrap(Arc::clone(&broker), PROJ_TOPIC, FOLD_SHARDS)
            .map_err(|e| format!("fold bootstrap: {e:?}"))?;
        mat.set_publish_every(PUBLISH_EVERY);
        if trace.is_some() {
            mat.set_staleness_capacity(STALENESS_CAP);
        }
        let qs = mat.service();
        let stop = Arc::new(AtomicBool::new(false));
        let fold = {
            let stop = Arc::clone(&stop);
            let broker = Arc::clone(&broker);
            let tracer = trace.map(|t| Arc::clone(&t.tracer));
            std::thread::Builder::new()
                .name("bench-fold".into())
                .spawn(move || {
                    match tracer {
                        Some(t) => traced_fold(&mut mat, &broker, &stop, &t),
                        None => mat.run_until_stopped(&stop),
                    }
                    mat
                })
                .map_err(|e| format!("spawn fold: {e}"))?
        };
        let sub = qs.subscribe();
        let (offset_ns, offset_err_ns) = clock_offset(&broker);
        let setup_s = (now_ns() - t0) as f64 * 1e-9;
        Ok(Stack {
            dir,
            broker,
            sink,
            svc: Some(svc),
            qs,
            sub,
            stop,
            fold: Some(fold),
            offset_ns,
            clock_tolerance_ns: offset_err_ns + ROUNDING_NS,
            setup_s,
        })
    }

    pub fn svc(&self) -> Result<&ThreadPilotService, String> {
        self.svc
            .as_ref()
            .ok_or_else(|| "service already shut down".to_string())
    }

    /// Map a broker-timebase instant (s) onto the bench clock (ns).
    fn bench_ns(&self, broker_s: f64) -> u64 {
        (broker_s * 1e9 + self.offset_ns).max(0.0) as u64
    }

    /// Submit a unit; returns its id and the bench-clock instant of the
    /// call. A traced run spans the call and stamps the unit.
    pub fn submit(
        &self,
        desc: UnitDescription,
        kernel: Arc<dyn WorkKernel>,
        trace: Option<&TraceCtx>,
    ) -> Result<(UnitId, u64), String> {
        let t0 = now_ns();
        let id = self.svc()?.submit_unit(desc, kernel);
        if let Some(t) = trace {
            let t1 = t.tracer.close("service.submit", t0, id.0, 0);
            t.stamps.set(id, Stamp::SubmitCall, t0);
            t.stamps.set(id, Stamp::SubmitRet, t1);
        }
        Ok((id, t0))
    }

    /// A traced run's record of a delivered delta batch (`query.delta`,
    /// from the fold's publish to delivery at `t`).
    pub fn note_delta(&self, trace: Option<&TraceCtx>, batch: &DeltaBatch, t: u64) {
        if let Some(tc) = trace {
            tc.tracer.record(Span {
                name: "query.delta",
                start: self.bench_ns(batch.emitted_s).min(t),
                end: t,
                id: batch.shard as u64,
                arg: batch.len() as u64,
                parent: None,
            });
        }
    }

    /// A traced run's stamps for unit `id`'s `Done` row, delivered at `t`.
    pub fn note_visible(&self, trace: Option<&TraceCtx>, id: UnitId, batch: &DeltaBatch, t: u64) {
        if let Some(tc) = trace {
            tc.stamps
                .set(id, Stamp::Emitted, self.bench_ns(batch.emitted_s));
            tc.stamps.set(id, Stamp::Delivered, t);
        }
    }

    /// Shut the service down, then stop and drain the fold.
    pub fn shutdown(&mut self) -> Result<(ServiceReport, ShardedMaterializer), String> {
        let report = self
            .svc
            .take()
            .ok_or("service already shut down")?
            .shutdown();
        self.stop.store(true, Ordering::Release);
        self.broker.wake_all();
        let mat = self
            .fold
            .take()
            .ok_or("fold already stopped")?
            .join()
            .map_err(|_| "fold thread panicked".to_string())?;
        Ok((report, mat))
    }

    /// Set up and tear down `n` times; returns each set-up time.
    pub fn setup_samples(n: usize, pilot_cores: u32, extra: SetupHook) -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let mut s = Stack::new(pilot_cores, None, extra, false)?;
                s.shutdown()?;
                Ok(s.setup_s)
            })
            .collect()
    }
}

/// Rounding of a broker instant (f64 seconds) mapped onto the bench
/// clock's integer nanoseconds.
const ROUNDING_NS: u64 = 2;

/// The broker clock's offset from the bench clock (ns), from the narrowest
/// of a few bench-broker-bench read brackets, and the offset's largest
/// error: half that bracket.
fn clock_offset(broker: &Broker) -> (f64, u64) {
    (0..8)
        .map(|_| {
            let a = now_ns();
            let b = broker.now_s();
            let c = now_ns();
            ((a + c) as f64 / 2.0 - b * 1e9, (c - a).div_ceil(2))
        })
        .min_by_key(|&(_, err)| err)
        .unwrap_or((0.0, 0))
}

impl Drop for Stack {
    fn drop(&mut self) {
        if self.fold.is_some() {
            let _ = self.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Self-test fault: forwards every event except the first unit `Done`.
struct DropFirstDone {
    inner: Arc<BrokerSink>,
    dropped: AtomicBool,
}

impl EventSink for DropFirstDone {
    fn emit_batch(&self, events: &[ProjEvent]) {
        let is_done = |e: &ProjEvent| {
            matches!(
                e,
                ProjEvent::Unit {
                    state: UnitState::Done,
                    ..
                }
            )
        };
        match events.iter().position(is_done) {
            Some(i) if !self.dropped.swap(true, Ordering::Relaxed) => {
                let kept: Vec<ProjEvent> = events
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, e)| *e)
                    .collect();
                self.inner.emit_batch(&kept);
            }
            _ => self.inner.emit_batch(events),
        }
    }
}

/// The fold of a traced run: the same loop as `run_until_stopped`, with
/// every shard's `poll_apply` and explicit publish timed.
fn traced_fold(mat: &mut ShardedMaterializer, broker: &Broker, stop: &AtomicBool, t: &Tracer) {
    std::thread::scope(|scope| {
        for m in mat.shards_mut() {
            scope.spawn(move || {
                let shard = m.shard() as u64;
                // Events applied since the last publication, mirroring the
                // materializer's own count (it publishes every PUBLISH_EVERY).
                let mut pending = 0u64;
                loop {
                    let seen = broker.data_seq();
                    let t0 = now_ns();
                    match m.poll_apply(512) {
                        Ok(0) => {
                            t.close("fold.poll_apply", t0, shard, 0);
                            if pending > 0 {
                                let tp = now_ns();
                                m.publish();
                                t.close("fold.publish", tp, shard, 0);
                                pending = 0;
                            }
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            broker.wait_for_data(seen, Duration::from_millis(5));
                        }
                        Ok(n) => {
                            t.close("fold.poll_apply", t0, shard, n as u64);
                            pending = (pending + n as u64) % PUBLISH_EVERY;
                        }
                        Err(_) => break,
                    }
                }
                let tc = now_ns();
                let _ = m.catch_up();
                t.close("fold.catch_up", tc, shard, 0);
            });
        }
    });
}

/// Data digest of one unsharded `Materializer` folding the whole
/// projection topic: the reference the sharded fold must equal. It
/// publishes once, at the end; the digest reads the working tables.
pub fn single_fold_digest(broker: &Arc<Broker>) -> Result<u64, pilot_streaming::BrokerError> {
    let mut m = Materializer::bootstrap(Arc::clone(broker), PROJ_TOPIC)?;
    m.set_publish_every(u64::MAX);
    m.catch_up()?;
    Ok(m.tables().data_digest())
}

/// A digest as hex, or the error that kept it from being computed.
pub fn hex_or_error(d: &Result<u64, pilot_streaming::BrokerError>) -> String {
    match d {
        Ok(d) => format!("{d:#x}"),
        Err(e) => format!("error {e:?}"),
    }
}

/// Read-plane output checks after a drain: the merged dashboard counts
/// `expect_done` units `Done`, nothing was dropped or lost, and the merged
/// shard digest equals a single `Materializer` fold of the same topic.
pub fn read_plane_checks(
    out: &mut Outcome,
    stack: &Stack,
    mat: &ShardedMaterializer,
    expect_done: u64,
) {
    let dash = stack.qs.dashboard();
    let done = dash.units_in(UnitState::Done);
    out.check(
        "dashboard_done",
        done == expect_done,
        format!("merged dashboard Done = {done}, expected {expect_done}"),
    );
    let dropped = stack.sink.dropped();
    let lost = mat.events_lost();
    out.check(
        "no_drops",
        dropped == 0 && lost == 0,
        format!("sink dropped {dropped}, fold lost {lost}"),
    );
    let merged = stack.qs.merged().data_digest();
    let single = single_fold_digest(&stack.broker);
    out.check(
        "sharded_digest",
        single.as_ref().is_ok_and(|&d| d == merged),
        format!(
            "merged {merged:#x} vs single fold {}",
            hex_or_error(&single)
        ),
    );
}

/// Record the projection-side numbers every unit workload reports.
pub fn read_plane_layer_metrics(out: &mut Outcome, stack: &Stack, spans: &[Span]) {
    let retained: u64 = stack
        .broker
        .retained_counts(PROJ_TOPIC, &[0; PROJ_PARTITIONS])
        .map(|v| v.iter().sum())
        .unwrap_or(0);
    out.set("broker.proj_retained", retained as f64);
    out.set("sink.dropped", stack.sink.dropped() as f64);
    let staleness_ms = |q| {
        stack
            .qs
            .staleness(q)
            .filter(|s| s.is_finite())
            .unwrap_or(0.0)
            * 1e3
    };
    out.set("fold.staleness_ms_p50", staleness_ms(0.5));
    out.set("fold.staleness_ms_p99", staleness_ms(0.99));
    let publishes = stack.qs.version();
    out.set("fold.publishes", publishes as f64);
    crate::layers::fold_metrics(out, spans);
    let events = out.values.get("fold.events").copied().unwrap_or(0.0);
    out.set("fold.events_per_publish", events / publishes.max(1) as f64);
    crate::layers::sink_metrics(out, spans);
}

/// Fold lag: high watermarks minus the published token offsets.
pub fn fold_lag(stack: &Stack) -> u64 {
    let Ok(hw) = stack.broker.high_watermarks(PROJ_TOPIC) else {
        return 0;
    };
    let mut pos = vec![0u64; hw.len()];
    for (s, tok) in stack.qs.tokens().iter().enumerate() {
        for &p in stack.qs.plan().owned(s).iter() {
            if let (Some(slot), Some(&o)) = (pos.get_mut(p), tok.offsets.get(p)) {
                *slot = o;
            }
        }
    }
    hw.iter().zip(&pos).map(|(h, o)| h.saturating_sub(*o)).sum()
}
