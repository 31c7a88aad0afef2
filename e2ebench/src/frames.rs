//! `stream_frames`: the light-source pipeline on the durable broker.
//! Detector frames (pre-generated from the seed) go into a frames topic in
//! bursts; one long-running processor unit on a 1-core pilot consumes them
//! with `poll_into` / `wait_for_data` / `reconstruct`. Phase 1 offers a
//! fixed rate, open loop, and times each frame from its due send time;
//! phase 2 keeps a bounded backlog and measures the saturated rate. The
//! control plane runs two units in all; the broker and WAL carry bulk
//! payloads and consumer wake-ups.

use crate::report::{p50_p99, tail_rate, Outcome, Samples};
use crate::stack::{
    dir_bytes, read_plane_checks, read_plane_layer_metrics, SetupHook, Stack, TraceCtx,
};
use crate::trace::{lock, now_ns, Span, TimedKernel, Tracer};
use crate::{layers, repeat, traced_rep, Inject, RunArgs, Scale, SETUP_SAMPLES};
use pilot_apps::lightsource::{generate_frame, reconstruct, FrameConfig, Peak};
use pilot_core::describe::UnitDescription;
use pilot_core::ids::UnitId;
use pilot_core::state::UnitState;
use pilot_core::thread::{kernel_fn, TaskOutput, WorkKernel};
use pilot_sim::SimRng;
use pilot_streaming::{Broker, Message};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Frames topic, its partitions, and per-partition retention.
pub const TOPIC: &str = "frames";
pub const PARTITIONS: usize = 4;
pub const RETENTION: usize = 1 << 14;
/// Consumer group and member name of the processor.
const GROUP: &str = "recon";
const CONSUMER: &str = "proc-0";
/// Distinct frames generated from the seed; frame `i` carries pool entry
/// `i % POOL`.
pub const POOL: usize = 256;
/// Frames per producer call.
pub const BURST: usize = 32;
/// Phase 1: offered rate (frames/s), open loop, and frames offered.
pub const OFFERED_RATE: f64 = 500.0;
pub const PHASE1_FRAMES: usize = 1_200;
/// Phase 2: frames, and the most frames produced but not yet reconstructed.
pub const PHASE2_FRAMES: usize = 8_000;
pub const BACKLOG: u64 = 64;
/// Peak-detection threshold and centroid tolerance (pixels).
const THRESHOLD: f32 = 15.0;
const TOLERANCE: f32 = 1.5;
/// Planted peaks closer than this (pixels) merge; the generator redraws.
const MIN_SEPARATION: f32 = 10.0;
/// Poll batch of the processor.
const POLL_MAX: usize = 16;
/// A repetition fails when the processor stops making progress this long.
const STALL: Duration = Duration::from_secs(60);

/// One pre-generated frame: payload bytes and its planted peaks.
pub struct PoolFrame {
    pub bytes: Arc<Vec<u8>>,
    pub planted: Vec<Peak>,
}

/// `POOL` frames from the seed, each with well-separated planted peaks.
pub fn frame_pool(seed: u64, n: usize) -> Vec<PoolFrame> {
    let cfg = FrameConfig::small();
    let mut rng = SimRng::new(seed);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let (frame, planted) = generate_frame(&cfg, rng.next_u64());
        let separated = planted.iter().enumerate().all(|(i, a)| {
            planted[i + 1..]
                .iter()
                .all(|b| ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt() >= MIN_SEPARATION)
        });
        if separated {
            pool.push(PoolFrame {
                bytes: Arc::new(frame.to_bytes()),
                planted,
            });
        }
    }
    pool
}

/// Found peaks equal the planted ones: same count, each planted peak
/// within `TOLERANCE` pixels of a found one.
pub fn peaks_match(found: &[Peak], planted: &[Peak]) -> bool {
    found.len() == planted.len()
        && planted.iter().all(|t| {
            found
                .iter()
                .any(|f| ((f.x - t.x).powi(2) + (f.y - t.y).powi(2)).sqrt() < TOLERANCE)
        })
}

/// What the processor saw of one frame (bench-clock ns).
pub struct FrameRec {
    pub seq: u64,
    pub polled: u64,
    pub done: u64,
    pub peaks: Option<Vec<Peak>>,
}

/// The processor unit's output.
#[derive(Default)]
pub struct ProcLog {
    pub frames: Vec<FrameRec>,
    pub polls: u64,
    pub empty_polls: u64,
}

/// Frames reconstructed so far, with a wake-up for a generator waiting on
/// its backlog bound (so it parks instead of polling the counter).
#[derive(Default)]
struct Progress {
    done: Mutex<u64>,
    cv: Condvar,
}

impl Progress {
    fn advance(&self) {
        *lock(&self.done) += 1;
        self.cv.notify_one();
    }

    /// Block until at most `backlog` of `produced` frames are unfinished;
    /// false if that takes longer than `timeout`.
    fn wait_backlog(&self, produced: u64, backlog: u64, timeout: Duration) -> bool {
        let guard = lock(&self.done);
        let (_guard, res) = self
            .cv
            .wait_timeout_while(guard, timeout, |done| produced - *done > backlog)
            .unwrap_or_else(PoisonError::into_inner);
        !res.timed_out()
    }
}

/// The processor kernel: consume `expect` frames through the group, then
/// return the log. `progress` counts reconstructed frames for the
/// generator's backlog bound.
fn processor(
    broker: Arc<Broker>,
    expect: usize,
    progress: Arc<Progress>,
    tracer: Option<Arc<Tracer>>,
) -> Arc<dyn WorkKernel> {
    kernel_fn(move |ctx| {
        let mut sub = broker
            .subscribe(GROUP, CONSUMER)
            .map_err(|e| pilot_core::thread::TaskError(format!("subscribe: {e:?}")))?;
        let mut buf: Vec<Message> = Vec::with_capacity(POLL_MAX);
        let mut log = ProcLog {
            frames: Vec::with_capacity(expect),
            ..ProcLog::default()
        };
        let parent = Some(("kernel.run", ctx.unit.0));
        while log.frames.len() < expect {
            let seen = broker.data_seq();
            let t0 = now_ns();
            let n = broker
                .poll_into(&mut sub, POLL_MAX, &mut buf)
                .map_err(|e| pilot_core::thread::TaskError(format!("poll: {e:?}")))?;
            let polled = now_ns();
            log.polls += 1;
            if let Some(t) = &tracer {
                t.record(Span {
                    name: "broker.poll",
                    start: t0,
                    end: polled,
                    id: log.polls,
                    arg: n as u64,
                    parent,
                });
            }
            if n == 0 {
                log.empty_polls += 1;
                broker.wait_for_data(seen, Duration::from_millis(5));
                continue;
            }
            for m in &buf {
                let r0 = now_ns();
                let peaks = reconstruct(&m.payload, THRESHOLD);
                let done = now_ns();
                if let Some(t) = &tracer {
                    t.record(Span {
                        name: "kernel.reconstruct",
                        start: r0,
                        end: done,
                        id: m.key.unwrap_or(0),
                        arg: 0,
                        parent,
                    });
                }
                log.frames.push(FrameRec {
                    seq: m.key.unwrap_or(u64::MAX),
                    polled,
                    done,
                    peaks,
                });
                progress.advance();
            }
        }
        Ok(TaskOutput::of(log))
    })
}

/// Create the frames topic and join the processor to its group.
fn frames_setup(broker: &Broker) -> Result<(), String> {
    broker
        .create_topic(TOPIC, PARTITIONS, RETENTION)
        .map_err(|e| format!("frames topic: {e:?}"))?;
    broker
        .join_group(GROUP, TOPIC, CONSUMER)
        .map_err(|e| format!("join group: {e:?}"))
}

/// Per-frame producer-side record (bench-clock ns).
struct Sent {
    due: u64,
    produced: u64,
}

/// Block until unit `id`'s `Done` row is delivered (or the wait times out).
fn await_done(stack: &Stack, id: UnitId, timeout: Duration, trace: Option<&TraceCtx>) -> bool {
    let until = now_ns() + timeout.as_nanos() as u64;
    while now_ns() < until {
        if let Some(b) = stack.sub.next_timeout(Duration::from_millis(20)) {
            let t = now_ns();
            stack.note_delta(trace, &b, t);
            if b.units
                .iter()
                .any(|(u, r)| *u == id.0 && r.state == UnitState::Done)
            {
                stack.note_visible(trace, id, &b, t);
                return true;
            }
        }
    }
    false
}

/// Produce `frames[from..to]` (by sequence number) as one keyed batch.
fn produce(
    broker: &Broker,
    payload: &dyn Fn(usize) -> Arc<Vec<u8>>,
    from: usize,
    to: usize,
    tracer: Option<&Tracer>,
) -> Result<u64, String> {
    let t0 = now_ns();
    broker
        .produce_batch(TOPIC, (from..to).map(|s| (Some(s as u64), payload(s))))
        .map_err(|e| format!("produce: {e:?}"))?;
    let t1 = now_ns();
    if let Some(t) = tracer {
        t.record(Span {
            name: "broker.produce",
            start: t0,
            end: t1,
            id: from as u64,
            arg: (to - from) as u64,
            parent: None,
        });
    }
    Ok(t1)
}

/// Sleep until bench-clock instant `t` (coarse sleep, then spin).
fn sleep_until(t: u64) {
    loop {
        let now = now_ns();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > 300_000 {
            std::thread::sleep(Duration::from_nanos(left - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (n1, n2) = match args.scale {
        Scale::Full => (PHASE1_FRAMES, PHASE2_FRAMES),
        Scale::Smoke => (400, 800),
    };
    let mut out = Outcome::default();
    out.note(format!(
        "workload: stream_frames (frames {}x{} ~16 KB from a pool of {POOL}; phase 1: {n1} frames open loop at {OFFERED_RATE} frames/s in bursts of {BURST}; phase 2: {n2} frames, backlog <= {BACKLOG}; 1-core pilot, topic of {PARTITIONS} partitions)",
        FrameConfig::small().width,
        FrameConfig::small().height
    ));
    let pool = frame_pool(args.seed, POOL);
    // Self-test fault: frame 0 goes out torn (its second half cut off).
    let corrupt = (args.inject == Some(Inject::CorruptFrame)).then(|| {
        let bytes = &pool[0].bytes;
        Arc::new(bytes[..bytes.len() / 2].to_vec())
    });
    let payload = |s: usize| match (&corrupt, s) {
        (Some(c), 0) => Arc::clone(c),
        _ => Arc::clone(&pool[s % POOL].bytes),
    };
    let hook: SetupHook = &frames_setup;
    let mut samples = Samples::new(Stack::setup_samples(SETUP_SAMPLES, 1, hook)?);
    let mut late_ms: Vec<f64> = Vec::new();
    let mut fell_behind = 0u64;
    repeat(args.seconds, 1 + usize::from(args.trace), |rep| {
        let traced = traced_rep(args.trace, rep);
        let tc = traced.then(|| TraceCtx::new(64));
        let tracer = tc.as_ref().map(|t| Arc::clone(&t.tracer));
        let mut stack = Stack::new(1, tc.as_ref(), hook, false)?;
        let progress = Arc::new(Progress::default());
        let unit_kernel = |expect: usize| {
            let k = processor(
                Arc::clone(&stack.broker),
                expect,
                Arc::clone(&progress),
                tracer.clone(),
            );
            match &tc {
                Some(t) => Arc::new(TimedKernel {
                    inner: k,
                    tracer: Arc::clone(&t.tracer),
                    stamps: Arc::clone(&t.stamps),
                }) as Arc<dyn WorkKernel>,
                None => k,
            }
        };
        let desc = UnitDescription::new(1).tagged("reconstruct");
        let mut sent: Vec<Sent> = Vec::with_capacity(n1 + n2);
        let mut backlog_max = 0u64;
        out.attempted += (n1 + n2) as u64;

        // Phase 1: fixed offered rate, open loop, frames due on a schedule.
        let t_begin = now_ns();
        let (a, _) = stack.submit(desc.clone(), unit_kernel(n1), tc.as_ref())?;
        let interval = (BURST as f64 / OFFERED_RATE * 1e9) as u64;
        let t0 = now_ns() + interval;
        let mut s = 0;
        let mut burst = 0u64;
        while s < n1 {
            let due = t0 + burst * interval;
            sleep_until(due);
            let start = now_ns();
            let late = start.saturating_sub(due);
            late_ms.push(late as f64 * 1e-6);
            if late > interval {
                fell_behind += 1;
            }
            let to = (s + BURST).min(n1);
            let produced = produce(&stack.broker, &payload, s, to, tracer.as_deref())?;
            sent.extend((s..to).map(|_| Sent { due, produced }));
            if traced {
                let lag = stack.broker.group_stats(GROUP).map_or(0, |g| g.total_lag());
                backlog_max = backlog_max.max(lag);
            }
            s = to;
            burst += 1;
        }
        let a_visible = await_done(&stack, a, STALL, tc.as_ref());

        // Phase 2: saturated, bounded backlog.
        let (b, _) = stack.submit(desc, unit_kernel(n2), tc.as_ref())?;
        let p2_start = now_ns();
        while s < n1 + n2 {
            if !progress.wait_backlog(s as u64, BACKLOG - BURST as u64, STALL) {
                return Err(format!("no frame reconstructed for {STALL:?}"));
            }
            let to = (s + BURST).min(n1 + n2);
            let start = now_ns();
            let produced = produce(&stack.broker, &payload, s, to, tracer.as_deref())?;
            sent.extend((s..to).map(|_| Sent {
                due: start,
                produced,
            }));
            if traced {
                let lag = stack.broker.group_stats(GROUP).map_or(0, |g| g.total_lag());
                backlog_max = backlog_max.max(lag);
            }
            s = to;
        }
        let b_visible = await_done(&stack, b, STALL, tc.as_ref());
        let wall_s = (now_ns() - t_begin) as f64 * 1e-9;
        let never = u64::from(!a_visible) + u64::from(!b_visible);
        out.check(
            "processor_units_visible",
            never == 0,
            format!("{never} of 2 processor units never reached Done on the subscription"),
        );

        // Outside the timed region: read back both logs and check them.
        let mut logs = Vec::new();
        for id in [a, b] {
            let log = stack
                .svc()?
                .wait_unit(id)
                .and_then(|o| o.output)
                .and_then(|r| r.ok())
                .and_then(|o| o.downcast::<ProcLog>().ok());
            logs.push(log.unwrap_or_default());
        }
        let mut seen = vec![false; n1 + n2];
        let mut wrong = 0u64;
        for f in logs.iter().flat_map(|l| &l.frames) {
            let ok = (f.seq as usize) < seen.len()
                && !seen[f.seq as usize]
                && f.peaks
                    .as_deref()
                    .is_some_and(|p| peaks_match(p, &pool[f.seq as usize % pool.len()].planted));
            if ok {
                seen[f.seq as usize] = true;
            } else {
                wrong += 1;
            }
        }
        let missing = seen.iter().filter(|&&v| !v).count() as u64;
        out.failed += missing.max(wrong);
        out.check(
            "frame_peaks",
            wrong == 0 && missing == 0,
            format!("{wrong} frames with wrong or duplicate peaks, {missing} frames never reconstructed"),
        );
        let stats = stack
            .broker
            .group_stats(GROUP)
            .map_err(|e| format!("{e:?}"))?;
        let hw = stack
            .broker
            .high_watermarks(TOPIC)
            .map_err(|e| format!("{e:?}"))?;
        out.check(
            "group_committed",
            stats.offsets == hw && stats.records_lost == 0,
            format!(
                "committed {:?} vs high watermarks {hw:?}, records lost {}",
                stats.offsets, stats.records_lost
            ),
        );

        // Phase 1 latency: due -> reconstruct returned. Phase 2: rate.
        let p1: Vec<&FrameRec> = logs[0]
            .frames
            .iter()
            .filter(|f| (f.seq as usize) < n1)
            .collect();
        let rep_lat: Vec<f64> = p1
            .iter()
            .map(|f| f.done.saturating_sub(sent[f.seq as usize].due) as f64 * 1e-9)
            .collect();
        let mut p2_done: Vec<f64> = logs[1]
            .frames
            .iter()
            .map(|f| f.done.saturating_sub(p2_start) as f64 * 1e-9)
            .collect();
        p2_done.sort_by(f64::total_cmp);
        let rate = p2_done.last().map_or(0.0, |&t| {
            if t > 0.0 {
                p2_done.len() as f64 / t
            } else {
                0.0
            }
        });
        let tail = tail_rate(&p2_done).unwrap_or(0.0);

        let wal = dir_bytes(&stack.dir);
        let (report, mat) = stack.shutdown()?;
        let not_done = report
            .units
            .iter()
            .filter(|u| u.state != UnitState::Done)
            .count() as u64;
        out.check(
            "service_units_done",
            not_done == 0,
            format!("{not_done} processor units ended in a state other than Done"),
        );
        read_plane_checks(&mut out, &stack, &mat, 2);
        if let Some(tc) = &tc {
            let counts = tc.bind.finish();
            let mut spans = tc.tracer.take();
            out.set("wal.bytes_per_frame", wal as f64 / (n1 + n2) as f64);
            out.set("broker.backlog_max", backlog_max as f64);
            let mut deliver: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l.frames)
                .map(|f| f.polled.saturating_sub(sent[f.seq as usize].produced) as f64)
                .collect();
            let (d50, d99) = p50_p99(&mut deliver, 1e-6);
            out.set("broker.deliver_ms_p50", d50);
            out.set("broker.deliver_ms_p99", d99);
            let polls: u64 = logs.iter().map(|l| l.polls).sum();
            let empty: u64 = logs.iter().map(|l| l.empty_polls).sum();
            out.set(
                "broker.empty_poll_ratio",
                empty as f64 / polls.max(1) as f64,
            );
            let mut rec = crate::trace::durations(&spans, "kernel.reconstruct");
            let (r50, r99) = p50_p99(&mut rec, 1e-3);
            out.set("kernel.reconstruct_us_p50", r50);
            out.set("kernel.reconstruct_us_p99", r99);
            let mut prod = crate::trace::durations(&spans, "broker.produce");
            let (pr50, pr99) = p50_p99(&mut prod, 1e-3);
            out.set("broker.produce_us_p50", pr50);
            out.set("broker.produce_us_p99", pr99);
            let mut poll = crate::trace::durations(&spans, "broker.poll");
            out.set("broker.poll_us_p50", p50_p99(&mut poll, 1e-3).0);
            let ids: Vec<UnitId> = vec![a, b];
            layers::ledger_metrics(
                &mut out,
                &tc.stamps,
                stack.clock_tolerance_ns,
                &ids,
                &mut spans,
            );
            read_plane_layer_metrics(&mut out, &stack, &spans);
            layers::binding_metrics(&mut out, &counts);
            layers::kernel_metrics(&mut out, &spans);
            layers::query_metrics(&mut out, &spans);
            layers::self_time_metrics(&mut out, &spans);
            let busy = out.values.get("kernel.busy_s").copied().unwrap_or(0.0);
            out.set("agent.core_util", busy / wall_s.max(1e-9));
            layers::write_trace(&mut out, "stream_frames", &spans);
        }
        samples.rep(traced, rate, tail, rep_lat);
        Ok(())
    })?;
    let (_, late99) = p50_p99(&mut late_ms, 1.0);
    out.set("gen.late_ms_p99", late99);
    out.set("gen.fell_behind", fell_behind as f64);
    out.note(format!(
        "generator lateness p99 {late99:.3} ms; {fell_behind} bursts sent more than one burst interval late{}",
        if fell_behind > 0 { " -- GENERATOR FELL BEHIND: phase-1 latencies include its lateness" } else { "" }
    ));
    samples.report(&mut out, "frames", args.trace);
    Ok(out)
}
