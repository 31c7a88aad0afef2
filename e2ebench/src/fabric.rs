//! `fabric_sim`: the control-plane fabric in virtual time with one mid-run
//! daemon stall, then its ledger onto a compacted topic (`publish_events`)
//! and a sharded bootstrap + catch-up fold into a dashboard. The only
//! workload that drives `pilot-core::fabric` and a bulk compacted
//! catch-up; single-threaded and deterministic, so it measures CPU cost
//! free of scheduler noise.

use crate::report::{p50_p99, Outcome, Samples};
use crate::stack::{
    hex_or_error, open_broker, scratch_dir, single_fold_digest, FOLD_SHARDS, PROJ_PARTITIONS,
    PROJ_TOPIC,
};
use crate::trace::{lock, now_ns, BindRec, Span, TimedScheduler, Tracer};
use crate::{layers, repeat, traced_rep, RunArgs, Scale, SETUP_SAMPLES};
use pilot_core::describe::UnitDescription;
use pilot_core::events::ProjEvent;
use pilot_core::fabric::{Fabric, FabricConfig, KillMode, ScheduledKill};
use pilot_core::retry::{FaultPlan, RetryPolicy};
use pilot_core::scheduler::{FirstFitScheduler, Scheduler};
use pilot_core::state::UnitState;
use pilot_query::{publish_events, BrokerSink, ShardedMaterializer};
use pilot_sim::SimRng;
use pilot_streaming::Broker;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Topology: daemons, shards, pilots per shard, cores per pilot.
pub const DAEMONS: usize = 16;
pub const SHARDS: u32 = 32;
pub const PILOTS_PER_SHARD: u32 = 8;
pub const CORES_PER_PILOT: u32 = 8;
/// Units per repetition and their run length range (ticks).
pub const UNITS: usize = 50_000;
pub const RUN_TICKS: (u64, u64) = (10, 30);

/// The recorder the scheduler factory hands every daemon's scheduler. The
/// fabric takes a plain `fn` factory, so the recorder of the current
/// repetition is published here.
static RECORDER: Mutex<Option<Arc<BindRec>>> = Mutex::new(None);

fn timed_first_fit() -> Box<dyn Scheduler> {
    // Without an installed recorder the decorator records nothing.
    let rec = lock(&RECORDER)
        .clone()
        .unwrap_or_else(|| BindRec::new(None, None, None, false));
    Box::new(TimedScheduler {
        inner: Box::new(FirstFitScheduler),
        rec,
    })
}

/// The fabric's fixed configuration, seeded, with one daemon stalled at
/// mid-run (victim drawn from the seed).
fn config(seed: u64, units: usize) -> FabricConfig {
    let mut rng = SimRng::new(seed).stream(0xfab);
    let victim = rng.below_usize(DAEMONS);
    let cores = u64::from(SHARDS * PILOTS_PER_SHARD * CORES_PER_PILOT);
    let mean_ticks = (RUN_TICKS.0 + RUN_TICKS.1) / 2;
    let kill_tick = ((units as u64).div_ceil(cores) * mean_ticks / 2).max(1);
    FabricConfig {
        n_daemons: DAEMONS,
        n_shards: SHARDS,
        pilots_per_shard: PILOTS_PER_SHARD,
        cores_per_pilot: CORES_PER_PILOT,
        tick_s: 0.01,
        heartbeat_every: 5,
        lapse_ticks: 15,
        max_ticks: 1_000_000,
        seed,
        faults: FaultPlan::none(),
        retry: RetryPolicy::fixed(4, 0.05),
        scheduler: timed_first_fit,
        kills: vec![ScheduledKill {
            tick: kill_tick,
            daemon: victim,
            mode: KillMode::Stall,
        }],
    }
}

/// Each placement's wait in the fabric's virtual time (ms): a unit's
/// `Pending` event to its next `Running` event, from the fabric's ledger.
fn virtual_waits_ms(events: &[ProjEvent]) -> Vec<f64> {
    let mut pending = HashMap::new();
    let mut waits = Vec::new();
    for e in events {
        if let ProjEvent::Unit {
            unit, state, t_s, ..
        } = e
        {
            match state {
                UnitState::Pending => {
                    pending.entry(*unit).or_insert(*t_s);
                }
                UnitState::Running => {
                    if let Some(t0) = pending.remove(unit) {
                        waits.push((t_s - t0) * 1e3);
                    }
                }
                _ => {}
            }
        }
    }
    waits
}

/// Bind rate over the final tenth of the bind phase's wall time (first to
/// last bind; instants in seconds, ascending). The final tenth of the
/// binds would be the wrong window: they land on the last few ticks, tens
/// of ms of wall time, so one host preemption moves their rate by a fifth.
fn tail_bind_rate(binds: &[f64]) -> Option<f64> {
    let (&first, &last) = (binds.first()?, binds.last()?);
    let window = (last - first) / 10.0;
    (window > 0.0).then(|| binds.iter().filter(|&&t| t >= last - window).count() as f64 / window)
}

/// The fabric's read plane: a durable broker with the compacted projection
/// topic and a bootstrapped 2-shard fold. Its creation is `setup_s`.
struct ReadPlane {
    dir: std::path::PathBuf,
    broker: Arc<Broker>,
    mat: ShardedMaterializer,
    setup_s: f64,
}

impl ReadPlane {
    fn new() -> Result<ReadPlane, String> {
        let t0 = now_ns();
        let dir = scratch_dir("fabric");
        let broker = open_broker(&dir)?;
        BrokerSink::create_compacted(Arc::clone(&broker), PROJ_TOPIC, PROJ_PARTITIONS)
            .map_err(|e| format!("projection topic: {e:?}"))?;
        let mat = ShardedMaterializer::bootstrap(Arc::clone(&broker), PROJ_TOPIC, FOLD_SHARDS)
            .map_err(|e| format!("fold bootstrap: {e:?}"))?;
        let setup_s = (now_ns() - t0) as f64 * 1e-9;
        Ok(ReadPlane {
            dir,
            broker,
            mat,
            setup_s,
        })
    }
}

impl Drop for ReadPlane {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let units = match args.scale {
        Scale::Full => UNITS,
        Scale::Smoke => 4_000,
    };
    let mut out = Outcome::default();
    out.note(format!(
        "workload: fabric_sim ({units} 1-core units, run {}-{} ticks, {DAEMONS} daemons, {SHARDS} shards x {PILOTS_PER_SHARD} pilots x {CORES_PER_PILOT} cores, one daemon stalled mid-run; ledger published to a compacted topic of {PROJ_PARTITIONS} partitions and folded by {FOLD_SHARDS} shards)",
        RUN_TICKS.0, RUN_TICKS.1
    ));
    // Inputs, before timing: every run length in the range equally often,
    // in an order shuffled by the seed (the seed varies the schedule, not
    // the total work), and the configuration.
    let mut rng = SimRng::new(args.seed);
    let span = RUN_TICKS.1 - RUN_TICKS.0 + 1;
    let mut ticks: Vec<u64> = (0..units as u64).map(|i| RUN_TICKS.0 + i % span).collect();
    for i in (1..ticks.len()).rev() {
        ticks.swap(i, rng.below_usize(i + 1));
    }
    let input: Vec<(UnitDescription, u64)> = ticks
        .into_iter()
        .map(|t| (UnitDescription::new(1), t))
        .collect();
    let cfg = config(args.seed, units);
    let setups = (0..SETUP_SAMPLES)
        .map(|_| ReadPlane::new().map(|r| r.setup_s))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut samples = Samples::new(setups);
    repeat(args.seconds, 1 + usize::from(args.trace), |rep| {
        let traced = traced_rep(args.trace, rep);
        let tracer: Option<Arc<Tracer>> = traced.then(Tracer::new);
        let rec = BindRec::new(tracer.clone(), None, Some(("fabric.run", rep as u64)), true);
        *lock(&RECORDER) = Some(Arc::clone(&rec));
        let mut rp = ReadPlane::new()?;
        let work = input.clone();

        let t0 = now_ns();
        let report = Fabric::run(&cfg, work);
        let t1 = now_ns();
        let published = publish_events(&rp.broker, PROJ_TOPIC, &report.events)
            .map_err(|e| format!("publish: {e:?}"))?;
        let t2 = now_ns();
        let folded = rp.mat.catch_up().map_err(|e| format!("catch-up: {e:?}"))?;
        let t3 = now_ns();
        let qs = rp.mat.service();
        let dash = qs.dashboard();
        let t4 = now_ns();

        let makespan_s = (t4 - t0) as f64 * 1e-9;
        let counts = rec.finish();
        let binds: Vec<f64> = counts
            .bind_times
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|&t| (t - t0) as f64 * 1e-9)
            .collect();
        let rate = units as f64 / makespan_s.max(1e-9);
        let tail = tail_bind_rate(&binds).unwrap_or(0.0);

        out.attempted += units as u64;
        let failed = report.lost + report.duplicates + report.exhausted;
        out.failed += failed;
        out.check(
            "exactly_once",
            report.exactly_once() && failed == 0,
            format!(
                "completed {} of {}, lost {}, duplicated {}, exhausted {}",
                report.completed,
                report.total_units,
                report.lost,
                report.duplicates,
                report.exhausted
            ),
        );
        let done = dash.units_in(UnitState::Done);
        out.check(
            "dashboard_done",
            done == units as u64,
            format!("dashboard Done = {done}, expected {units}"),
        );
        let merged = qs.merged().data_digest();
        let single = single_fold_digest(&rp.broker);
        out.check(
            "sharded_digest",
            single.as_ref().is_ok_and(|&d| d == merged) && rp.mat.events_lost() == 0,
            format!(
                "merged {merged:#x} vs single fold {}, lost {}",
                hex_or_error(&single),
                rp.mat.events_lost()
            ),
        );

        if let Some(t) = &tracer {
            t.record(Span {
                name: "fabric.run",
                start: t0,
                end: t1,
                id: rep as u64,
                arg: report.ticks,
                parent: None,
            });
            t.record(Span {
                name: "sink.publish",
                start: t1,
                end: t2,
                id: rep as u64,
                arg: published,
                parent: None,
            });
            t.record(Span {
                name: "fold.catch_up",
                start: t2,
                end: t3,
                id: rep as u64,
                arg: folded,
                parent: None,
            });
            t.record(Span {
                name: "query.dashboard",
                start: t3,
                end: t4,
                id: rep as u64,
                arg: 0,
                parent: None,
            });
            let spans = t.take();
            out.set("fabric.run_s", (t1 - t0) as f64 * 1e-9);
            out.set("fabric.ticks", report.ticks as f64);
            let (w50, w99) = p50_p99(&mut virtual_waits_ms(&report.events), 1.0);
            out.set("fabric.wait_ms_p50", w50);
            out.set("fabric.wait_ms_p99", w99);
            out.set("fabric.binds_per_pass", report.bind_stats.binds_per_pass());
            out.set(
                "fabric.fenced",
                (report.fenced_binds + report.fenced_reports) as f64,
            );
            out.set(
                "fabric.rebalance_ticks",
                report.max_rebalance_latency_ticks().unwrap_or(0) as f64,
            );
            out.set(
                "publish.events_per_s",
                published as f64 / ((t2 - t1) as f64 * 1e-9).max(1e-9),
            );
            out.set("fold.catch_up_s", (t3 - t2) as f64 * 1e-9);
            out.set("fold.events", folded as f64);
            out.set("fold.publishes", qs.version() as f64);
            out.set(
                "fold.events_per_publish",
                folded as f64 / qs.version().max(1) as f64,
            );
            out.set("fold.busy_ms", (t3 - t2) as f64 * 1e-6);
            out.set("query.dashboard_us_p50", (t4 - t3) as f64 * 1e-3);
            out.set("query.dashboard_us_p99", (t4 - t3) as f64 * 1e-3);
            layers::binding_metrics(&mut out, &counts);
            layers::self_time_metrics(&mut out, &spans);
            layers::write_trace(&mut out, "fabric_sim", &spans);
        }
        samples.rep(traced, rate, tail, binds);
        Ok(())
    })?;
    *lock(&RECORDER) = None;
    samples.report(&mut out, "units", args.trace);
    out.note("fabric_sim: latency is the wall time from Fabric::run to each bind, a progress curve of the bind phase that tracks throughput, not any unit's wait (fabric.wait_ms_* of a traced run is that, in virtual time); tail_ops_per_s is the bind rate over the final tenth of the bind phase's wall time");
    Ok(out)
}
