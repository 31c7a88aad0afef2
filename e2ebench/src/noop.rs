//! `unit_noop`: a closed loop of 1-core no-op units through the whole
//! stack. The kernel does nothing, so all the time is spent in the service,
//! binding, agent, sink, WAL, fold and push layers; a history-sized cost
//! shows as `tail_ops_per_s` falling below `ops_per_s`.

use crate::report::{tail_rate, Outcome, Samples};
use crate::stack::{
    dir_bytes, fold_lag, no_extra, read_plane_checks, read_plane_layer_metrics, Stack, TraceCtx,
};
use crate::trace::{now_ns, proc_status, TimedKernel};
use crate::{layers, nproc, repeat, traced_rep, Inject, RunArgs, Scale, SETUP_SAMPLES};
use pilot_core::describe::UnitDescription;
use pilot_core::ids::UnitId;
use pilot_core::state::UnitState;
use pilot_core::thread::{kernel_fn, TaskOutput, WorkKernel};
use pilot_sim::SimRng;
use std::sync::Arc;
use std::time::Duration;

/// Units per repetition: large enough that history-sized costs show.
pub const UNITS: u64 = 50_000;
/// Outstanding units: each `Done` row delivered releases the next submit.
pub const WINDOW: u64 = 64;
/// A `dashboard()` read every this many completions.
pub const DASHBOARD_EVERY: u64 = 1_000;
/// Units whose kernel output the checks read back.
const OUTPUT_SAMPLE: usize = 64;
/// A repetition fails when no unit becomes visible for this long.
fn stall(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_secs(30),
        Scale::Smoke => Duration::from_secs(3),
    }
}

/// What one repetition measured.
pub struct Rep {
    /// First submit to the last `Done` row delivered.
    pub wall_s: f64,
    pub units_per_s: f64,
    pub tail_units_per_s: f64,
    pub latencies_s: Vec<f64>,
}

/// A closed loop through a fresh stack of `cores` cores: `kernels[i]` is
/// the `i`-th unit submitted. Without a barrier every `Done` row delivered
/// on the subscription releases the next submit (`window` outstanding);
/// with one, the next `window` units are submitted only once all of the
/// current ones are visible.
pub(crate) struct ClosedLoop<'a> {
    pub cores: u32,
    pub window: u64,
    pub barrier: bool,
    pub dashboard_every: u64,
    pub desc: UnitDescription,
    pub kernels: &'a [Arc<dyn WorkKernel>],
    pub trace: Option<&'a TraceCtx>,
    /// Input scale, which sets how long the loop waits for progress.
    pub scale: Scale,
    /// Self-test fault: the sink drops the first `Done` event.
    pub suppress_done: bool,
}

impl ClosedLoop<'_> {
    /// Submit every kernel, `window` at a time; returns the stack (still
    /// running), the per-unit ids, and the rep's end-to-end numbers.
    pub fn drive(&self, out: &mut Outcome) -> Result<(Stack, Vec<UnitId>, Rep), String> {
        let n = self.kernels.len();
        let stack = Stack::new(self.cores, self.trace, &no_extra, self.suppress_done)?;
        let stall_ns = stall(self.scale).as_nanos() as u64;
        let mut ids: Vec<UnitId> = Vec::with_capacity(n);
        // Bench-clock submit instants by unit id (ids are dense per service).
        let mut submit_ns: Vec<u64> = Vec::new();
        let mut index_of: Vec<usize> = Vec::new();
        let mut visible = vec![false; n];
        let mut latencies_s = Vec::with_capacity(n);
        let mut completions_s = Vec::with_capacity(n);
        let submit = |i: usize,
                      ids: &mut Vec<UnitId>,
                      submit_ns: &mut Vec<u64>,
                      index_of: &mut Vec<usize>| {
            let (id, t0) =
                stack.submit(self.desc.clone(), Arc::clone(&self.kernels[i]), self.trace)?;
            let slot = id.0 as usize;
            if submit_ns.len() <= slot {
                submit_ns.resize(slot + 1, 0);
                index_of.resize(slot + 1, usize::MAX);
            }
            submit_ns[slot] = t0;
            index_of[slot] = i;
            ids.push(id);
            Ok::<(), String>(())
        };
        let t_start = now_ns();
        let first = (self.window as usize).min(n);
        for i in 0..first {
            submit(i, &mut ids, &mut submit_ns, &mut index_of)?;
        }
        let mut done = 0usize;
        let mut last_progress = now_ns();
        let mut threads_peak = 0u64;
        let mut lag_max = 0u64;
        while done < n {
            let Some(batch) = stack.sub.next_timeout(Duration::from_millis(50)) else {
                if now_ns() - last_progress > stall_ns {
                    break;
                }
                continue;
            };
            let t = now_ns();
            stack.note_delta(self.trace, &batch, t);
            for (id, row) in &batch.units {
                if row.state != UnitState::Done {
                    continue;
                }
                let slot = *id as usize;
                let Some(&i) = index_of.get(slot) else {
                    continue;
                };
                if i == usize::MAX || visible[i] {
                    continue;
                }
                visible[i] = true;
                done += 1;
                latencies_s.push((t - submit_ns[slot]) as f64 * 1e-9);
                completions_s.push((t - t_start) as f64 * 1e-9);
                stack.note_visible(self.trace, UnitId(*id), &batch, t);
                if !self.barrier {
                    if ids.len() < n {
                        submit(ids.len(), &mut ids, &mut submit_ns, &mut index_of)?;
                    }
                } else if done == ids.len() {
                    for _ in 0..(self.window as usize).min(n - ids.len()) {
                        submit(ids.len(), &mut ids, &mut submit_ns, &mut index_of)?;
                    }
                }
                if (done as u64).is_multiple_of(self.dashboard_every) {
                    let t0 = now_ns();
                    let dash = stack.qs.dashboard();
                    std::hint::black_box(dash);
                    if let Some(tc) = self.trace {
                        tc.tracer.close("query.dashboard", t0, done as u64, 0);
                        threads_peak = threads_peak.max(proc_status().1);
                        lag_max = lag_max.max(fold_lag(&stack));
                    }
                }
            }
            last_progress = t;
        }
        let wall_s = completions_s.last().copied().unwrap_or(0.0);
        let never_visible = (n - done) as u64;
        out.failed += never_visible;
        out.check(
            "all_units_visible",
            never_visible == 0,
            format!("{done} of {n} units reached Done on the subscription"),
        );
        if self.trace.is_some() {
            out.set("service.threads_peak", threads_peak as f64);
            out.set("fold.lag_max", lag_max as f64);
        }
        let rep = Rep {
            wall_s,
            units_per_s: if wall_s > 0.0 {
                done as f64 / wall_s
            } else {
                0.0
            },
            tail_units_per_s: tail_rate(&completions_s).unwrap_or(0.0),
            latencies_s,
        };
        Ok((stack, ids, rep))
    }
}

/// Post-drain checks and per-layer metrics shared by the closed-loop
/// workloads. Shuts the stack down.
pub(crate) fn finish(
    out: &mut Outcome,
    mut stack: Stack,
    ids: &[UnitId],
    trace: Option<&TraceCtx>,
    cores: u32,
    wall_s: f64,
    label: &str,
) -> Result<(), String> {
    let (report, mat) = stack.shutdown()?;
    let not_done = report
        .units
        .iter()
        .filter(|u| u.state != UnitState::Done)
        .count() as u64;
    out.failed += not_done;
    out.check(
        "service_units_done",
        not_done == 0,
        format!("{not_done} units ended in a state other than Done"),
    );
    read_plane_checks(out, &stack, &mat, ids.len() as u64);
    if let Some(tc) = trace {
        let wal = dir_bytes(&stack.dir);
        out.set("wal.bytes_per_unit", wal as f64 / ids.len().max(1) as f64);
        let counts = tc.bind.finish();
        let mut spans = tc.tracer.take();
        layers::ledger_metrics(out, &tc.stamps, stack.clock_tolerance_ns, ids, &mut spans);
        read_plane_layer_metrics(out, &stack, &spans);
        layers::binding_metrics(out, &counts);
        layers::kernel_metrics(out, &spans);
        layers::query_metrics(out, &spans);
        layers::self_time_metrics(out, &spans);
        let busy_s = out.values.get("kernel.busy_s").copied().unwrap_or(0.0);
        out.set(
            "agent.core_util",
            busy_s / (f64::from(cores) * wall_s.max(1e-9)),
        );
        layers::write_trace(out, label, &spans);
    }
    Ok(())
}

/// A no-op kernel returning the unit's seeded token.
fn token_kernel(token: u64) -> Arc<dyn WorkKernel> {
    kernel_fn(move |_| Ok(TaskOutput::of(token)))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let units = match args.scale {
        Scale::Full => UNITS,
        Scale::Smoke => 3_000,
    } as usize;
    let cores = nproc() as u32;
    let mut out = Outcome::default();
    out.note(format!(
        "workload: unit_noop (closed loop, window {WINDOW}, {units} no-op units per repetition, pilot of {cores} cores, dashboard read every {DASHBOARD_EVERY} completions)"
    ));
    // Inputs: every unit's token, from the seed, before timing starts.
    let mut rng = SimRng::new(args.seed);
    let tokens: Vec<u64> = (0..units).map(|_| rng.next_u64()).collect();
    let plain: Vec<Arc<dyn WorkKernel>> = tokens.iter().map(|&t| token_kernel(t)).collect();
    let mut samples = Samples::new(Stack::setup_samples(SETUP_SAMPLES, cores, &no_extra)?);
    repeat(args.seconds, 1 + usize::from(args.trace), |rep| {
        let traced = traced_rep(args.trace, rep);
        let tc = traced.then(|| TraceCtx::new(units + 16));
        let kernels: Vec<Arc<dyn WorkKernel>> = match &tc {
            Some(t) => plain
                .iter()
                .map(|k| {
                    Arc::new(TimedKernel {
                        inner: Arc::clone(k),
                        tracer: Arc::clone(&t.tracer),
                        stamps: Arc::clone(&t.stamps),
                    }) as Arc<dyn WorkKernel>
                })
                .collect(),
            None => plain.clone(),
        };
        let cl = ClosedLoop {
            cores,
            window: WINDOW,
            barrier: false,
            dashboard_every: DASHBOARD_EVERY,
            desc: UnitDescription::new(1),
            kernels: &kernels,
            trace: tc.as_ref(),
            scale: args.scale,
            suppress_done: args.inject == Some(Inject::SuppressDone),
        };
        out.attempted += units as u64;
        let (stack, ids, r) = cl.drive(&mut out)?;
        // Kernel outputs reach the service: a seeded sample of distinct
        // units (an output is taken by its first read), read back.
        let mut pick = SimRng::new(args.seed ^ rep as u64);
        let mut sample = std::collections::BTreeSet::new();
        while sample.len() < OUTPUT_SAMPLE.min(ids.len()) {
            sample.insert(pick.below_usize(ids.len()));
        }
        let mut wrong = 0u64;
        for &i in &sample {
            let got = stack
                .svc()?
                .wait_unit(ids[i])
                .and_then(|o| o.output)
                .and_then(|r| r.ok())
                .and_then(|o| o.downcast::<u64>().ok());
            if got != Some(tokens[i]) {
                wrong += 1;
            }
        }
        out.failed += wrong;
        out.check(
            "kernel_outputs",
            wrong == 0,
            format!(
                "{wrong} of {OUTPUT_SAMPLE} sampled unit outputs differ from their seeded token"
            ),
        );
        finish(
            &mut out,
            stack,
            &ids,
            tc.as_ref(),
            cores,
            r.wall_s,
            "unit_noop",
        )?;
        samples.rep(traced, r.units_per_s, r.tail_units_per_s, r.latencies_s);
        Ok(())
    })?;
    samples.report(&mut out, "units", args.trace);
    Ok(out)
}
