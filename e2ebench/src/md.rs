//! `ensemble_md`: rounds of ensemble members with a barrier between rounds.
//! Each member is an `MdSystem`; one unit per round advances it by a
//! segment of a few ms. The kernel owns most of the time, so a middleware
//! change should leave `ops_per_s` unchanged here while a kernel change
//! moves it almost 1:1. Every unit carries a deadline (one sleeping timer
//! thread per started unit today) and a retry policy.

use crate::noop::{finish, ClosedLoop};
use crate::report::{Outcome, Samples};
use crate::stack::{no_extra, Stack, TraceCtx};
use crate::trace::{proc_status, TimedKernel};
use crate::{nproc, repeat, traced_rep, RunArgs, Scale, SETUP_SAMPLES};
use pilot_apps::md::MdSystem;
use pilot_core::describe::UnitDescription;
use pilot_core::retry::RetryPolicy;
use pilot_core::thread::{kernel_fn, TaskError, TaskOutput, WorkKernel};
use pilot_sim::SimRng;
use std::sync::{Arc, Mutex};

/// Ensemble members (units per round).
pub const MEMBERS: usize = 8;
/// Rounds per repetition.
pub const ROUNDS: usize = 125;
/// Particles per member.
pub const PARTICLES: usize = 64;
/// MD steps per unit (one segment).
pub const STEPS: usize = 150;
/// Integration timestep.
pub const DT: f64 = 0.002;
/// Per-attempt deadline, far above a segment's run time.
pub const DEADLINE_S: f64 = 2.0;
/// Members whose final state is recomputed sequentially by the check.
const CHECKED_MEMBERS: usize = 3;

/// Member `m`'s temperature (a fixed geometric ladder from 0.8 to 2.0, so
/// every seed asks for the same physics) and its seed-drawn initial state.
fn member_params(seed: u64, m: usize) -> (f64, u64) {
    let t = 0.8 * (2.0f64 / 0.8).powf(m as f64 / (MEMBERS - 1) as f64);
    (t, SimRng::new(seed).stream(m as u64 + 1).next_u64())
}

/// A kernel advancing `sys` by one segment; returns its potential energy.
fn segment_kernel(sys: Arc<Mutex<MdSystem>>) -> Arc<dyn WorkKernel> {
    kernel_fn(move |_| {
        let mut s = sys
            .lock()
            .map_err(|_| TaskError("member state poisoned".into()))?;
        s.run(STEPS, DT);
        Ok(TaskOutput::of(s.potential_energy()))
    })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let rounds = match args.scale {
        Scale::Full => ROUNDS,
        Scale::Smoke => 6,
    };
    let cores = (nproc() as u32).saturating_sub(1).max(1);
    let mut out = Outcome::default();
    out.note(format!(
        "workload: ensemble_md ({MEMBERS} members x {rounds} rounds per repetition, barrier per round, {PARTICLES} particles x {STEPS} steps per unit, deadline {DEADLINE_S} s + retry, pilot of {cores} cores)"
    ));
    let params: Vec<(f64, u64)> = (0..MEMBERS).map(|m| member_params(args.seed, m)).collect();
    let mut samples = Samples::new(Stack::setup_samples(SETUP_SAMPLES, cores, &no_extra)?);
    let desc = UnitDescription::new(1)
        .with_deadline(DEADLINE_S)
        .with_retry(RetryPolicy::fixed(3, 0.01));
    repeat(args.seconds, 1 + usize::from(args.trace), |rep| {
        let traced = traced_rep(args.trace, rep);
        let n = MEMBERS * rounds;
        let tc = traced.then(|| TraceCtx::new(n + 16));
        // Inputs, before timing: fresh members and one kernel per unit,
        // round-major.
        let members: Vec<Arc<Mutex<MdSystem>>> = params
            .iter()
            .map(|&(t, s)| Arc::new(Mutex::new(MdSystem::new(PARTICLES, t, s))))
            .collect();
        let kernels: Vec<Arc<dyn WorkKernel>> = (0..n)
            .map(|i| {
                let k = segment_kernel(Arc::clone(&members[i % MEMBERS]));
                match &tc {
                    Some(t) => Arc::new(TimedKernel {
                        inner: k,
                        tracer: Arc::clone(&t.tracer),
                        stamps: Arc::clone(&t.stamps),
                    }) as Arc<dyn WorkKernel>,
                    None => k,
                }
            })
            .collect();
        let cl = ClosedLoop {
            cores,
            window: MEMBERS as u64,
            barrier: true,
            dashboard_every: MEMBERS as u64,
            desc: desc.clone(),
            kernels: &kernels,
            trace: tc.as_ref(),
            scale: args.scale,
            suppress_done: false,
        };
        out.attempted += n as u64;
        let (stack, ids, r) = cl.drive(&mut out)?;
        let threads = proc_status().1;
        finish(
            &mut out,
            stack,
            &ids,
            tc.as_ref(),
            cores,
            r.wall_s,
            "ensemble_md",
        )?;
        // Outside the timed region: a seeded sample of members recomputed
        // sequentially must match bit for bit.
        let mut pick = SimRng::new(args.seed ^ 0x6d64 ^ rep as u64);
        let mut wrong = 0u64;
        for _ in 0..CHECKED_MEMBERS {
            let m = pick.below_usize(MEMBERS);
            let (t, s) = params[m];
            let mut reference = MdSystem::new(PARTICLES, t, s);
            for _ in 0..rounds {
                reference.run(STEPS, DT);
            }
            let live = members[m].lock().map_err(|_| "member state poisoned")?;
            let same = live.potential_energy().to_bits() == reference.potential_energy().to_bits()
                && live.kinetic_energy().to_bits() == reference.kinetic_energy().to_bits();
            if !same {
                wrong += 1;
            }
        }
        out.failed += wrong;
        out.check(
            "member_energies",
            wrong == 0,
            format!(
                "{wrong} of {CHECKED_MEMBERS} sampled members differ from a sequential recompute"
            ),
        );
        if traced {
            out.set(
                "kernel.pair_evals",
                (PARTICLES * (PARTICLES - 1) / 2 * (STEPS + 2) * n) as f64,
            );
            let peak = out
                .values
                .get("service.threads_peak")
                .copied()
                .unwrap_or(0.0);
            out.set("service.threads_peak", peak.max(threads as f64));
        }
        samples.rep(traced, r.units_per_s, r.tail_units_per_s, r.latencies_s);
        Ok(())
    })?;
    samples.report(&mut out, "units", args.trace);
    Ok(out)
}
