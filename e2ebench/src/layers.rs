//! Per-layer metrics computed from the spans and stamps of a traced run.

use crate::report::{mean, p50_p99, percentile, Outcome};
use crate::trace::{
    durations, named, self_time_by_layer, write_spans, BindCounts, Ledger, Span, Stamp, Stamps,
    SEGMENTS,
};
use pilot_core::ids::UnitId;

const NS_US: f64 = 1e-3;
const NS_MS: f64 = 1e-6;

/// Fold counters: events, poll cost, busy time, per-event cost over the
/// first and last tenth of the run's events, catch-up time.
pub fn fold_metrics(out: &mut Outcome, spans: &[Span]) {
    let mut polls: Vec<&Span> = named(spans, "fold.poll_apply")
        .filter(|s| s.arg > 0)
        .collect();
    polls.sort_by_key(|s| s.start);
    let events: u64 = polls.iter().map(|s| s.arg).sum();
    out.set("fold.events", events as f64);
    let mut d: Vec<f64> = polls.iter().map(|s| s.dur_ns() as f64).collect();
    let (p50, p99) = p50_p99(&mut d, NS_US);
    out.set("fold.poll_apply_us_p50", p50);
    out.set("fold.poll_apply_us_p99", p99);
    let busy: u64 = ["fold.poll_apply", "fold.publish", "fold.catch_up"]
        .iter()
        .flat_map(|n| named(spans, n))
        .map(Span::dur_ns)
        .sum();
    out.set("fold.busy_ms", busy as f64 * NS_MS);
    // Per-event cost over the polls holding the first / last tenth of events.
    let tenth = (events / 10).max(1);
    let per_event = |it: &mut dyn Iterator<Item = &&Span>| {
        let (mut ev, mut ns) = (0u64, 0u64);
        for s in it {
            if ev >= tenth {
                break;
            }
            ev += s.arg;
            ns += s.dur_ns();
        }
        if ev == 0 {
            0.0
        } else {
            ns as f64 * NS_US / ev as f64
        }
    };
    out.set("fold.us_per_event_head", per_event(&mut polls.iter()));
    out.set("fold.us_per_event_tail", per_event(&mut polls.iter().rev()));
    let catch_up: u64 = named(spans, "fold.catch_up").map(Span::dur_ns).sum();
    out.set("fold.catch_up_s", catch_up as f64 * 1e-9);
}

/// Sink counters: calls, events per call, call time, busy time.
pub fn sink_metrics(out: &mut Outcome, spans: &[Span]) {
    let emits: Vec<&Span> = named(spans, "sink.emit").collect();
    let events: u64 = emits.iter().map(|s| s.arg).sum();
    out.set("sink.emits", emits.len() as f64);
    out.set(
        "sink.events_per_emit",
        if emits.is_empty() {
            0.0
        } else {
            events as f64 / emits.len() as f64
        },
    );
    let mut d = durations(spans, "sink.emit");
    let (p50, p99) = p50_p99(&mut d, NS_US);
    out.set("sink.emit_us_p50", p50);
    out.set("sink.emit_us_p99", p99);
    out.set("sink.busy_ms", d.iter().sum::<f64>() * NS_MS);
}

/// Late-binding counters from the scheduler decorator.
pub fn binding_metrics(out: &mut Outcome, c: &BindCounts) {
    let (passes, calls, binds) = (c.passes as f64, c.select_calls as f64, c.binds as f64);
    out.set("binding.passes", passes);
    out.set("binding.select_calls", calls);
    out.set("binding.binds", binds);
    out.set(
        "binding.bind_ratio",
        if calls > 0.0 { binds / calls } else { 0.0 },
    );
    out.set(
        "binding.binds_per_pass",
        if passes > 0.0 { binds / passes } else { 0.0 },
    );
    out.set("binding.select_busy_ms", c.select_busy_ns as f64 * NS_MS);
}

/// Kernel run time percentiles and busy time.
pub fn kernel_metrics(out: &mut Outcome, spans: &[Span]) {
    let mut d = durations(spans, "kernel.run");
    let busy = d.iter().sum::<f64>();
    let (p50, p99) = p50_p99(&mut d, NS_MS);
    out.set("kernel.run_ms_p50", p50);
    out.set("kernel.run_ms_p99", p99);
    out.set("kernel.busy_s", busy * 1e-9);
}

/// Dashboard read cost and delta sizes, from the generator's spans.
pub fn query_metrics(out: &mut Outcome, spans: &[Span]) {
    let mut d = durations(spans, "query.dashboard");
    let (p50, p99) = p50_p99(&mut d, NS_US);
    out.set("query.dashboard_us_p50", p50);
    out.set("query.dashboard_us_p99", p99);
    let rows: Vec<f64> = named(spans, "query.delta").map(|s| s.arg as f64).collect();
    out.set("query.rows_per_delta", mean(&rows));
}

/// Write a traced run's spans to `.perfbench/spans/<label>.csv`.
pub fn write_trace(out: &mut Outcome, label: &str, spans: &[Span]) {
    let path = std::path::Path::new(".perfbench")
        .join("spans")
        .join(format!("{label}.csv"));
    match write_spans(&path, spans) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

/// Self time per layer (span time minus child-span time), in ms.
pub fn self_time_metrics(out: &mut Outcome, spans: &[Span]) {
    let st = self_time_by_layer(spans);
    for (layer, metric) in [
        ("service", "self.service_ms"),
        ("binding", "self.binding_ms"),
        ("agent", "self.agent_ms"),
        ("kernel", "self.kernel_ms"),
        ("sink", "self.sink_ms"),
        ("broker", "self.broker_ms"),
        ("fold", "self.fold_ms"),
        ("query", "self.query_ms"),
        ("fabric", "self.fabric_ms"),
    ] {
        out.set(metric, st.get(layer).copied().unwrap_or(0) as f64 * NS_MS);
    }
    out.set("trace.spans", spans.len() as f64);
}

/// The per-unit ledger over `units`: segment shares (mean and p99), how
/// far racing stamps were clamped, and the per-unit service/agent/query
/// latencies the stamps give; checks that every unit is stamped at every
/// boundary and that its stamps keep their causal order within
/// `tolerance_ns` (the ledger closes). Appends one `unit` span per unit,
/// with its `ledger.<segment>` spans as children, and one `agent.dispatch`
/// span per unit to `spans`.
pub fn ledger_metrics(
    out: &mut Outcome,
    stamps: &Stamps,
    tolerance_ns: u64,
    units: &[UnitId],
    spans: &mut Vec<Span>,
) {
    let mut shares: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS.len()];
    let (mut submit, mut queue, mut dispatch, mut notify) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut shift_max = 0u64;
    let (mut unstamped, mut out_of_order, mut violation_max) = (0u64, 0u64, 0u64);
    let mut inversions = 0u64;
    for &u in units {
        let Some((b, l)) = stamps
            .get(u)
            .and_then(|b| Ledger::from_stamps(&b, tolerance_ns).map(|l| (b, l)))
        else {
            unstamped += 1;
            continue;
        };
        let stamp = |s: Stamp| b[s as usize] as f64;
        submit.push(stamp(Stamp::SubmitRet) - stamp(Stamp::SubmitCall));
        queue.push(stamp(Stamp::Select) - stamp(Stamp::SubmitCall));
        dispatch.push(stamp(Stamp::KernelStart) - stamp(Stamp::Select));
        // The agent's only outside-visible time: bind to kernel entry.
        spans.push(Span {
            name: "agent.dispatch",
            start: b[Stamp::Select as usize],
            end: b[Stamp::KernelStart as usize],
            id: u.0,
            arg: 0,
            parent: None,
        });
        notify.push(stamp(Stamp::Delivered) - stamp(Stamp::SinkRecv));
        inversions += u64::from(l.inversions);
        shift_max = shift_max.max(l.max_shift_ns);
        if !l.closes() {
            out_of_order += 1;
            violation_max = violation_max.max(l.max_violation_ns);
            continue;
        }
        spans.push(Span {
            name: "unit",
            start: b[0],
            end: b[b.len() - 1],
            id: u.0,
            arg: 0,
            parent: None,
        });
        let mut t = b[0];
        for (i, &seg) in l.segments.iter().enumerate() {
            spans.push(Span {
                name: LEDGER_SPANS[i],
                start: t,
                end: t + seg,
                id: u.0,
                arg: 0,
                parent: Some(("unit", u.0)),
            });
            t += seg;
            if l.total > 0 {
                shares[i].push(seg as f64 / l.total as f64);
            }
        }
    }
    let closed = units.len() as u64 - unstamped - out_of_order;
    out.set("ledger.units", closed as f64);
    out.set("ledger.clamp_us_max", shift_max as f64 * NS_US);
    out.check(
        "ledger_closes",
        closed == units.len() as u64,
        format!(
            "{closed} of {} units closed: {unstamped} missing a stamp, {out_of_order} with a causal order broken by more than {tolerance_ns} ns (worst {violation_max} ns)",
            units.len()
        ),
    );
    let mut line =
        format!("ledger ({closed} units, {inversions} racing stamps clamped): share mean/p99");
    for (i, seg) in SEGMENTS.iter().enumerate() {
        let m = mean(&shares[i]);
        let p99 = percentile(&mut shares[i], 0.99).unwrap_or(0.0);
        out.set(SHARE_MEAN[i], m);
        out.set(SHARE_P99[i], p99);
        line.push_str(&format!(" {seg}={m:.3}/{p99:.3}"));
    }
    out.note(line);
    let (s50, s99) = p50_p99(&mut submit, NS_US);
    out.set("service.submit_us_p50", s50);
    out.set("service.submit_us_p99", s99);
    let (q50, q99) = p50_p99(&mut queue, NS_MS);
    out.set("service.queue_ms_p50", q50);
    out.set("service.queue_ms_p99", q99);
    let (d50, d99) = p50_p99(&mut dispatch, NS_MS);
    out.set("agent.dispatch_ms_p50", d50);
    out.set("agent.dispatch_ms_p99", d99);
    let (n50, n99) = p50_p99(&mut notify, NS_MS);
    out.set("query.notify_ms_p50", n50);
    out.set("query.notify_ms_p99", n99);
}

/// Layer of each ledger segment's span (prefix = owning layer).
const LEDGER_SPANS: [&str; SEGMENTS.len()] = [
    "ledger.submit",
    "ledger.queue",
    "ledger.dispatch",
    "ledger.kernel",
    "ledger.report",
    "ledger.sink",
    "ledger.fold",
    "ledger.query",
];

const SHARE_MEAN: [&str; SEGMENTS.len()] = [
    "ledger.submit_share_mean",
    "ledger.queue_share_mean",
    "ledger.dispatch_share_mean",
    "ledger.kernel_share_mean",
    "ledger.report_share_mean",
    "ledger.sink_share_mean",
    "ledger.fold_share_mean",
    "ledger.query_share_mean",
];

const SHARE_P99: [&str; SEGMENTS.len()] = [
    "ledger.submit_share_p99",
    "ledger.queue_share_p99",
    "ledger.dispatch_share_p99",
    "ledger.kernel_share_p99",
    "ledger.report_share_p99",
    "ledger.sink_share_p99",
    "ledger.fold_share_p99",
    "ledger.query_share_p99",
];
