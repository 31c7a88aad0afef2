//! Metric tables, order statistics, and the result line.
//!
//! The two tables below are the benchmark's contract: `BENCHMARK.json`
//! lists the same names and units (a self-test checks it), an untraced run
//! reports every `END_TO_END` metric and a traced run every `PER_LAYER`
//! metric, for every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Per-workload meaning in README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("tail_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not drive
/// reports 0 (nothing was measured there, so nothing happened there).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.queue_ms_p50", "ms"),
    ("service.queue_ms_p99", "ms"),
    ("service.threads_peak", "count"),
    ("binding.passes", "count"),
    ("binding.select_calls", "count"),
    ("binding.binds", "count"),
    ("binding.bind_ratio", "ratio"),
    ("binding.binds_per_pass", "ratio"),
    ("binding.select_busy_ms", "ms"),
    ("agent.dispatch_ms_p50", "ms"),
    ("agent.dispatch_ms_p99", "ms"),
    ("agent.core_util", "ratio"),
    ("kernel.run_ms_p50", "ms"),
    ("kernel.run_ms_p99", "ms"),
    ("kernel.busy_s", "s"),
    ("kernel.pair_evals", "count"),
    ("kernel.reconstruct_us_p50", "us"),
    ("kernel.reconstruct_us_p99", "us"),
    ("sink.emits", "count"),
    ("sink.events_per_emit", "ratio"),
    ("sink.emit_us_p50", "us"),
    ("sink.emit_us_p99", "us"),
    ("sink.busy_ms", "ms"),
    ("sink.dropped", "count"),
    ("broker.produce_us_p50", "us"),
    ("broker.produce_us_p99", "us"),
    ("broker.poll_us_p50", "us"),
    ("broker.empty_poll_ratio", "ratio"),
    ("broker.deliver_ms_p50", "ms"),
    ("broker.deliver_ms_p99", "ms"),
    ("broker.backlog_max", "count"),
    ("broker.proj_retained", "count"),
    ("wal.bytes_per_unit", "B"),
    ("wal.bytes_per_frame", "B"),
    ("fold.events", "count"),
    ("fold.publishes", "count"),
    ("fold.events_per_publish", "ratio"),
    ("fold.poll_apply_us_p50", "us"),
    ("fold.poll_apply_us_p99", "us"),
    ("fold.busy_ms", "ms"),
    ("fold.us_per_event_head", "us"),
    ("fold.us_per_event_tail", "us"),
    ("fold.staleness_ms_p50", "ms"),
    ("fold.staleness_ms_p99", "ms"),
    ("fold.lag_max", "count"),
    ("fold.catch_up_s", "s"),
    ("query.notify_ms_p50", "ms"),
    ("query.notify_ms_p99", "ms"),
    ("query.rows_per_delta", "ratio"),
    ("query.dashboard_us_p50", "us"),
    ("query.dashboard_us_p99", "us"),
    ("fabric.run_s", "s"),
    ("fabric.ticks", "count"),
    ("fabric.wait_ms_p50", "ms"),
    ("fabric.wait_ms_p99", "ms"),
    ("fabric.binds_per_pass", "ratio"),
    ("fabric.fenced", "count"),
    ("fabric.rebalance_ticks", "count"),
    ("publish.events_per_s", "1/s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.fell_behind", "count"),
    ("self.service_ms", "ms"),
    ("self.binding_ms", "ms"),
    ("self.agent_ms", "ms"),
    ("self.kernel_ms", "ms"),
    ("self.sink_ms", "ms"),
    ("self.broker_ms", "ms"),
    ("self.fold_ms", "ms"),
    ("self.query_ms", "ms"),
    ("self.fabric_ms", "ms"),
    ("ledger.units", "count"),
    ("ledger.clamp_us_max", "us"),
    ("ledger.submit_share_mean", "ratio"),
    ("ledger.submit_share_p99", "ratio"),
    ("ledger.queue_share_mean", "ratio"),
    ("ledger.queue_share_p99", "ratio"),
    ("ledger.dispatch_share_mean", "ratio"),
    ("ledger.dispatch_share_p99", "ratio"),
    ("ledger.kernel_share_mean", "ratio"),
    ("ledger.kernel_share_p99", "ratio"),
    ("ledger.report_share_mean", "ratio"),
    ("ledger.report_share_p99", "ratio"),
    ("ledger.sink_share_mean", "ratio"),
    ("ledger.sink_share_p99", "ratio"),
    ("ledger.fold_share_mean", "ratio"),
    ("ledger.fold_share_p99", "ratio"),
    ("ledger.query_share_mean", "ratio"),
    ("ledger.query_share_p99", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Nearest-rank percentile of `v` (sorted in place); `q` in `[0, 1]`.
/// `None` for an empty sample.
pub fn percentile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median (nearest-rank p50), 0 for an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5).unwrap_or(0.0)
}

/// Mean, 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `(p50, p99)` of a sample scaled by `scale`, `(0, 0)` when empty.
pub fn p50_p99(v: &mut [f64], scale: f64) -> (f64, f64) {
    let p50 = percentile(v, 0.5).unwrap_or(0.0);
    let p99 = percentile(v, 0.99).unwrap_or(0.0);
    (p50 * scale, p99 * scale)
}

/// Rate over the final tenth of a run: `times` are completion instants
/// (seconds, ascending). `None` with fewer than 20 completions.
pub fn tail_rate(times: &[f64]) -> Option<f64> {
    let n = times.len();
    if n < 20 {
        return None;
    }
    let from = n - n / 10 - 1;
    let span = times[n - 1] - times[from];
    (span > 0.0).then(|| (n - 1 - from) as f64 / span)
}

/// Per-repetition samples of a run's end-to-end metrics.
#[derive(Default)]
pub struct Samples {
    /// Set-up times of the run's set-up-only cycles.
    setups: Vec<f64>,
    rates: Vec<f64>,
    tails: Vec<f64>,
    /// Each untraced repetition's latency p50 and p99 (ms), and the
    /// latency samples they were taken over.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    latency_samples: usize,
    traced_rates: Vec<f64>,
    /// VmHWM once the first untraced repetition ends: later repetitions
    /// only add allocator residue, so the peak is taken at a fixed size.
    peak_rss_mb: Option<f64>,
}

impl Samples {
    pub fn new(setups: Vec<f64>) -> Samples {
        Samples {
            setups,
            ..Samples::default()
        }
    }

    /// Record one repetition.
    pub fn rep(&mut self, traced: bool, rate: f64, tail: f64, mut latencies_s: Vec<f64>) {
        if traced {
            self.traced_rates.push(rate);
            return;
        }
        self.rates.push(rate);
        self.tails.push(tail);
        let (p50, p99) = p50_p99(&mut latencies_s, 1e3);
        self.p50s.push(p50);
        self.p99s.push(p99);
        self.latency_samples += latencies_s.len();
        self.peak_rss_mb
            .get_or_insert_with(|| crate::trace::proc_status().0);
    }

    /// Record the end-to-end metrics (medians over repetitions of the
    /// rates and of each repetition's latency percentiles, the median
    /// set-up, peak RSS) and, for a traced run, the tracing overhead.
    /// `what` names the operation. A latency tail comes in clusters (one
    /// preemption of the host delays every unit or frame queued behind
    /// it), so a p99 over the pooled samples follows the run's worst one or
    /// two repetitions; the median over repetitions does not.
    pub fn report(mut self, out: &mut Outcome, what: &str, trace_run: bool) {
        if trace_run {
            let t = median(&mut self.traced_rates);
            out.set("trace.ops_per_s", t);
            let u = median(&mut self.rates.clone());
            let pct = if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 };
            out.set("trace.overhead_pct", pct);
            out.note(format!(
                "tracing overhead: {pct:.1}% ({what}/s {t:.1} traced vs {u:.1} untraced, medians of {} / {} repetitions)",
                self.traced_rates.len(),
                self.rates.len()
            ));
        }
        let setup = median(&mut self.setups);
        let rate = median(&mut self.rates);
        let tail = median(&mut self.tails);
        let latency_note = format!(
            "medians over {} repetitions of {} samples in all; per-repetition p50s {:.3?}, p99s {:.3?}",
            self.p50s.len(),
            self.latency_samples,
            self.p50s,
            self.p99s
        );
        let p50 = median(&mut self.p50s);
        let p99 = median(&mut self.p99s);
        let rss = self
            .peak_rss_mb
            .unwrap_or_else(|| crate::trace::proc_status().0);
        out.set("setup_s", setup);
        out.set("peak_rss_mb", rss);
        if !self.rates.is_empty() {
            out.set("ops_per_s", rate);
            out.set("tail_ops_per_s", tail);
            out.set("latency_p50_ms", p50);
            out.set("latency_p99_ms", p99);
        }
        out.note(format!(
            "{what}_per_s {rate:.1} {what}/s, tail_{what}_per_s {tail:.1} {what}/s (medians of {} untraced repetitions: {:.1?} / {:.1?})",
            self.rates.len(),
            self.rates,
            self.tails
        ));
        out.note(format!(
            "latency p50 {p50:.3} ms, p99 {p99:.3} ms ({latency_note}); setup_s {setup:.6} s (median of {} set-ups); peak_rss_mb {rss:.1} MB",
            self.setups.len()
        ));
    }
}

/// One output check: a name and whether it held, with a detail line.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (units or frames submitted).
    pub attempted: u64,
    /// Failed + never-visible + wrong-output operations.
    pub failed: u64,
    /// Output checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result (issue-facing names,
    /// sample counts, ledger shares).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a check; repeated names (one per repetition) merge: the
    /// check holds only if every repetition held, and a failure's detail
    /// is kept.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                if c.ok || !ok {
                    c.detail = detail.into();
                }
                c.ok &= ok;
            }
            None => self.checks.push(Check::new(name, ok, detail)),
        }
    }

    /// Every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metric table for this run's mode, with values. End-to-end
    /// metrics must all be present; a missing per-layer metric reads 0.
    pub fn table(&self, traced: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let (defs, required) = if traced {
            (PER_LAYER, false)
        } else {
            (END_TO_END, true)
        };
        let mut out = Vec::with_capacity(defs.len());
        for &(name, unit) in defs {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            out.push((name, unit, v));
        }
        Ok(out)
    }
}

/// The single JSON result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str, f64)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in table.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn tail_rate_uses_the_final_tenth() {
        // 100 completions, one per ms, except the final tenth at one per 2 ms.
        let mut t: Vec<f64> = (0..90).map(|i| i as f64 * 1e-3).collect();
        t.extend((1..=10).map(|i| 0.089 + i as f64 * 2e-3));
        let r = tail_rate(&t).expect("enough samples");
        assert!((r - 500.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
