//! The repository benchmark. See `README.md` beside this crate for the
//! workloads, their sizes and what each metric means.
//!
//! ```text
//! perfbench --workload reproduce|replay|serve --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each invocation runs one workload in this process: it sets up several
//! times (reporting the median as `setup_s`), then runs timed passes until
//! `--seconds` have gone by, checks every pass's outputs against
//! references that do not share the code under test, prints a report, and
//! ends with one JSON line holding the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). `--smoke` shrinks every size so
//! that the benchmark's own tests can run each workload in seconds.

mod replay;
mod reproduce;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use stats::Summary;
use trace::SpanSummary;

/// The end-to-end metrics every workload prints with `--trace 0`, with
/// their units. What each means per workload is tabulated in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("rate1_per_s", "1/s"),
    ("rate2_per_s", "1/s"),
    ("rate3_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// that a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.self_s", "s"),
    ("synth.generate_s", "s"),
    ("synth.ns_per_payment", "ns"),
    ("store.self_s", "s"),
    ("store.decode_ns_per_record", "ns"),
    ("store.bytes_per_event", "B"),
    ("store.sidecar_bytes_per_archive_byte", "ratio"),
    ("deanon.self_s", "s"),
    ("deanon.fig3_s", "s"),
    ("deanon.ns_per_payment_row", "ns"),
    ("analytics.self_s", "s"),
    ("analytics.fig4_6_s", "s"),
    ("analytics.fig7_s", "s"),
    ("analytics.offers_s", "s"),
    ("analytics.timeline_s", "s"),
    ("consensus.self_s", "s"),
    ("consensus.fig2_s", "s"),
    ("consensus.rounds_per_s", "1/s"),
    ("ledger.snapshot_clone_s", "s"),
    ("ledger.strip_sever_s", "s"),
    ("ledger.accounts", "count"),
    ("ledger.trust_lines", "count"),
    ("paths.self_s", "s"),
    ("paths.mm_pay_us.p50", "us"),
    ("paths.mm_pay_us.p99", "us"),
    ("paths.control_pay_us.p50", "us"),
    ("paths.control_pay_us.p99", "us"),
    ("paths.route_us.p50", "us"),
    ("paths.route_us.p99", "us"),
    ("paths.router_hit_ratio.mm", "ratio"),
    ("paths.router_hit_ratio.control", "ratio"),
    ("paths.router_hit_ratio.probe", "ratio"),
    ("paths.router_invalidations.mm", "count"),
    ("paths.router_invalidations.control", "count"),
    ("paths.router_invalidations.probe", "count"),
    ("paths.mm_delivered_ratio", "ratio"),
    ("paths.control_delivered_ratio", "ratio"),
    ("query.self_s", "s"),
    ("query.open_s", "s"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.cache_resident_bytes", "B"),
    ("query.events_per_scan", "count"),
    ("query.flow_us.p99", "us"),
    ("query.class_us.p99", "us"),
    ("bench.self_s", "s"),
    ("bench.check_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.attribution", "ratio"),
];

/// Layers whose span self times are reported as `<layer>.self_s`.
const LAYERS: &[&str] = &[
    "synth",
    "store",
    "deanon",
    "analytics",
    "consensus",
    "paths",
    "query",
];

/// Share of the traced wall time that the layer spans must explain.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Whether to record spans in alternate passes.
    pub trace: bool,
    /// Tiny sizes for the benchmark's own tests.
    pub smoke: bool,
}

impl Ctx {
    /// Passes run whatever the time budget: enough for a median, and in a
    /// traced run enough for both traced and untraced medians.
    pub fn min_passes(&self) -> usize {
        if self.trace {
            4
        } else {
            3
        }
    }

    /// Runs `pass(index, traced)` until the budget is spent and at least
    /// [`Ctx::min_passes`] passes ran. A traced run alternates untraced and
    /// traced passes, so both see the same state of the machine.
    pub fn run_passes(&self, mut pass: impl FnMut(usize, bool)) {
        let start = Instant::now();
        let mut i = 0;
        while i < self.min_passes() || start.elapsed().as_secs_f64() < self.seconds {
            pass(i, self.trace && i % 2 == 1);
            i += 1;
        }
    }
}

/// One metric named in the report, with its unit and sample summary.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub summary: Summary,
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (layer calls, payments, probes, lookups).
    pub attempted: u64,
    /// Operations that failed a check, returned an unexpected error or
    /// panicked.
    pub failed: u64,
    /// Output checks run.
    pub checks: u64,
    /// Seconds spent in the benchmark's own checks, outside every timing.
    pub check_s: f64,
    /// One sample per set-up.
    pub setup_s: Vec<f64>,
    /// Threads whose spans cover the timed wall time (clients in `serve`).
    pub threads: usize,
    /// Wall seconds of each untraced pass.
    pub untraced_wall_s: Vec<f64>,
    /// Wall seconds of each traced pass.
    pub traced_wall_s: Vec<f64>,
    /// Span self times over the traced passes.
    pub spans: SpanSummary,
    /// End-to-end values other than `setup_s` and `peak_rss_mb`.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values other than the span-derived ones.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Metrics under the names the workload's description uses, for the
    /// human-readable report.
    pub named: Vec<Named>,
}

impl Outcome {
    /// Records a metric under its descriptive name, for the report.
    pub fn name(&mut self, name: &'static str, unit: &'static str, summary: Summary) {
        self.named.push(Named {
            name,
            unit,
            summary,
        });
    }

    /// Counts one check and its result.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload reproduce|replay|serve --seed N --seconds S --trace 0|1 \
         [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                ctx.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => ctx.smoke = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let started = Instant::now();
    let outcome = match workload.as_str() {
        "reproduce" => reproduce::run(&ctx),
        "replay" => replay::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => usage(),
    };
    let peak_rss_mb = match peak_rss_mb() {
        Some(mb) => mb,
        None => {
            eprintln!("cannot read VmHWM from /proc/self/status");
            std::process::exit(1);
        }
    };
    let metrics = select_metrics(&ctx, &outcome, peak_rss_mb);
    print_report(&workload, &ctx, &outcome, &metrics, started);
    println!("{}", result_line(&outcome, &metrics));
}

/// The metrics of the final line: every end-to-end metric, or every
/// per-layer metric in a traced run.
fn select_metrics(
    ctx: &Ctx,
    o: &Outcome,
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    if !ctx.trace {
        return END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => Summary::of(&o.setup_s).median,
                    "peak_rss_mb" => peak_rss_mb,
                    _ => *o
                        .end_to_end
                        .get(name)
                        .unwrap_or_else(|| panic!("workload did not measure {name}")),
                };
                (name, unit, value)
            })
            .collect();
    }
    let mut layer: BTreeMap<&'static str, f64> = o.per_layer.clone();
    for l in LAYERS {
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| *n == format!("{l}.self_s"))
            .expect("every layer has a self_s metric")
            .0;
        layer.insert(key, o.spans.layer_self_s(l));
    }
    layer.insert("bench.self_s", o.spans.layer_self_s("bench"));
    layer.insert("bench.check_s", o.check_s);
    layer.insert("bench.trace_overhead", trace_overhead(o));
    layer.insert("bench.attribution", attribution(o));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Median traced pass wall time over median untraced pass wall time.
fn trace_overhead(o: &Outcome) -> f64 {
    let traced = Summary::of(&o.traced_wall_s).median;
    let untraced = Summary::of(&o.untraced_wall_s).median;
    if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    }
}

/// Share of the traced passes' thread time that layer spans explain.
fn attribution(o: &Outcome) -> f64 {
    let wall: f64 = o.traced_wall_s.iter().sum::<f64>() * o.threads.max(1) as f64;
    if wall <= 0.0 {
        return 0.0;
    }
    LAYERS.iter().map(|l| o.spans.layer_self_s(l)).sum::<f64>() / wall
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_report(
    workload: &str,
    ctx: &Ctx,
    o: &Outcome,
    metrics: &[(&'static str, &'static str, f64)],
    started: Instant,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "perfbench {workload}: seed {} | {}s budget | trace {} | smoke {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.smoke
    );
    println!(
        "host: nproc {nproc} | {} | commit {}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    );
    println!(
        "repeats: {} set-ups, {} untraced + {} traced passes, {:.1}s total",
        o.setup_s.len(),
        o.untraced_wall_s.len(),
        o.traced_wall_s.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "{:<34} {:>6} {:>7} {:>14} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3", "p99"
    );
    let setup = Summary::of(&o.setup_s);
    let rows = std::iter::once(("setup_s", "s", setup))
        .chain(o.named.iter().map(|n| (n.name, n.unit, n.summary)));
    for (name, unit, s) in rows {
        let tail = if s.n > 1 && !s.p99_supported() && unit == "us" {
            " (p99 has <10 samples beyond it)"
        } else {
            ""
        };
        println!(
            "{name:<34} {unit:>6} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>14.6}{tail}",
            s.n, s.median, s.q1, s.q3, s.p99
        );
    }
    println!(
        "checks: {} run, {} failed ops of {} attempted, {:.3}s in checks (excluded from every timing)",
        o.checks, o.failed, o.attempted, o.check_s
    );
    if ctx.trace {
        print_attribution(o);
    }
    let kind = if ctx.trace { "per-layer" } else { "end-to-end" };
    println!("{kind} metrics:");
    for (name, unit, value) in metrics {
        println!("  {name:<38} {value:>18.6} {unit}");
    }
}

/// The attribution check: layer self times must explain the traced wall
/// time within [`ATTRIBUTION_TOLERANCE`]; the spans that do not are named.
fn print_attribution(o: &Outcome) {
    let wall = o.traced_wall_s.iter().sum::<f64>() * o.threads.max(1) as f64;
    println!(
        "spans over {} traced passes ({} threads):",
        o.traced_wall_s.len(),
        o.threads
    );
    for (name, t) in &o.spans.by_name {
        println!(
            "  {name:<24} {:>9} calls {:>12.6}s self {:>12.1}ns/call",
            t.calls,
            t.self_ns as f64 / 1e9,
            t.self_ns as f64 / t.calls.max(1) as f64
        );
    }
    let share = attribution(o);
    let untraced = (wall - o.spans.total_self_s()).max(0.0);
    let gaps: Vec<String> = o
        .spans
        .by_name
        .iter()
        .filter(|(name, _)| trace::layer_of(name) == "bench")
        .map(|(name, t)| format!("{name} {:.6}s", t.self_ns as f64 / 1e9))
        .chain(std::iter::once(format!("outside any span {untraced:.6}s")))
        .collect();
    println!(
        "attribution: layer spans explain {:.2}% of {:.6}s thread wall time (tolerance {:.0}%): {}",
        share * 100.0,
        wall,
        ATTRIBUTION_TOLERANCE * 100.0,
        if 1.0 - share <= ATTRIBUTION_TOLERANCE {
            "within tolerance"
        } else {
            "GAP beyond tolerance"
        }
    );
    println!("gap by span: {}", gaps.join(", "));
    println!("trace overhead: {:.4}x", trace_overhead(o));
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(o: &Outcome, metrics: &[(&'static str, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}
