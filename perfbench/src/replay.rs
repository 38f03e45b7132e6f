//! `replay`: Table II's path-finding with writes beside reads. Each pass
//! replays the post-snapshot payment window with the Market Makers and
//! their offers removed (read-mostly: few payments deliver), replays it
//! again on the intact snapshot (write-heavy: about three times as many
//! deliver, and each delivery moves balances and invalidates the router's
//! cached paths), then answers a stream of `Router::deliverable` probes on
//! the final, unmutated ledger (read-only).
//!
//! One process replays one history, generated from `--seed`; `run.py`
//! runs three such processes per `replay` run (see `README.md`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ripple_analytics::mm_removal::request_from_record;
use ripple_check::oracle::max_deliverable_sparse;
use ripple_crypto::AccountId;
use ripple_ledger::{Currency, LedgerState};
use ripple_paths::{PathLimits, PaymentEngine, PaymentRequest, ReplayStats, Router, RouterStats};
use ripple_synth::{payment_probes, Generator, PaymentProbe, PipelineConfig, SynthConfig};

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Generated payments; the replayed window is the organic IOU traffic
/// after the snapshot, about a fifteenth of them.
const PAYMENTS: usize = 12_000;
/// Probes per pass.
const PROBES: usize = 2_000;
/// Probes per pass checked against the max-flow oracle.
const ORACLE_SAMPLE: usize = 8;

/// One generated history's replay inputs.
struct History {
    snapshot: LedgerState,
    final_state: LedgerState,
    makers: Vec<AccountId>,
    window: Vec<PaymentRequest>,
    probes: Vec<PaymentProbe>,
}

/// The ledgers a pass mutates, prepared outside its timing.
struct Prepared {
    mm: LedgerState,
    control: LedgerState,
}

/// What one pass delivered; identical across passes of one seed.
#[derive(Debug, Clone, PartialEq)]
struct Cells {
    mm: ReplayStats,
    control: ReplayStats,
    deliverable: Vec<i128>,
    mm_router: RouterStats,
    control_router: RouterStats,
    probe_router: RouterStats,
}

#[derive(Debug, Default)]
struct Samples {
    mm_s: Vec<f64>,
    control_s: Vec<f64>,
    probe_s: Vec<f64>,
    mm_us: Vec<f64>,
    control_us: Vec<f64>,
    route_us: Vec<f64>,
    clone_s: Vec<f64>,
    strip_sever_s: Vec<f64>,
    generate_s: Vec<f64>,
    bytes_per_event: Vec<f64>,
}

fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.smoke {
        (3_000, 200)
    } else {
        (PAYMENTS, PROBES)
    }
}

/// Generates one history and extracts its replay window and probes.
fn generate(seed: u64, payments: usize, probes: usize, s: &mut Samples) -> Result<History, String> {
    let config = SynthConfig {
        seed,
        payments,
        ..Default::default()
    };
    let t = Instant::now();
    let run = Generator::new(config)
        .run_pipelined(&PipelineConfig::default())
        .map_err(|e| format!("generation failed: {e}"))?;
    s.generate_s.push(t.elapsed().as_secs_f64());
    s.bytes_per_event
        .push(run.bench.encoded_bytes as f64 / run.bench.events.max(1) as f64);
    let output = run.output;
    let (at, snapshot) = output
        .snapshot
        .clone()
        .ok_or("the generated window holds no snapshot")?;
    // The window Table II replays: organic IOU traffic after the
    // snapshot; the MTL and CCK spam rides its own chains.
    let window: Vec<PaymentRequest> = output
        .payments()
        .filter(|p| {
            p.timestamp >= at
                && !p.currency.is_xrp()
                && p.currency != Currency::MTL
                && p.currency != Currency::CCK
        })
        .map(request_from_record)
        .collect();
    if window.is_empty() {
        return Err("empty replay window".to_string());
    }
    Ok(History {
        snapshot,
        makers: output.cast.market_makers.clone(),
        probes: payment_probes(&output.cast, seed, probes),
        final_state: output.final_state,
        window,
    })
}

/// Clones the snapshot twice and strips one clone of its Market Makers
/// and offers, timing both steps.
fn prepare(h: &History, s: &mut Samples) -> Prepared {
    let t = Instant::now();
    let mut mm = h.snapshot.clone();
    let control = h.snapshot.clone();
    s.clone_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    mm.strip_all_offers();
    for &maker in &h.makers {
        mm.sever_account(maker);
    }
    s.strip_sever_s.push(t.elapsed().as_secs_f64());
    Prepared { mm, control }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (payments, probes) = sizes(ctx);
    let mut o = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let mut s = Samples::default();
    let mut sizes_seen = (0usize, 0usize, 0.0f64, 0.0f64);
    let mut first: Option<Cells> = None;
    ctx.run_passes(|i, traced| {
        // Set-up, once per pass: generate the history afresh and prepare
        // its ledgers. Each pass is then an independent run of the same
        // seed, so the cross-pass checks compare separate generations.
        let t = Instant::now();
        o.attempted += 1;
        let history = match generate(ctx.seed, payments, probes, &mut s) {
            Ok(history) => history,
            Err(err) => return o.check(false, &err),
        };
        let prepared = prepare(&history, &mut s);
        o.setup_s.push(t.elapsed().as_secs_f64());
        let (window, n_probes) = (history.window.len(), history.probes.len());
        sizes_seen = (
            window,
            n_probes,
            history.snapshot.account_count() as f64,
            history.snapshot.trust_lines().count() as f64,
        );

        let mut tr = Tracer::new(traced);
        let result = catch_unwind(AssertUnwindSafe(|| pass(&history, prepared, &mut tr)));
        let Ok((wall, cells, local)) = result else {
            o.check(false, "replay pass panicked");
            return;
        };
        o.attempted += (2 * window + n_probes) as u64;
        if traced {
            o.traced_wall_s.push(wall);
            o.spans.merge(&tr.summary());
        } else {
            o.untraced_wall_s.push(wall);
            for (all, mine) in [
                (&mut s.mm_s, local.mm_s),
                (&mut s.control_s, local.control_s),
                (&mut s.probe_s, local.probe_s),
                (&mut s.mm_us, local.mm_us),
                (&mut s.control_us, local.control_us),
                (&mut s.route_us, local.route_us),
            ] {
                all.extend(mine);
            }
        }

        let t = Instant::now();
        match &first {
            None => first = Some(cells.clone()),
            Some(c) => o.check(
                *c == cells,
                "Table II cells or probe results differ between passes",
            ),
        }
        // A sliding sample of the probe stream against brute-force max
        // flow: the router may find less than the maximum under its path
        // limits, never more.
        for k in 0..ORACLE_SAMPLE {
            let idx = (i * ORACLE_SAMPLE + k) % n_probes;
            let p = &history.probes[idx];
            let truth = max_deliverable_sparse(
                &history.final_state,
                p.sender,
                p.destination,
                p.currency,
                p.amount.raw(),
            );
            let routed = cells.deliverable[idx].min(p.amount.raw());
            o.check(
                routed <= truth,
                &format!("probe {idx}: router delivers {routed}, max flow is {truth}"),
            );
        }
        o.check_s += t.elapsed().as_secs_f64();
    });

    let (window, n_probes, accounts, trust_lines) = sizes_seen;
    let med = |v: &[f64]| Summary::of(v).median;
    let mm_rate: Vec<f64> = s.mm_s.iter().map(|t| window as f64 / t).collect();
    let control_rate: Vec<f64> = s.control_s.iter().map(|t| window as f64 / t).collect();
    // Both replays together: Table II as a user runs it. The removal
    // replay alone is too short a phase to time steadily on a shared host
    // (runs of one seed differ by up to a fifth), so its own rate is
    // reported but not bounded.
    let table2_rate: Vec<f64> = s
        .mm_s
        .iter()
        .zip(&s.control_s)
        .map(|(mm, control)| (2 * window) as f64 / (mm + control))
        .collect();
    let probe_rate: Vec<f64> = s.probe_s.iter().map(|t| n_probes as f64 / t).collect();
    let (mm_us, control_us, route_us) = (
        Summary::of(&s.mm_us),
        Summary::of(&s.control_us),
        Summary::of(&s.route_us),
    );

    o.end_to_end.insert("pass_s", med(&o.untraced_wall_s));
    o.end_to_end.insert("rate1_per_s", med(&table2_rate));
    o.end_to_end.insert("rate2_per_s", med(&control_rate));
    o.end_to_end.insert("rate3_per_s", med(&probe_rate));
    o.end_to_end.insert("p50_us", control_us.median);
    o.end_to_end.insert("p99_us", control_us.p99);

    o.name(
        "table2_replay_payments_per_s",
        "1/s",
        Summary::of(&table2_rate),
    );
    o.name("mm_replay_payments_per_s", "1/s", Summary::of(&mm_rate));
    o.name(
        "control_replay_payments_per_s",
        "1/s",
        Summary::of(&control_rate),
    );
    o.name("probes_per_s", "1/s", Summary::of(&probe_rate));
    o.name("paths.mm_pay_us", "us", mm_us);
    o.name("paths.control_pay_us", "us", control_us);
    o.name("paths.route_us", "us", route_us);

    let layer = &mut o.per_layer;
    layer.insert("synth.generate_s", med(&s.generate_s));
    layer.insert(
        "synth.ns_per_payment",
        med(&s.generate_s) / payments as f64 * 1e9,
    );
    layer.insert("store.bytes_per_event", med(&s.bytes_per_event));
    layer.insert("ledger.snapshot_clone_s", med(&s.clone_s));
    layer.insert("ledger.strip_sever_s", med(&s.strip_sever_s));
    layer.insert("ledger.accounts", accounts);
    layer.insert("ledger.trust_lines", trust_lines);
    layer.insert("paths.mm_pay_us.p50", mm_us.median);
    layer.insert("paths.mm_pay_us.p99", mm_us.p99);
    layer.insert("paths.control_pay_us.p50", control_us.median);
    layer.insert("paths.control_pay_us.p99", control_us.p99);
    layer.insert("paths.route_us.p50", route_us.median);
    layer.insert("paths.route_us.p99", route_us.p99);
    if let Some(c) = &first {
        for (hit_key, invalidations_key, stats) in [
            (
                "paths.router_hit_ratio.mm",
                "paths.router_invalidations.mm",
                c.mm_router,
            ),
            (
                "paths.router_hit_ratio.control",
                "paths.router_invalidations.control",
                c.control_router,
            ),
            (
                "paths.router_hit_ratio.probe",
                "paths.router_invalidations.probe",
                c.probe_router,
            ),
        ] {
            layer.insert(hit_key, stats.hits as f64 / stats.queries.max(1) as f64);
            layer.insert(invalidations_key, stats.invalidations as f64);
        }
        let mm_ratio = c.mm.total_delivered() as f64 / window.max(1) as f64;
        let control_ratio = c.control.total_delivered() as f64 / window.max(1) as f64;
        layer.insert("paths.mm_delivered_ratio", mm_ratio);
        layer.insert("paths.control_delivered_ratio", control_ratio);
        o.name("paths.mm_delivered_ratio", "ratio", Summary::one(mm_ratio));
        o.name(
            "paths.control_delivered_ratio",
            "ratio",
            Summary::one(control_ratio),
        );
    }
    o
}

/// Replays `requests` on `state` through one fresh engine, timing each
/// payment. An undelivered payment is an output of Table II, not an error.
fn replay_phase(
    tr: &mut Tracer,
    span: &'static str,
    state: &mut LedgerState,
    requests: &[PaymentRequest],
    latencies: &mut Vec<f64>,
) -> (ReplayStats, RouterStats) {
    let engine = PaymentEngine::new();
    let mut stats = ReplayStats::default();
    for request in requests {
        let id = tr.enter(span);
        let t = Instant::now();
        let delivered = engine.pay(state, request).is_ok();
        latencies.push(t.elapsed().as_nanos() as f64 / 1e3);
        tr.exit(id);
        let (submitted, ok) = if request.is_cross_currency() {
            (&mut stats.cross_submitted, &mut stats.cross_delivered)
        } else {
            (&mut stats.single_submitted, &mut stats.single_delivered)
        };
        *submitted += 1;
        *ok += u64::from(delivered);
    }
    (stats, engine.router_stats())
}

/// One timed pass over freshly prepared ledgers: the
/// Market-Maker-removal replay, then the control replay, then the probe
/// stream.
fn pass(h: &History, mut prepared: Prepared, tr: &mut Tracer) -> (f64, Cells, Samples) {
    let mut local = Samples::default();
    let started = Instant::now();
    let root = tr.enter("bench.pass");

    let t = Instant::now();
    let (mm, mm_router) = replay_phase(
        tr,
        "paths.mm_pay",
        &mut prepared.mm,
        &h.window,
        &mut local.mm_us,
    );
    local.mm_s.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    let (control, control_router) = replay_phase(
        tr,
        "paths.control_pay",
        &mut prepared.control,
        &h.window,
        &mut local.control_us,
    );
    local.control_s.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut router = Router::new(PathLimits::default());
    let deliverable: Vec<i128> = h
        .probes
        .iter()
        .map(|p| {
            let id = tr.enter("paths.route");
            let q = Instant::now();
            let value = router.deliverable(&h.final_state, p.sender, p.destination, p.currency);
            local.route_us.push(q.elapsed().as_nanos() as f64 / 1e3);
            tr.exit(id);
            value.raw()
        })
        .collect();
    local.probe_s.push(t.elapsed().as_secs_f64());

    tr.exit(root);
    let wall = started.elapsed().as_secs_f64();
    let cells = Cells {
        mm,
        control,
        deliverable,
        mm_router,
        control_router,
        probe_router: router.stats(),
    };
    (wall, cells, local)
}
