//! `reproduce`: the researcher's run. Each pass generates a history through
//! the pipelined generator, decodes the archive it wrote, and runs Fig. 2,
//! the Fig. 3 sweep, Fig. 4–6, Fig. 7, offer concentration and the
//! timeline over the decoded payments.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ripple_analytics::{
    currency_usage, hubs::hub_report, monthly_timeline, offer_concentration,
    parallel_path_histogram, path_hop_histogram, user_stats, SurvivalCurve,
};
use ripple_consensus::CollectionPeriod;
use ripple_crypto::AccountId;
use ripple_deanon::{figure3_sweep, information_gain, EngineConfig, ResolutionSpec};
use ripple_ledger::{Currency, PaymentRecord};
use ripple_orderbook::RateTable;
use ripple_store::{HistoryEvent, Reader};
use ripple_synth::{Generator, PipelineConfig, SynthConfig};

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Generated payments per pass.
const PAYMENTS: usize = 40_000;
/// Consensus rounds per Fig. 2 collection period.
const ROUNDS: u64 = 2_000;
/// Every `DECODE_SAMPLE`-th record decode is timed on its own.
const DECODE_SAMPLE: usize = 16;
/// Fig. 5's per-currency series, as the paper plots them.
const FIG5_CURRENCIES: [Currency; 7] = [
    Currency::BTC,
    Currency::CCK,
    Currency::CNY,
    Currency::EUR,
    Currency::MTL,
    Currency::USD,
    Currency::XRP,
];

fn sizes(ctx: &Ctx) -> (usize, u64) {
    if ctx.smoke {
        (3_000, 50)
    } else {
        (PAYMENTS, ROUNDS)
    }
}

fn config(ctx: &Ctx, payments: usize) -> SynthConfig {
    SynthConfig {
        seed: ctx.seed,
        payments,
        ..Default::default()
    }
}

/// Per-pass timings, seconds.
#[derive(Debug, Default)]
struct Samples {
    generate: Vec<f64>,
    decode: Vec<f64>,
    fig2: Vec<f64>,
    fig3: Vec<f64>,
    fig4_6: Vec<f64>,
    fig7: Vec<f64>,
    offers: Vec<f64>,
    timeline: Vec<f64>,
    records: Vec<f64>,
    decode_record_us: Vec<f64>,
}

/// What a pass produced that the checks compare across passes.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    events: usize,
    fig2_observed: Vec<usize>,
    fig3: Vec<(u64, u64, u64)>,
    fig4: Vec<(Currency, u64)>,
    fig7_multi_hop: u64,
    offers: u64,
    months: usize,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (payments, rounds) = sizes(ctx);
    let mut o = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    // Set-up is the warm-up: thread pools, allocator arenas and page
    // faults of a first generation are paid here, outside every pass.
    for _ in 0..3 {
        let t = Instant::now();
        let run = Generator::new(config(ctx, payments)).run_pipelined(&PipelineConfig::default());
        o.setup_s.push(t.elapsed().as_secs_f64());
        o.attempted += 1;
        match run {
            Ok(run) => drop(black_box(run)),
            Err(err) => o.check(false, &format!("warm-up generation failed: {err}")),
        }
    }

    let mut s = Samples::default();
    let mut first: Option<Digest> = None;
    let mut state_sizes = (0.0, 0.0, 0.0);
    ctx.run_passes(|i, traced| {
        let mut tr = Tracer::new(traced);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pass(ctx, payments, rounds, i, &mut tr, &mut s, &mut o)
        }));
        match result {
            Ok(Some((wall, digest, sizes))) => {
                if traced {
                    o.traced_wall_s.push(wall);
                    o.spans.merge(&tr.summary());
                } else {
                    o.untraced_wall_s.push(wall);
                }
                state_sizes = sizes;
                let t = Instant::now();
                match &first {
                    None => first = Some(digest),
                    Some(d) => o.check(*d == digest, "reproduce outputs differ between passes"),
                }
                o.check_s += t.elapsed().as_secs_f64();
            }
            Ok(None) => {}
            Err(_) => o.check(false, "reproduce pass panicked"),
        }
    });

    let med = |v: &[f64]| Summary::of(v).median;
    let p = payments as f64;
    let studies: Vec<f64> = o
        .untraced_wall_s
        .iter()
        .zip(&s.generate)
        .map(|(w, g)| w - g)
        .collect();
    let generate_rate: Vec<f64> = s.generate.iter().map(|g| p / g).collect();
    let studies_rate: Vec<f64> = studies.iter().map(|t| p / t).collect();
    let decode_rate: Vec<f64> = s
        .records
        .iter()
        .zip(&s.decode)
        .map(|(r, d)| r / d)
        .collect();
    let decode_us = Summary::of(&s.decode_record_us);

    o.end_to_end.insert("pass_s", med(&o.untraced_wall_s));
    o.end_to_end.insert("rate1_per_s", med(&generate_rate));
    o.end_to_end.insert("rate2_per_s", med(&studies_rate));
    o.end_to_end.insert("rate3_per_s", med(&decode_rate));
    o.end_to_end.insert("p50_us", decode_us.median);
    o.end_to_end.insert("p99_us", decode_us.p99);

    o.name("reproduce_s", "s", Summary::of(&o.untraced_wall_s));
    o.name(
        "generate_payments_per_s",
        "1/s",
        Summary::of(&generate_rate),
    );
    o.name("studies_s", "s", Summary::of(&studies));
    o.name("decode_records_per_s", "1/s", Summary::of(&decode_rate));
    o.name("decode_record_us", "us", decode_us);

    let rows = ResolutionSpec::figure3_rows().len() as f64;
    let records = med(&s.records);
    let layer = &mut o.per_layer;
    layer.insert("synth.generate_s", med(&s.generate));
    layer.insert("synth.ns_per_payment", med(&s.generate) / p * 1e9);
    layer.insert("store.decode_ns_per_record", med(&s.decode) / records * 1e9);
    layer.insert("store.bytes_per_event", state_sizes.2);
    layer.insert("deanon.fig3_s", med(&s.fig3));
    layer.insert("deanon.ns_per_payment_row", med(&s.fig3) / (p * rows) * 1e9);
    layer.insert("analytics.fig4_6_s", med(&s.fig4_6));
    layer.insert("analytics.fig7_s", med(&s.fig7));
    layer.insert("analytics.offers_s", med(&s.offers));
    layer.insert("analytics.timeline_s", med(&s.timeline));
    layer.insert("consensus.fig2_s", med(&s.fig2));
    layer.insert("consensus.rounds_per_s", 3.0 * rounds as f64 / med(&s.fig2));
    layer.insert("ledger.accounts", state_sizes.0);
    layer.insert("ledger.trust_lines", state_sizes.1);
    o
}

/// Times `f` as one span and one sample.
fn timed<T>(tr: &mut Tracer, name: &'static str, out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let span = tr.enter(name);
    let t = Instant::now();
    let value = f();
    out.push(t.elapsed().as_secs_f64());
    tr.exit(span);
    value
}

/// One timed pass. Returns its wall time, the digest the cross-pass check
/// compares, and the (accounts, trust lines, archive bytes per event)
/// working-set sizes; `None` when a call failed (already counted).
#[allow(clippy::type_complexity)]
fn pass(
    ctx: &Ctx,
    payments: usize,
    rounds: u64,
    index: usize,
    tr: &mut Tracer,
    s: &mut Samples,
    o: &mut Outcome,
) -> Option<(f64, Digest, (f64, f64, f64))> {
    let mut local = Samples::default();
    let started = Instant::now();
    let root = tr.enter("bench.pass");

    let generated = timed(tr, "synth.generate", &mut local.generate, || {
        Generator::new(config(ctx, payments)).run_pipelined(&PipelineConfig::default())
    });
    o.attempted += 1;
    let run = match generated {
        Ok(run) => run,
        Err(err) => {
            tr.exit(root);
            o.check(false, &format!("generation failed: {err}"));
            return None;
        }
    };
    let Some(archive) = run.archive.as_deref() else {
        tr.exit(root);
        o.check(false, "the pipelined generator wrote no archive");
        return None;
    };

    let decoded = timed(tr, "store.decode", &mut local.decode, || {
        decode(archive, run.bench.events, &mut local.decode_record_us)
    });
    o.attempted += 1;
    let events = match decoded {
        Ok(events) => events,
        Err(err) => {
            tr.exit(root);
            o.check(false, &format!("archive decode failed: {err}"));
            return None;
        }
    };
    let arena: Vec<&PaymentRecord> = events
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Payment(p) => Some(p),
            _ => None,
        })
        .collect();

    let fig2 = timed(tr, "consensus.fig2", &mut local.fig2, || {
        CollectionPeriod::all()
            .into_iter()
            .map(|period| period.run(rounds, ctx.seed).report().observed())
            .collect::<Vec<usize>>()
    });
    let fig3 = timed(tr, "deanon.fig3", &mut local.fig3, || {
        figure3_sweep(&arena, EngineConfig::default())
    });
    let fig4 = timed(tr, "analytics.fig4_6", &mut local.fig4_6, || {
        let usage = currency_usage(arena.iter().copied());
        let mut curves = vec![SurvivalCurve::build(arena.iter().copied(), None)];
        for c in FIG5_CURRENCIES {
            curves.push(SurvivalCurve::build(arena.iter().copied(), Some(c)));
        }
        black_box(curves);
        black_box(path_hop_histogram(arena.iter().copied()));
        black_box(parallel_path_histogram(arena.iter().copied()));
        usage
    });
    let fig7 = timed(tr, "analytics.fig7", &mut local.fig7, || {
        let names: HashMap<AccountId, String> = run
            .output
            .cast
            .gateways
            .iter()
            .map(|g| (g.account, g.name.clone()))
            .collect();
        hub_report(
            arena.iter().copied(),
            &run.output.final_state,
            &names,
            &RateTable::eur_2015(),
            50,
        )
    });
    let offers = timed(tr, "analytics.offers", &mut local.offers, || {
        offer_concentration(events.iter())
    });
    let months = timed(tr, "analytics.timeline", &mut local.timeline, || {
        black_box(user_stats(events.iter()));
        monthly_timeline(arena.iter().copied()).len()
    });
    // Three Fig. 2 periods, then Fig. 3, Fig. 4-6, Fig. 7, offers, timeline.
    o.attempted += 3 + 5;

    tr.exit(root);
    let wall = started.elapsed().as_secs_f64();

    // Checks, outside the timed pass.
    let t = Instant::now();
    o.check(
        events.len() == run.output.events.len(),
        &format!(
            "decoded {} records, generator produced {} events",
            events.len(),
            run.output.events.len()
        ),
    );
    let (label, spec) = ResolutionSpec::figure3_rows()[index % fig3.rows.len()];
    let serial = information_gain(arena.iter().copied(), spec);
    let row = &fig3.rows[index % fig3.rows.len()].strict;
    o.check(
        serial.unique == row.unique && serial.total == row.total,
        &format!(
            "Fig. 3 row {label}: sweep {}/{} vs serial information_gain {}/{}",
            row.unique, row.total, serial.unique, serial.total
        ),
    );
    let mut tallied: Vec<(Currency, u64)> = run
        .tallies
        .currency_counts
        .iter()
        .map(|(&c, &n)| (c, n))
        .collect();
    tallied.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    o.check(
        tallied == fig4,
        "Fig. 4 over the decoded archive differs from the generator's own tallies",
    );
    let digest = Digest {
        events: events.len(),
        fig2_observed: fig2,
        fig3: fig3
            .rows
            .iter()
            .map(|r| (r.strict.unique, r.sender.unique, r.classes))
            .collect(),
        fig4,
        fig7_multi_hop: fig7.multi_hop_payments,
        offers: offers.total,
        months,
    };
    let sizes = (
        run.output.final_state.account_count() as f64,
        run.output.final_state.trust_lines().count() as f64,
        archive.len() as f64 / events.len().max(1) as f64,
    );
    o.check_s += t.elapsed().as_secs_f64();

    if !tr.enabled() {
        s.records.push(events.len() as f64);
        for (all, mine) in [
            (&mut s.generate, local.generate),
            (&mut s.decode, local.decode),
            (&mut s.fig2, local.fig2),
            (&mut s.fig3, local.fig3),
            (&mut s.fig4_6, local.fig4_6),
            (&mut s.fig7, local.fig7),
            (&mut s.offers, local.offers),
            (&mut s.timeline, local.timeline),
            (&mut s.decode_record_us, local.decode_record_us),
        ] {
            all.extend(mine);
        }
    }
    Some((wall, digest, sizes))
}

/// Decodes every record of `archive`, timing every
/// [`DECODE_SAMPLE`]-th decode on its own (microseconds, into `sampled`).
fn decode(
    archive: &[u8],
    expected: usize,
    sampled: &mut Vec<f64>,
) -> Result<Vec<HistoryEvent>, ripple_store::StoreError> {
    let mut reader = Reader::new(archive)?;
    let mut events = Vec::with_capacity(expected);
    loop {
        let next = if events.len() % DECODE_SAMPLE == 0 {
            let t = Instant::now();
            let next = reader.next_event()?;
            sampled.push(t.elapsed().as_nanos() as f64 / 1e3);
            next
        } else {
            reader.next_event()?
        };
        match next {
            Some(event) => events.push(event),
            None => return Ok(events),
        }
    }
}
