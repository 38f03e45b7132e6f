//! `serve`: a closed loop of one client per core calling `QueryEngine`
//! in-process. About 90% of calls are point lookups (an account's most
//! recent event); the rest are split between time-range scans, per-day
//! flow aggregates and fingerprint-class queries. Account picks are
//! skewed quadratically toward the busiest accounts, as the repository's
//! own load generator skews them. The archive is larger than the default
//! block cache, so the cache both hits and evicts.

use std::panic::catch_unwind;
use std::time::Instant;

use ripple_crypto::AccountId;
use ripple_deanon::{Observation, ResolutionSpec};
use ripple_ledger::{Currency, RippleTime};
use ripple_query::{EngineConfig, QueryEngine};
use ripple_synth::{Generator, PipelineConfig, SynthConfig};

use crate::stats::Summary;
use crate::trace::{SpanSummary, Tracer};
use crate::{Ctx, Outcome};

/// Generated payments: about 98 MB of archive against the 64 MB cache.
const PAYMENTS: usize = 200_000;
/// Operations per client per pass.
const OPS_PER_CLIENT: usize = 20_000;
/// Percent of operations that are point lookups.
const POINT_PCT: u64 = 90;
/// Events a point lookup returns: the account's most recent one.
const POINT_LIMIT: usize = 1;
/// Events a range scan visits before it stops.
const SCAN_LIMIT: usize = 128;
/// Linear rescans per run checking point lookups (each reads the whole
/// archive).
const RESCAN_CHECKS: usize = 3;

fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.smoke {
        (3_000, 500)
    } else {
        (PAYMENTS, OPS_PER_CLIENT)
    }
}

/// Query keys drawn from the archive once at set-up.
struct Keys {
    /// Accounts by descending activity, ties broken on bytes.
    accounts: Vec<AccountId>,
    flows: Vec<(Currency, RippleTime)>,
    observations: Vec<Observation>,
    bounds: (u64, u64),
}

#[derive(Debug, Default)]
struct ClientResult {
    point_us: Vec<f64>,
    scan_us: Vec<f64>,
    flow_us: Vec<f64>,
    class_us: Vec<f64>,
    scan_events: u64,
    failed: u64,
    spans: SpanSummary,
}

/// splitmix64: small, seedable, spreads keys.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Quadratic skew over an activity-sorted list: the busiest accounts
/// absorb most picks.
fn pick_skewed(r: u64, n: usize) -> usize {
    let x = (r % n as u64) as u128;
    ((x * x) / n as u128) as usize
}

struct Served {
    engine: QueryEngine,
    keys: Keys,
    archive_bytes: usize,
    sidecar_bytes: u64,
    records: u64,
}

/// Generates the archive, opens the engine over it, and draws the keys.
/// Returns the served state plus the generation and open times.
fn setup(ctx: &Ctx) -> Result<(Served, f64, f64), String> {
    let config = SynthConfig {
        seed: ctx.seed,
        payments: sizes(ctx).0,
        ..Default::default()
    };
    let t = Instant::now();
    let run = Generator::new(config)
        .run_pipelined(&PipelineConfig::default())
        .map_err(|e| format!("generation failed: {e}"))?;
    let generate_s = t.elapsed().as_secs_f64();
    // Only the archive is served; the in-memory history goes before the
    // engine opens.
    let archive = run
        .archive
        .ok_or("the pipelined generator wrote no archive")?;
    drop((run.output, run.arena, run.tallies));
    let archive_bytes = archive.len();

    let t = Instant::now();
    let (engine, build) = QueryEngine::open(archive, &EngineConfig::default())
        .map_err(|e| format!("query engine open failed: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();

    let mut by_activity: Vec<(usize, AccountId)> = engine
        .postings()
        .iter_accounts()
        .map(|(account, offsets)| (offsets.len(), *account))
        .collect();
    by_activity.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.as_bytes().cmp(b.1.as_bytes()))
    });
    let mut flows: Vec<(Currency, RippleTime)> = engine
        .postings()
        .iter_flows()
        .map(|(&(currency, day), _)| (currency, RippleTime::from_seconds(day)))
        .collect();
    flows.sort_by_key(|&(c, d)| (*c.as_bytes(), d.seconds()));
    // Building the class index here keeps its one-time cost in set-up,
    // as a server warms its indexes at start-up.
    let arena = engine.payment_arena();
    let _ = engine.class_index(ResolutionSpec::full());
    let mut rng = ctx.seed ^ 0xc1a5_5000;
    let observations: Vec<Observation> = (0..arena.len().min(1024))
        .map(|_| {
            let p = &arena[(splitmix64(&mut rng) % arena.len() as u64) as usize];
            Observation {
                amount: Some(p.amount),
                time: Some(p.timestamp),
                currency: Some(p.currency),
                strength: None,
                destination: Some(p.destination),
            }
        })
        .collect();
    let bounds = engine
        .time_bounds()
        .map(|(lo, hi)| (lo.seconds(), hi.seconds()))
        .ok_or("empty archive")?;
    let keys = Keys {
        accounts: by_activity.into_iter().map(|(_, a)| a).collect(),
        flows,
        observations,
        bounds,
    };
    if keys.accounts.is_empty() || keys.flows.is_empty() || keys.observations.is_empty() {
        return Err("archive has no accounts, flows or payments to query".to_string());
    }
    Ok((
        Served {
            engine,
            keys,
            archive_bytes,
            sidecar_bytes: build.sidecar_bytes,
            records: build.records,
        },
        generate_s,
        open_s,
    ))
}

/// One client's closed loop: each call is issued when the previous one
/// returns.
fn client(served: &Served, ops: usize, seed: u64, traced: bool) -> ClientResult {
    let (engine, keys) = (&served.engine, &served.keys);
    let mut tr = Tracer::new(traced);
    let mut r = ClientResult::default();
    let mut rng = seed;
    let root = tr.enter("bench.client");
    for _ in 0..ops {
        let roll = splitmix64(&mut rng);
        if roll % 100 < POINT_PCT {
            let account = &keys.accounts[pick_skewed(roll >> 8, keys.accounts.len())];
            let span = tr.enter("query.point");
            let t = Instant::now();
            let result = engine.visit_account_history(account, POINT_LIMIT, |_, _| {});
            r.point_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            tr.exit(span);
            r.failed += u64::from(result.is_err());
            continue;
        }
        match roll % 3 {
            0 => {
                let (lo, hi) = keys.bounds;
                let span_s = (hi - lo).max(1);
                let from = lo + splitmix64(&mut rng) % span_s;
                let to = (from + span_s / 256 + 1).min(hi + 1);
                let span = tr.enter("query.scan");
                let t = Instant::now();
                let result = engine.visit_range(
                    RippleTime::from_seconds(from),
                    RippleTime::from_seconds(to),
                    SCAN_LIMIT,
                    |_, _| {},
                );
                r.scan_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tr.exit(span);
                match result {
                    Ok(n) => r.scan_events += n as u64,
                    Err(_) => r.failed += 1,
                }
            }
            1 => {
                let (currency, day) =
                    keys.flows[(splitmix64(&mut rng) % keys.flows.len() as u64) as usize];
                let span = tr.enter("query.flow");
                let t = Instant::now();
                let stat = engine.flow(currency, day);
                r.flow_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tr.exit(span);
                // Every key was drawn from the sidecar's own flow classes.
                r.failed += u64::from(stat.is_none());
            }
            _ => {
                let obs = &keys.observations
                    [(splitmix64(&mut rng) % keys.observations.len() as u64) as usize];
                let span = tr.enter("query.class");
                let t = Instant::now();
                let candidates = engine.class_candidates(ResolutionSpec::full(), obs);
                r.class_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tr.exit(span);
                // Every observation is a payment of the archive, so its
                // own sender is always a candidate.
                r.failed += u64::from(candidates.is_empty());
            }
        }
    }
    tr.exit(root);
    r.spans = tr.summary();
    r
}

/// One pass: `clients` closed loops at once. Returns the wall time and
/// each client's result.
fn pass(
    served: &Served,
    clients: usize,
    ops: usize,
    seed: u64,
    traced: bool,
) -> (f64, Vec<ClientResult>) {
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(c as u64 + 1);
                scope.spawn(move || client(served, ops, client_seed, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A client that panicked counts all its operations failed.
                h.join().unwrap_or_else(|_| ClientResult {
                    failed: ops as u64,
                    ..ClientResult::default()
                })
            })
            .collect::<Vec<_>>()
    });
    (started.elapsed().as_secs_f64(), results)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ops = sizes(ctx).1;
    let mut o = Outcome {
        threads: clients,
        ..Outcome::default()
    };
    let (mut generate_s, mut open_s) = (Vec::new(), Vec::new());
    let mut served = None;
    for _ in 0..3 {
        served = None;
        let t = Instant::now();
        o.attempted += 1;
        match catch_unwind(|| setup(ctx)) {
            Ok(Ok((s, g, op))) => {
                o.setup_s.push(t.elapsed().as_secs_f64());
                generate_s.push(g);
                open_s.push(op);
                served = Some(s);
            }
            Ok(Err(err)) => o.check(false, &err),
            Err(_) => o.check(false, "serve set-up panicked"),
        }
    }
    let Some(served) = served else {
        return o;
    };

    // Warm-up: one untimed pass fills the block cache.
    let (_, warm) = pass(&served, clients, ops, ctx.seed ^ 0x5eed, false);
    o.attempted += (clients * ops) as u64;
    o.failed += warm.iter().map(|r| r.failed).sum::<u64>();

    let hits_before = served.engine.cache().hits();
    let misses_before = served.engine.cache().misses();
    let mut all = ClientResult::default();
    let (mut lookup_rate, mut point_rate, mut scan_rate) = (Vec::new(), Vec::new(), Vec::new());
    ctx.run_passes(|i, traced| {
        let (wall, results) = pass(
            &served,
            clients,
            ops,
            ctx.seed.wrapping_add(i as u64 + 1),
            traced,
        );
        o.attempted += (clients * ops) as u64;
        for r in &results {
            o.failed += r.failed;
        }
        if traced {
            o.traced_wall_s.push(wall);
            for r in &results {
                o.spans.merge(&r.spans);
            }
        } else {
            o.untraced_wall_s.push(wall);
            lookup_rate.push((clients * ops) as f64 / wall);
            let busy = |v: &Vec<f64>| v.iter().sum::<f64>() / 1e6;
            let points: usize = results.iter().map(|r| r.point_us.len()).sum();
            let scans: usize = results.iter().map(|r| r.scan_us.len()).sum();
            point_rate.push(points as f64 / results.iter().map(|r| busy(&r.point_us)).sum::<f64>());
            scan_rate.push(scans as f64 / results.iter().map(|r| busy(&r.scan_us)).sum::<f64>());
            for r in results {
                all.point_us.extend(r.point_us);
                all.scan_us.extend(r.scan_us);
                all.flow_us.extend(r.flow_us);
                all.class_us.extend(r.class_us);
                all.scan_events += r.scan_events;
            }
        }
        if i < RESCAN_CHECKS {
            let t = Instant::now();
            check_point_lookup(&served, ctx.seed.wrapping_add(i as u64), &mut o);
            o.check_s += t.elapsed().as_secs_f64();
        }
    });
    let hits = served.engine.cache().hits() - hits_before;
    let misses = served.engine.cache().misses() - misses_before;

    let med = |v: &[f64]| Summary::of(v).median;
    let point = Summary::of(&all.point_us);
    let scan = Summary::of(&all.scan_us);
    o.end_to_end.insert("pass_s", med(&o.untraced_wall_s));
    o.end_to_end.insert("rate1_per_s", med(&lookup_rate));
    o.end_to_end.insert("rate2_per_s", med(&point_rate));
    o.end_to_end.insert("rate3_per_s", med(&scan_rate));
    o.end_to_end.insert("p50_us", point.median);
    o.end_to_end.insert("p99_us", point.p99);

    o.name("lookups_per_s", "1/s", Summary::of(&lookup_rate));
    o.name("point_us", "us", point);
    o.name("scan_us", "us", scan);
    o.name("flow_us", "us", Summary::of(&all.flow_us));
    o.name("class_us", "us", Summary::of(&all.class_us));

    let layer = &mut o.per_layer;
    layer.insert("synth.generate_s", med(&generate_s));
    layer.insert(
        "synth.ns_per_payment",
        med(&generate_s) / sizes(ctx).0 as f64 * 1e9,
    );
    layer.insert(
        "store.bytes_per_event",
        served.archive_bytes as f64 / served.records.max(1) as f64,
    );
    layer.insert(
        "store.sidecar_bytes_per_archive_byte",
        served.sidecar_bytes as f64 / served.archive_bytes.max(1) as f64,
    );
    layer.insert("query.open_s", med(&open_s));
    layer.insert(
        "query.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layer.insert(
        "query.cache_resident_bytes",
        served.engine.cache().resident_bytes() as f64,
    );
    layer.insert(
        "query.events_per_scan",
        all.scan_events as f64 / all.scan_us.len().max(1) as f64,
    );
    layer.insert("query.flow_us.p99", Summary::of(&all.flow_us).p99);
    layer.insert("query.class_us.p99", Summary::of(&all.class_us).p99);
    o
}

/// Checks one skew-picked account's point lookup against a linear rescan
/// of the archive that bypasses postings and cache.
fn check_point_lookup(served: &Served, seed: u64, o: &mut Outcome) {
    let mut rng = seed ^ 0xc4ec_4ec4;
    let accounts = &served.keys.accounts;
    let account = &accounts[pick_skewed(splitmix64(&mut rng), accounts.len())];
    let lookup = served.engine.account_history(account, POINT_LIMIT);
    let rescan = served.engine.rescan_account_history(account);
    let ok = match (&lookup, &rescan) {
        (Ok(got), Ok(all)) => {
            got.as_slice() == &all[all.len().saturating_sub(POINT_LIMIT)..]
                && served.engine.postings().account_offsets(account).len() == all.len()
        }
        _ => false,
    };
    o.check(
        ok,
        "point lookup differs from the linear rescan of the archive",
    );
}
