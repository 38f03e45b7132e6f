//! Substrate microbenches: hashing, Base58, the store codec, the payment
//! engine, the order book, and raw history generation ("fast parsing" is
//! the reproduction's enabling property).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ripple_core::crypto::{sha512_half, AccountId};
use ripple_core::ledger::{Currency, Drops, LedgerState};
use ripple_core::orderbook::{OrderBook, Rate};
use ripple_core::paths::{PaymentEngine, PaymentRequest};
use ripple_core::store::{Reader, Writer};
use ripple_core::synth::{Generator, PipelineConfig, SynthConfig};

fn hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_hashing");
    let data = vec![0xABu8; 64 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha512_half_64k", |b| b.iter(|| sha512_half(&data)));
    group.finish();
}

fn base58(c: &mut Criterion) {
    let account = AccountId::from_bytes([0x5A; 20]);
    let encoded = account.to_base58();
    c.bench_function("substrate_base58_round_trip", |b| {
        b.iter(|| {
            let s = account.to_base58();
            AccountId::from_base58(&s).expect("round trip")
        });
    });
    assert!(encoded.starts_with('r'));
}

fn store_codec(c: &mut Criterion) {
    let output = Generator::new(SynthConfig {
        seed: 5,
        ..SynthConfig::small(5_000)
    })
    .run();
    let mut archive = Vec::new();
    output.write_archive(&mut archive).expect("write");
    let mut group = c.benchmark_group("substrate_store");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(archive.len() as u64));
    group.bench_function("write_archive_5k_payments", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(archive.len());
            let mut writer = Writer::new(&mut buf);
            for event in &output.events {
                writer.write(event).expect("write event");
            }
            writer.finish().expect("finish");
            buf.len()
        });
    });
    group.bench_function("scan_archive_5k_payments", |b| {
        b.iter(|| {
            Reader::new(archive.as_slice())
                .expect("magic")
                .read_all()
                .expect("scan")
                .len()
        });
    });
    // The frame-encode hot path in isolation: one Writer (and so one scratch
    // buffer) reused across every event, into a pre-grown sink.
    group.bench_function("encode_frames_reused_scratch", |b| {
        b.iter(|| {
            let mut writer = Writer::new(Vec::with_capacity(archive.len()));
            for event in &output.events {
                writer.write(event).expect("write event");
            }
            writer.finish().expect("finish").len()
        });
    });
    group.finish();
}

fn payment_engine(c: &mut Criterion) {
    // A 3-hop chain ledger exercised repeatedly.
    let a = AccountId::from_bytes([1; 20]);
    let b_ = AccountId::from_bytes([2; 20]);
    let d = AccountId::from_bytes([3; 20]);
    let mut state = LedgerState::new();
    for id in [a, b_, d] {
        state.create_account(id, Drops::from_xrp(1_000));
    }
    state
        .set_trust(b_, a, Currency::USD, "1000000000".parse().unwrap())
        .unwrap();
    state
        .set_trust(d, b_, Currency::USD, "1000000000".parse().unwrap())
        .unwrap();
    let engine = PaymentEngine::new();
    let request = PaymentRequest {
        sender: a,
        destination: d,
        currency: Currency::USD,
        amount: "1".parse().unwrap(),
        source_currency: None,
        send_max: None,
    };
    c.bench_function("substrate_payment_2_hop", |bch| {
        bch.iter(|| engine.pay(&mut state, &request).expect("capacity is huge"));
    });
}

fn orderbook(c: &mut Criterion) {
    c.bench_function("substrate_orderbook_fill_100_offers", |b| {
        b.iter(|| {
            let mut book = OrderBook::new(Currency::EUR, Currency::USD);
            for i in 0..100u32 {
                book.insert(
                    AccountId::from_bytes([(i % 250) as u8; 20]),
                    i,
                    "10".parse().unwrap(),
                    Rate::new(100 + i as u64, 100),
                );
            }
            book.fill("950".parse().unwrap())
        });
    });
}

fn generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_generation");
    group.sample_size(10);
    group.bench_function("generate_5k_pipelined", |b| {
        b.iter(|| {
            Generator::new(SynthConfig {
                seed: 7,
                ..SynthConfig::small(5_000)
            })
            .run_pipelined(&PipelineConfig {
                workers: 0,
                chunk_size: 1_024,
                archive: false,
                ..PipelineConfig::default()
            })
            .expect("pipeline")
            .output
            .events
            .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    hashing,
    base58,
    store_codec,
    payment_engine,
    orderbook,
    generation
);
criterion_main!(benches);
