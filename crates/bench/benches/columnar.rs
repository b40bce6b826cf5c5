//! Columnar-path benchmarks for the §5 dynamicity pipeline.
//!
//! The columnar path run-length-scans sorted `u32` address columns and fans
//! the per-/24 verdicts out with rayon; the conversion from the collected
//! delta series is timed on its own. Run with `cargo bench --bench columnar`
//! to measure on a 250k-address, 90-day world; under `cargo test` the world
//! shrinks so the smoke pass stays fast.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rdns_core::dynamicity::{identify_dynamic_par, DynamicityParams};
use rdns_data::{Cadence, DailySnapshot, DeltaSeries};
use rdns_model::{Date, Hostname};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Addresses per /24 block, averaged over static and dynamic pools.
const ADDRS_PER_BLOCK: u32 = 250;

/// Build a synthetic daily series: `blocks` /24s of ~250 addresses each over
/// `days` days. One block in ten is a churny carry-over pool whose occupied
/// addresses move day to day; the rest are static infrastructure.
fn synthetic_series(blocks: u32, days: u32, seed: u64) -> DeltaSeries {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let start = Date::from_ymd(2021, 1, 1);
    // Pre-render hostnames per (block, offset) so per-day assembly is cheap.
    let names: Vec<Vec<Hostname>> = (0..blocks)
        .map(|b| {
            (0..=255u32)
                .map(|o| Hostname::new(&format!("h-{b}-{o}.pool.example.net")))
                .collect()
        })
        .collect();
    let churny: Vec<bool> = (0..blocks).map(|_| rng.gen_bool(0.1)).collect();
    let mut series = DeltaSeries::new(Cadence::Daily);
    for day in 0..days {
        let mut records: BTreeMap<Ipv4Addr, Hostname> = BTreeMap::new();
        for b in 0..blocks {
            let base = 0x0A00_0000u32 | (b << 8);
            let (first, count) = if churny[b as usize] {
                // Occupancy drifts with a weekly rhythm; the window of
                // occupied last octets slides so the address set changes.
                let shift = (day * 37 + b) % 64;
                let weekday_boost = if day % 7 < 5 { 30 } else { 0 };
                (shift, ADDRS_PER_BLOCK - 60 + weekday_boost)
            } else {
                (0, ADDRS_PER_BLOCK)
            };
            for i in 0..count.min(256) {
                let off = (first + i) % 256;
                records.insert(
                    Ipv4Addr::from(base | off),
                    names[b as usize][off as usize].clone(),
                );
            }
        }
        series.push(DailySnapshot {
            date: start.plus_days(day as i64),
            records,
        });
    }
    series
}

fn bench_dynamicity_paths(c: &mut Criterion) {
    // ~250k addresses over 90 days when measuring; a toy world in the
    // `cargo test` smoke pass (no `--bench` flag).
    let measuring = std::env::args().any(|a| a == "--bench");
    let (blocks, days) = if measuring { (1_000u32, 90u32) } else { (8, 5) };
    let series = synthetic_series(blocks, days, 42);
    let columnar = series.to_columnar();
    let params = DynamicityParams::default();

    let mut g = c.benchmark_group("section5_dynamicity");
    g.sample_size(10);
    g.throughput(Throughput::Elements(blocks as u64 * ADDRS_PER_BLOCK as u64));
    g.bench_function(format!("columnar_path_{blocks}_blocks_{days}d"), |b| {
        b.iter(|| {
            let matrix = black_box(&columnar).counts_matrix();
            identify_dynamic_par(&matrix, &params)
        })
    });
    // The conversion is paid once per study, then amortized over every
    // downstream analysis; time it separately.
    g.bench_function(format!("to_columnar_{blocks}_blocks_{days}d"), |b| {
        b.iter(|| black_box(&series).to_columnar())
    });
    g.finish();
}

criterion_group!(benches, bench_dynamicity_paths);
criterion_main!(benches);
