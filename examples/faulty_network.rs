//! Counting accuracy when the network actually misbehaves.
//!
//! The paper's evaluation assumes reliable, instantaneous messages;
//! §4.1 analyzes what a failed probe costs but never runs one. This
//! example runs Alg. 1 over the `dhs-net` discrete-event simulator at
//! 5–20% message loss, with and without retries, and prints what the
//! network does to the estimate — plus what it costs in virtual time.
//!
//! ```sh
//! cargo run --release --example faulty_network
//! ```

use counting_at_large::dhs::{Dhs, DhsConfig, EstimatorKind, RetryPolicy};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::net::{FaultPlane, LatencyModel, SimConfig, SimTransport};
use counting_at_large::sketch::{ItemHasher, SplitMix64};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ITEMS: u64 = 100_000;
const TRIALS: usize = 5;

fn transport(seed: u64, loss: f64, retry: RetryPolicy) -> SimTransport {
    SimTransport::new(SimConfig {
        seed,
        latency: LatencyModel::LogNormal {
            mu: 3.0,
            sigma: 0.5,
            cap: 400,
        },
        faults: if loss > 0.0 {
            FaultPlane::lossy(loss)
        } else {
            FaultPlane::none()
        },
        retry,
        ..SimConfig::default()
    })
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let dhs = Dhs::new(DhsConfig {
        m: 512,
        k: 28, // eq. 3: k = 24 saturates registers at this n/m
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    })
    .expect("valid configuration");
    let hasher = SplitMix64::default();

    println!(
        "{} distinct items, 512-node ring, DHS-sLL m = 512 (std error ~{:.1}%)\n",
        ITEMS,
        1.05 / 512f64.sqrt() * 100.0
    );
    println!(
        "{:>8}  {:>7}  {:>12}  {:>8}",
        "loss", "retries", "estimate", "err"
    );

    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        for &with_retry in &[false, true] {
            let retry = if with_retry {
                RetryPolicy::new(3, 50, 400)
            } else {
                RetryPolicy::none()
            };
            // Fresh system per scenario: loss hits insertion too.
            let mut rng_s = StdRng::seed_from_u64(9);
            let mut ring = Ring::build(512, RingConfig::default(), &mut rng_s);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "loss rates are whole percents"
            )]
            let seed = 90 + (loss * 100.0) as u64 * 2 + u64::from(with_retry);
            let mut net = transport(seed, loss, retry);
            let origin = ring.alive_ids()[0];
            let mut ledger = CostLedger::new();
            for item in 0..ITEMS {
                dhs.insert_via(
                    &mut ring,
                    &mut net,
                    1,
                    hasher.hash_u64((4u64 << 56) | item),
                    origin,
                    &mut rng_s,
                    &mut ledger,
                );
            }

            let mut est_sum = 0.0;
            let mut count_telemetry = None;
            for trial in 0..TRIALS {
                let mut count_net = transport(seed ^ (0xC0 + trial as u64), loss, retry);
                let mut count_ledger = CostLedger::new();
                let origin = ring.random_alive(&mut rng);
                let result = dhs.count_via(
                    &ring,
                    &mut count_net,
                    1,
                    origin,
                    &mut rng_s,
                    &mut count_ledger,
                );
                est_sum += result.estimate;
                if trial == 0 {
                    count_telemetry = Some(count_net.into_telemetry());
                }
            }
            let estimate = est_sum / TRIALS as f64;
            let err = (estimate - ITEMS as f64) / ITEMS as f64;
            println!(
                "{:>7.0}%  {:>7}  {:>12.0}  {:>+7.1}%",
                loss * 100.0,
                if with_retry { "on" } else { "off" },
                estimate,
                err * 100.0,
            );
            // What the network did to the first count, straight from the
            // per-message telemetry.
            for line in count_telemetry.expect("TRIALS > 0").summary().lines() {
                println!("            {line}");
            }
        }
    }
    println!(
        "\nloss silently starves the sketch (lost stores, skipped intervals) and the\n\
         estimate collapses; the retry policy buys the accuracy back with virtual\n\
         time — the paper's robustness story (§3.5/§4.1), now measurable."
    );
}
