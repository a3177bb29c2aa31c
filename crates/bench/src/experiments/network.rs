//! N1 — counting over a faulty network (`dhs-net`).
//!
//! The paper evaluates DHS on a simulated Chord ring but treats message
//! delivery as instantaneous and reliable; §4.1 only *analyzes* what a
//! failed probe costs. This experiment closes that gap: insertion and
//! Alg. 1 counting run over [`dhs_net::SimTransport`] with seeded
//! latency, message loss, node crashes and partitions, and we measure
//! what the network does to the estimate.
//!
//! Two tables:
//!
//! * **Loss sweep** — 0/5/10/20% per-leg loss, with and without the
//!   retry policy. The acceptance bar is the paper's own std-error bound
//!   for super-LogLog (1.05/√m, §2): with retries, a lossy-but-connected
//!   network at ≤ 10% loss must stay within 2× that bound.
//! * **Fault scenarios** — a healthy population counted through node
//!   crashes, a ring partition, and duplication + reordering jitter.

use dhs_core::transport::Transport;
use dhs_core::{Dhs, DhsConfig, RetryPolicy, Summary};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::Ring;
use dhs_net::fault::{CrashWindow, FaultPlane, Partition};
use dhs_net::latency::LatencyModel;
use dhs_net::sim::{SimConfig, SimTransport};
use dhs_net::wire::MessageSizes;
use dhs_sketch::ItemHasher;
use dhs_workload::relation::{Relation, PAPER_RELATIONS};
use rand::Rng;

use crate::env::{item_hasher, ExpConfig};
use crate::table::{f, Table};

/// Latency model shared by every scenario: 5–50 ticks per hop.
fn latency() -> LatencyModel {
    LatencyModel::Uniform { lo: 5, hi: 50 }
}

fn sim_config(seed: u64, faults: FaultPlane, retry: RetryPolicy) -> SimConfig {
    SimConfig {
        seed,
        latency: latency(),
        faults,
        retry,
        ..SimConfig::default()
    }
}

/// The retry policy used by the "retries on" rows: up to 4 attempts,
/// exponential backoff 50 → 400 ticks. A failed *lookup* skips its whole
/// interval (the §4.1 error mode), so the per-exchange failure rate has
/// to be driven well below 1/intervals for the estimate to hold.
fn retries_on() -> RetryPolicy {
    RetryPolicy::new(4, 50, 400)
}

/// Ship `rel` into the DHS over `net`, tuples pre-assigned to random
/// origin nodes (the grouped §3.2 update round, like the direct-path
/// experiments — but every store crosses the simulated network).
fn populate_via(
    dhs: &Dhs,
    ring: &mut Ring,
    net: &mut SimTransport,
    rel: &Relation,
    rng: &mut impl rand::Rng,
    ledger: &mut CostLedger,
) {
    let hasher = item_hasher();
    let node_count = ring.len_alive();
    let ids: Vec<u64> = ring.alive_ids().to_vec();
    let mut batches: Vec<Vec<u64>> = vec![Vec::new(); node_count];
    for t in &rel.tuples {
        let owner = rng.gen_range(0..node_count);
        batches[owner].push(hasher.hash_u64(t.id));
    }
    for (owner, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            dhs.bulk_insert_via(ring, net, 1, &batch, ids[owner], rng, ledger);
        }
    }
}

struct CountRow {
    err_pct: f64,
    drops_per_op: f64,
    mean_latency: f64,
    vtime_per_op: f64,
    kb_per_op: f64,
}

/// Count `trials` times over fresh transports with `faults`, against a
/// populated system.
#[allow(clippy::too_many_arguments)]
fn count_over(
    dhs: &Dhs,
    ring: &Ring,
    actual: u64,
    exp: &ExpConfig,
    stream: u64,
    faults: &FaultPlane,
    retry: RetryPolicy,
    rng: &mut rand::rngs::StdRng,
) -> CountRow {
    let mut err = Summary::new();
    let mut drops = Summary::new();
    let mut lat = Summary::new();
    let mut vtime = Summary::new();
    let mut kb = Summary::new();
    for trial in 0..exp.trials {
        let mut net = SimTransport::new(sim_config(
            exp.seed ^ stream ^ (trial as u64).wrapping_mul(0xBEEF),
            faults.clone(),
            retry,
        ));
        let origin = ring.random_alive(rng);
        let mut ledger = CostLedger::new();
        let result = dhs.count_via(ring, &mut net, 1, origin, rng, &mut ledger);
        err.add(result.relative_error(actual).abs());
        drops.add(ledger.dropped_messages() as f64);
        vtime.add(net.now() as f64);
        kb.add(ledger.bytes() as f64 / 1024.0);
        let t = net.into_telemetry();
        lat.add(t.mean_latency());
    }
    CountRow {
        err_pct: err.mean() * 100.0,
        drops_per_op: drops.mean(),
        mean_latency: lat.mean(),
        vtime_per_op: vtime.mean(),
        kb_per_op: kb.mean(),
    }
}

/// N1 — DHS-sLL accuracy and cost over a faulty network.
pub fn network(exp: &ExpConfig) -> String {
    let cfg = DhsConfig {
        estimator: dhs_core::EstimatorKind::SuperLogLog,
        ..exp.dhs_config()
    };
    let sizes = MessageSizes::for_config(&cfg);
    let bound_pct = 2.0 * 1.05 / (exp.m as f64).sqrt() * 100.0;
    let mut out = String::new();
    out.push_str(&format!(
        "N1 counting over a faulty network — DHS-sLL, m = {}, {} nodes, \
         relation Q (scale {}), {} trials/row\n\
         latency U(5,50) ticks/hop, timeout 400, retries = 4 attempts \
         backoff 50..400\n\n",
        exp.m, exp.nodes, exp.scale, exp.trials
    ));

    // ---- Table 1: loss sweep, insertion AND counting over the lossy net.
    let mut table = Table::new(&[
        "loss (%)",
        "retries",
        "err sLL (%)",
        "2x bound (%)",
        "drops/count",
        "lat (ticks)",
        "vtime/count",
        "KB/count",
    ]);
    let mut within_bound_at_10 = true;
    for &loss in &[0.0f64, 0.05, 0.10, 0.20] {
        for &with_retry in &[false, true] {
            let retry = if with_retry {
                retries_on()
            } else {
                RetryPolicy::none()
            };
            let stream = 0x4E31 ^ ((((loss * 100.0) as u64) << 8) | u64::from(with_retry));
            let mut rng = exp.rng(stream);
            let dhs = Dhs::new(cfg).expect("valid config");
            let mut ring = exp.build_ring(&mut rng);
            let rel = Relation::generate(&PAPER_RELATIONS[0], exp.scale, 4, &mut rng);
            let faults = if loss > 0.0 {
                FaultPlane::lossy(loss)
            } else {
                FaultPlane::none()
            };
            let mut insert_net =
                SimTransport::new(sim_config(exp.seed ^ stream, faults.clone(), retry));
            let mut insert_ledger = CostLedger::new();
            populate_via(
                &dhs,
                &mut ring,
                &mut insert_net,
                &rel,
                &mut rng,
                &mut insert_ledger,
            );
            let row = count_over(
                &dhs,
                &ring,
                rel.len() as u64,
                exp,
                stream,
                &faults,
                retry,
                &mut rng,
            );
            if loss <= 0.10 && with_retry && row.err_pct > bound_pct {
                within_bound_at_10 = false;
            }
            table.row(vec![
                f(loss * 100.0, 0),
                (if with_retry { "on" } else { "off" }).to_string(),
                f(row.err_pct, 1),
                f(bound_pct, 1),
                f(row.drops_per_op, 1),
                f(row.mean_latency, 1),
                f(row.vtime_per_op, 0),
                f(row.kb_per_op, 1),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nacceptance: err(sLL) <= 2 * 1.05/sqrt(m) = {:.1}% at loss <= 10% with retries: {}\n",
        bound_pct,
        if within_bound_at_10 { "PASS" } else { "FAIL" }
    ));

    // ---- Table 2: fault scenarios against a healthy population.
    out.push_str("\nfault scenarios (healthy insertion, faulty counting, retries on):\n\n");
    let mut rng = exp.rng(0xFA017);
    let dhs = Dhs::new(cfg).expect("valid config");
    let mut ring = exp.build_ring(&mut rng);
    let rel = Relation::generate(&PAPER_RELATIONS[0], exp.scale, 4, &mut rng);
    let mut healthy = SimTransport::new(sim_config(
        exp.seed ^ 0xFA017,
        FaultPlane::none(),
        RetryPolicy::none(),
    ));
    let mut insert_ledger = CostLedger::new();
    populate_via(
        &dhs,
        &mut ring,
        &mut healthy,
        &rel,
        &mut rng,
        &mut insert_ledger,
    );
    let actual = rel.len() as u64;

    let crash_fraction = |frac: f64, rng: &mut rand::rngs::StdRng| -> FaultPlane {
        let ids = ring.alive_ids();
        let n = ((ids.len() as f64) * frac).round() as usize;
        let mut plane = FaultPlane::none();
        let mut pool: Vec<u64> = ids.to_vec();
        for _ in 0..n {
            let i = rng.gen_range(0..pool.len());
            plane.crashes.push(CrashWindow {
                node: pool.swap_remove(i),
                from: 0,
                until: u64::MAX,
            });
        }
        plane
    };
    let scenarios: Vec<(&str, FaultPlane)> = vec![
        ("crash 5% of nodes", crash_fraction(0.05, &mut rng)),
        ("crash 20% of nodes", crash_fraction(0.20, &mut rng)),
        (
            "partition half the ID space",
            FaultPlane {
                partitions: vec![Partition {
                    from: 0,
                    until: u64::MAX,
                    lo: 0,
                    hi: u64::MAX / 2,
                }],
                ..FaultPlane::none()
            },
        ),
        (
            "10% duplication + jitter 30",
            FaultPlane {
                duplication: 0.10,
                reorder_jitter: 30,
                ..FaultPlane::none()
            },
        ),
    ];
    let mut table = Table::new(&[
        "scenario",
        "err sLL (%)",
        "drops/count",
        "lat (ticks)",
        "vtime/count",
        "KB/count",
    ]);
    for (i, (name, faults)) in scenarios.iter().enumerate() {
        let row = count_over(
            &dhs,
            &ring,
            actual,
            exp,
            0xFA018 + i as u64,
            faults,
            retries_on(),
            &mut rng,
        );
        table.row(vec![
            (*name).to_string(),
            f(row.err_pct, 1),
            f(row.drops_per_op, 1),
            f(row.mean_latency, 1),
            f(row.vtime_per_op, 0),
            f(row.kb_per_op, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nbandwidth baseline: a full sLL sketch snapshot is {} bytes and a \
         probe reply {} bytes; the KB/count above is what Alg. 1 pays so \
         that no single node ever has to hold (or ship) the sketch.\n",
        sizes.sketch_snapshot,
        sizes.probe_reply(&cfg, 1)
    ));
    out
}
