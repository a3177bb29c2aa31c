//! Ablations A1–A4 — the design choices DESIGN.md calls out.

use dhs_core::retry::hit_probability;
use dhs_core::{maintenance, Dhs, DhsConfig, EstimatorKind, Summary};
use dhs_dht::cost::CostLedger;
use dhs_sketch::ItemHasher;
use dhs_workload::relation::{Relation, PAPER_RELATIONS};

use crate::env::{bulk_insert_relation, item_hasher, ExpConfig};
use crate::table::{f, Table};

/// Build a single-relation system (relation T scaled) with `cfg`.
fn populate_single(
    cfg: DhsConfig,
    exp: &ExpConfig,
    stream: u64,
) -> (Dhs, dhs_dht::ring::Ring, u64, rand::rngs::StdRng) {
    let mut rng = exp.rng(stream);
    let dhs = Dhs::new(cfg).expect("valid config");
    let mut ring = exp.build_ring(&mut rng);
    let rel = Relation::generate(&PAPER_RELATIONS[3], exp.scale, 4, &mut rng);
    let hasher = item_hasher();
    let mut ledger = CostLedger::new();
    bulk_insert_relation(&dhs, &mut ring, &rel, 1, &hasher, &mut rng, &mut ledger);
    (dhs, ring, rel.len() as u64, rng)
}

fn mean_abs_error(
    dhs: &Dhs,
    ring: &dhs_dht::ring::Ring,
    actual: u64,
    trials: usize,
    rng: &mut rand::rngs::StdRng,
) -> (f64, f64) {
    let mut err = Summary::new();
    let mut probes = Summary::new();
    for _ in 0..trials {
        let origin = ring.random_alive(rng);
        let mut ledger = CostLedger::new();
        let result = dhs.count(ring, 1, origin, rng, &mut ledger);
        err.add(result.relative_error(actual).abs());
        probes.add(result.stats.probes as f64);
    }
    (err.mean(), probes.mean())
}

/// A1 — error and probe count vs `lim` (validating the §4.1 analysis).
///
/// Run in a deliberately sparse regime (small scale) where `lim` matters.
pub fn ablation_lim(exp: &ExpConfig) -> String {
    // Sparse: n ≈ m·N/8 so single probes miss often.
    let sparse = ExpConfig {
        scale: (exp.scale / 8.0).max(0.001),
        ..*exp
    };
    let mut out = String::new();
    out.push_str(&format!(
        "A1 retry-limit ablation — sparse regime (scale {}), m = {}, {} nodes\n\n",
        sparse.scale, sparse.m, sparse.nodes
    ));
    let mut table = Table::new(&[
        "lim",
        "err sLL (%)",
        "err PCSA (%)",
        "probes sLL",
        "eq6 p(hit)",
    ]);
    for lim in [1u32, 2, 3, 5, 8, 12] {
        let mut row = vec![lim.to_string()];
        let mut probes_cell = String::new();
        for estimator in [EstimatorKind::SuperLogLog, EstimatorKind::Pcsa] {
            let cfg = DhsConfig {
                lim,
                estimator,
                ..sparse.dhs_config()
            };
            let (dhs, ring, actual, mut rng) = populate_single(cfg, &sparse, 0xA1);
            let (err, probes) = mean_abs_error(&dhs, &ring, actual, sparse.trials, &mut rng);
            row.push(f(err * 100.0, 1));
            if estimator == EstimatorKind::SuperLogLog {
                probes_cell = f(probes, 0);
            }
        }
        row.push(probes_cell);
        // Predicted hit probability at the busiest bit (rank 0): half the
        // items over half the nodes.
        let items0 = (PAPER_RELATIONS[3].scaled_tuples(sparse.scale)) / 2;
        let nodes0 = (sparse.nodes / 2) as u64;
        row.push(f(hit_probability(lim, items0, nodes0, sparse.m, 1), 3));
        table.row(row);
    }
    // The adaptive (two-phase, eq. 6-sized) strategy as a reference row.
    {
        let mut row = vec!["adaptive".to_string()];
        let mut probes_cell = String::new();
        for estimator in [EstimatorKind::SuperLogLog, EstimatorKind::Pcsa] {
            let cfg = DhsConfig {
                estimator,
                ..sparse.dhs_config()
            };
            let (dhs, ring, actual, mut rng) = populate_single(cfg, &sparse, 0xA1);
            let mut err = Summary::new();
            let mut probes = Summary::new();
            for _ in 0..sparse.trials {
                let origin = ring.random_alive(&mut rng);
                let mut ledger = CostLedger::new();
                let result = dhs.count_adaptive(&ring, 1, origin, 0.99, &mut rng, &mut ledger);
                err.add(result.relative_error(actual).abs());
                probes.add(result.stats.probes as f64);
            }
            row.push(f(err.mean() * 100.0, 1));
            if estimator == EstimatorKind::SuperLogLog {
                probes_cell = f(probes.mean(), 0);
            }
        }
        row.push(probes_cell);
        row.push("-".to_string());
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: error falls and probes rise with lim; eq. 6 predicts the knee.\n\
         'adaptive' = two-phase count_adaptive (coarse pass, then eq. 6-sized pass).\n",
    );
    out
}

/// A5 — finger-table staleness under churn (substrate-level; the Chord
/// maintenance protocol the paper's converged-overlay evaluation takes
/// for granted).
pub fn ablation_churn(exp: &ExpConfig) -> String {
    use dhs_dht::fingers::{FingerTables, RouteOutcome};
    let nodes = exp.nodes.min(1024);
    let mut out = String::new();
    out.push_str(&format!(
        "A5 finger staleness under churn — {nodes} nodes, tables built once,\n         then churn (fail + join) without re-stabilizing\n\n"
    ));
    let mut table = Table::new(&[
        "churn (%)",
        "correct (%)",
        "misdelivered (%)",
        "failed (%)",
        "hops vs converged",
        "repair hops/node",
    ]);
    for churn_pct in [0u32, 5, 10, 20, 40] {
        let mut rng = exp.rng(0xA5 + u64::from(churn_pct));
        let mut ring = ExpConfig { nodes, ..*exp }.build_ring(&mut rng);
        let mut tables = FingerTables::build(&ring);
        // Churn: fail churn%/2 of the nodes and join churn%/2 new ones.
        let frac = f64::from(churn_pct) / 200.0;
        ring.fail_random(frac, &mut rng);
        use rand::Rng as _;
        let joins = (nodes as f64 * frac) as usize;
        for _ in 0..joins {
            loop {
                let id: u64 = rng.gen();
                if ring.store_of(id).is_none() {
                    ring.join(id);
                    break;
                }
            }
        }
        // New joiners get fresh tables (Chord join does), old nodes stay stale.
        let mut join_ledger = CostLedger::new();
        tables.admit_joined(&ring, &mut join_ledger);

        let trials = 400;
        let (mut ok, mut mis, mut failed) = (0u32, 0u32, 0u32);
        let mut stale_hops = 0u64;
        let mut ideal_hops = 0u64;
        for _ in 0..trials {
            let from = ring.random_alive(&mut rng);
            let key: u64 = rng.gen();
            let mut l1 = CostLedger::new();
            match tables.route(&ring, from, key, &mut l1) {
                RouteOutcome::Delivered(_) => ok += 1,
                RouteOutcome::Misdelivered { .. } => mis += 1,
                RouteOutcome::Failed => failed += 1,
            }
            stale_hops += l1.hops();
            let mut l2 = CostLedger::new();
            ring.route(from, key, &mut l2);
            ideal_hops += l2.hops();
        }
        // Cost of full repair.
        let mut repair = CostLedger::new();
        let mut repair_tables = tables.clone();
        repair_tables.stabilize_fraction(&ring, 1.0, &mut rng, &mut repair);
        table.row(vec![
            churn_pct.to_string(),
            f(f64::from(ok) / f64::from(trials) * 100.0, 1),
            f(f64::from(mis) / f64::from(trials) * 100.0, 1),
            f(f64::from(failed) / f64::from(trials) * 100.0, 1),
            format!(
                "{} / {}",
                f(stale_hops as f64 / f64::from(trials), 1),
                f(ideal_hops as f64 / f64::from(trials), 1)
            ),
            f(repair.hops() as f64 / ring.len_alive() as f64, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: successor lists keep lookups succeeding; joins cause misdelivery\n         until stabilization; dead fingers inflate hop counts. This bounds how far the\n         paper's converged-overlay assumption stretches under real churn.\n",
    );
    out
}

/// A6 — DHS under *continuous* churn: every epoch, 3% of the nodes
/// crash (fail-stop, data lost) and as many fresh nodes join; one column
/// runs the §3.5 anti-entropy replica repair each epoch, the other runs
/// nothing. The paper promises "probabilistic guarantees … in the
/// presence of dynamics and failures" — this measures what maintenance
/// that requires.
pub fn ablation_dynamics(exp: &ExpConfig) -> String {
    use dhs_core::maintenance::repair_replicas;
    let mut out = String::new();
    let sparse = ExpConfig {
        scale: exp.scale / 4.0,
        ..*exp
    };
    out.push_str(&format!(
        "A6 continuous churn — 8%/epoch crash + join, m = {}, R = 2, {} nodes, scale {}\n\n",
        sparse.m.min(256),
        sparse.nodes,
        sparse.scale
    ));
    let mut table = Table::new(&[
        "epoch",
        "err no-repair (%)",
        "err repaired (%)",
        "copies pushed",
        "repair kB",
    ]);
    let cfg = DhsConfig {
        m: sparse.m.min(256),
        replication: 2,
        ..sparse.dhs_config()
    };
    let (dhs, ring0, actual, _) = populate_single(cfg, &sparse, 0xA6);
    let mut plain = ring0.clone();
    let mut repaired = ring0;
    let mut repair_total = CostLedger::new();
    for epoch in 1..=8u32 {
        let mut rng = exp.rng(0xA6_00 + u64::from(epoch));
        // The same churn events hit both variants.
        use rand::Rng as _;
        let n_before = plain.len_alive();
        let churn = (n_before as f64 * 0.08) as usize;
        for _ in 0..churn {
            let victim = plain.random_alive(&mut rng);
            if plain.len_alive() > 1 && repaired.is_alive(victim) {
                plain.fail_node(victim);
                repaired.fail_node(victim);
            }
            let id: u64 = rng.gen();
            if plain.store_of(id).is_none() {
                plain.join(id);
                repaired.join(id);
            }
        }
        let pushed = repair_replicas(&dhs, &mut repaired, &mut repair_total);

        let (err_plain, _) = mean_abs_error(&dhs, &plain, actual, 4, &mut rng);
        let (err_rep, _) = mean_abs_error(&dhs, &repaired, actual, 4, &mut rng);
        table.row(vec![
            epoch.to_string(),
            f(err_plain * 100.0, 1),
            f(err_rep * 100.0, 1),
            pushed.to_string(),
            f(repair_total.bytes() as f64 / 1024.0, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: without maintenance, each epoch's crashes permanently lose bits and\n\
         the estimate decays; per-epoch replica repair holds the error flat for a\n\
         bounded bandwidth cost (the cumulative column).\n",
    );
    out
}

/// A2 — estimation error vs node-failure probability and replication.
///
/// Averaged over independent failure patterns: the decisive high-rank
/// bits live in tiny ID-space intervals owned by very few nodes (the
/// paper's §3.5 points exactly at them), so a single pattern gives a
/// binary outcome — the curve only emerges across patterns.
pub fn ablation_failures(exp: &ExpConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "A2 failures/replication ablation — m = {}, {} nodes, scale {} \
         (mean over 12 failure patterns)\n\n",
        exp.m, exp.nodes, exp.scale
    ));
    let mut table = Table::new(&["p_f", "err R=1 (%)", "err R=2 (%)", "err R=4 (%)"]);
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for replication in [1u32, 2, 4] {
        let cfg = DhsConfig {
            replication,
            ..exp.dhs_config()
        };
        let (dhs, ring, actual, _) = populate_single(cfg, exp, 0xA2 + u64::from(replication));
        let mut column = Vec::new();
        for pf in [0.0f64, 0.05, 0.10, 0.20, 0.30] {
            let mut total = 0.0;
            let patterns = 12u64;
            for round in 0..patterns {
                let mut round_rng = exp.rng(0xA2_0000 + round);
                let mut failed_ring = ring.clone();
                if pf > 0.0 {
                    failed_ring.fail_random(pf, &mut round_rng);
                }
                let (err, _) = mean_abs_error(&dhs, &failed_ring, actual, 3, &mut round_rng);
                total += err;
            }
            column.push(total / 12.0);
        }
        columns.push(column);
    }
    for (i, pf) in [0.0f64, 0.05, 0.10, 0.20, 0.30].iter().enumerate() {
        table.row(vec![
            f(*pf, 2),
            f(columns[0][i] * 100.0, 1),
            f(columns[1][i] * 100.0, 1),
            f(columns[2][i] * 100.0, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nexpected: error grows with p_f; replication flattens the curve (§3.5).\n");
    out
}

/// A3 — the bit-shift (`b`) fault-tolerance alternative of §3.5.
pub fn ablation_bitshift(exp: &ExpConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "A3 bit-shift ablation — m = {}, {} nodes, scale {}, p_f = 0.10, R = 1\n\n",
        exp.m, exp.nodes, exp.scale
    ));
    let mut table = Table::new(&[
        "b",
        "tuples stored",
        "err p_f=0 (%)",
        "mean err p_f=0.1 (%)",
        "worst-pattern err (%)",
    ]);
    for b in [0u32, 2, 4] {
        let cfg = DhsConfig {
            bit_shift: b,
            ..exp.dhs_config()
        };
        let (dhs, ring, actual, mut rng) = populate_single(cfg, exp, 0xA3 + u64::from(b));
        let stored = ring.total_live_bytes() / u64::from(DhsConfig::TUPLE_BYTES);
        let (err0, _) = mean_abs_error(&dhs, &ring, actual, exp.trials, &mut rng);
        // Mean and worst over independent failure patterns: without the
        // shift, the highest bits of *every* vector share a handful of
        // owner nodes, so one unlucky pattern is catastrophic; the shift
        // de-correlates them (see A2's rationale for pattern averaging).
        let mut total = 0.0;
        let mut worst: f64 = 0.0;
        let patterns = 16u64;
        for round in 0..patterns {
            let mut round_rng = exp.rng(0xA3_0000 + round);
            let mut failed_ring = ring.clone();
            failed_ring.fail_random(0.10, &mut round_rng);
            let (err, _) = mean_abs_error(&dhs, &failed_ring, actual, 3, &mut round_rng);
            total += err;
            worst = worst.max(err);
        }
        let err1 = total / patterns as f64;
        table.row(vec![
            b.to_string(),
            stored.to_string(),
            f(err0 * 100.0, 1),
            f(err1 * 100.0, 1),
            f(worst * 100.0, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: larger b stores fewer tuples (bits < b implied — cheaper\n\
         maintenance) and spreads the decisive high bits over more owner nodes,\n\
         cutting the catastrophic worst-pattern loss; the mean error under uniform\n\
         failures is roughly unchanged (the per-holder death probability is the\n\
         same — the shift de-correlates losses rather than preventing them).\n",
    );
    out
}

/// A4 — the TTL / maintenance-cost trade-off of §3.3.
pub fn ablation_ttl(exp: &ExpConfig) -> String {
    let mut out = String::new();
    let items_total = 10_000u64;
    let items_kept = 2_000u64;
    let refresh_period = 50u64;
    let horizon = 400u64;
    out.push_str(&format!(
        "A4 TTL ablation — {items_total} items shrink to {items_kept}; refresh every \
         {refresh_period}, horizon {horizon}\n\n"
    ));
    let mut table = Table::new(&[
        "ttl",
        "estimate @horizon",
        "staleness err (%)",
        "refresh kB total",
    ]);
    let hasher = item_hasher();
    for ttl in [50u64, 100, 200, 400] {
        let cfg = DhsConfig {
            ttl,
            m: exp.m.min(64),
            ..exp.dhs_config()
        };
        let mut rng = exp.rng(0xA4 + ttl);
        let dhs = Dhs::new(cfg).expect("valid config");
        let mut ring = ExpConfig {
            nodes: exp.nodes.min(256),
            ..*exp
        }
        .build_ring(&mut rng);
        let origin = ring.alive_ids()[0];
        let all: Vec<u64> = (0..items_total).map(|i| hasher.hash_u64(i)).collect();
        let kept: Vec<u64> = all[..items_kept as usize].to_vec();
        let mut insert_ledger = CostLedger::new();
        dhs.bulk_insert(&mut ring, 1, &all, origin, &mut rng, &mut insert_ledger);

        let mut refresh_ledger = CostLedger::new();
        let mut elapsed = 0;
        while elapsed < horizon {
            ring.advance_time(refresh_period);
            elapsed += refresh_period;
            maintenance::refresh_round(
                &dhs,
                &mut ring,
                1,
                &kept,
                origin,
                &mut rng,
                &mut refresh_ledger,
            );
            ring.sweep_all();
        }
        let mut count_ledger = CostLedger::new();
        let est = dhs
            .count(&ring, 1, origin, &mut rng, &mut count_ledger)
            .estimate;
        let err = (est - items_kept as f64).abs() / items_kept as f64;
        table.row(vec![
            ttl.to_string(),
            f(est, 0),
            f(err * 100.0, 1),
            f(refresh_ledger.bytes() as f64 / 1024.0, 1),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: short TTLs track the shrunken set (low staleness error); long TTLs\n\
         keep dead items alive past the horizon. Refresh bandwidth is per-period, so\n\
         the trade-off is staleness vs maintenance rate (§3.3).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            nodes: 64,
            scale: 0.001,
            m: 32,
            k: 20,
            trials: 2,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn ablation_ttl_smoke() {
        let report = ablation_ttl(&tiny());
        assert!(report.contains("staleness"));
        assert!(report.contains("400"));
    }

    #[test]
    fn ablation_bitshift_smoke() {
        let report = ablation_bitshift(&tiny());
        // Larger b must store fewer tuples.
        assert!(report.contains("tuples stored"));
    }
}
