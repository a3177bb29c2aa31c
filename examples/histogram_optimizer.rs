//! Histogram-driven query optimization over a P2P database (§4.3/§5).
//!
//! Relations are spread over a 256-node overlay. Each node records its
//! tuples into per-bucket DHS metrics; a query node reconstructs all
//! histograms with one scan per relation, estimates selectivities, and
//! picks a join order — the paper's PIER case study.
//!
//! ```sh
//! cargo run --release --example histogram_optimizer
//! ```

use counting_at_large::dhs::{Dhs, DhsConfig, EstimatorKind};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::histogram::optimizer::Optimizer;
use counting_at_large::histogram::query::JoinQuery;
use counting_at_large::histogram::selectivity::Selectivity;
use counting_at_large::histogram::{BucketSpec, DhsHistogram, ExactHistogram};
use counting_at_large::sketch::SplitMix64;
use counting_at_large::workload::relation::{Relation, RelationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut ring = Ring::build(256, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(DhsConfig {
        m: 64,
        lim: 10, // histogram cells are smaller multisets: probe harder (§4.1)
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    })
    .expect("valid configuration");
    let hasher = SplitMix64::default();

    // Three relations over a shared attribute domain [0, 1000), with
    // different skews — so join order matters.
    let catalog = [
        ("orders", 400_000u64, 0.0),
        ("items", 600_000, 0.9),
        ("events", 800_000, 1.2),
    ];
    let relations: Vec<Relation> = catalog
        .iter()
        .enumerate()
        .map(|(i, &(name, tuples, theta))| {
            let spec = RelationSpec {
                name: Box::leak(name.to_string().into_boxed_str()),
                paper_tuples: tuples,
                domain: 1_000,
                theta,
            };
            Relation::generate(
                &spec,
                1.0,
                1 + u8::try_from(i).expect("few relations"),
                &mut rng,
            )
        })
        .collect();

    // Build 50-bucket histograms in the DHS, one metric block per relation.
    let mut build_cost = CostLedger::new();
    let specs: Vec<BucketSpec> = relations
        .iter()
        .enumerate()
        .map(|(i, rel)| {
            let spec = BucketSpec::new(
                0,
                999,
                50,
                1_000 + 64 * u32::try_from(i).expect("few relations"),
            );

            DhsHistogram::build(
                &dhs,
                &mut ring,
                rel,
                spec,
                &hasher,
                &mut rng,
                &mut build_cost,
            );
            spec
        })
        .collect();
    println!(
        "built {} histograms ({:.2} MB total insertion bandwidth)\n",
        relations.len(),
        build_cost.bytes() as f64 / (1024.0 * 1024.0)
    );

    // A query node reconstructs all histograms.
    let querier = ring.random_alive(&mut rng);
    let mut scan_cost = CostLedger::new();
    let histograms: Vec<DhsHistogram> = specs
        .iter()
        .map(|&spec| {
            DhsHistogram::reconstruct(&dhs, &ring, spec, querier, &mut rng, &mut scan_cost)
        })
        .collect();
    println!(
        "reconstructed all histograms: {} hops, {:.2} MB",
        scan_cost.hops(),
        scan_cost.bytes() as f64 / (1024.0 * 1024.0)
    );

    // Selectivity estimation vs truth for a range predicate.
    for (rel, hist) in relations.iter().zip(&histograms) {
        let sel = Selectivity::new(hist.spec, &hist.estimates);
        let est = sel.range(0, 100);
        let act = rel.count_in_range(0, 100);
        println!(
            "  sel({} .value < 100) ~ {:.0} tuples (actual {act}, {:+.1}%)",
            rel.spec.name,
            est,
            (est - act as f64) / act as f64 * 100.0
        );
    }

    // Join ordering: estimated-histogram optimizer vs naive order,
    // costed against the exact histograms.
    let tuple_bytes = 1024;
    let spec0 = specs[0];
    let est_opt = Optimizer::new(
        spec0,
        histograms.iter().map(|h| h.estimates.clone()).collect(),
        tuple_bytes,
    );
    let exact_opt = Optimizer::new(
        spec0,
        relations
            .iter()
            .zip(&specs)
            .map(|(r, &s)| ExactHistogram::build(r, s).as_f64())
            .collect(),
        tuple_bytes,
    );
    let query = JoinQuery::chain(vec![0, 1, 2]);
    let chosen = est_opt.optimize(&query);
    let naive = exact_opt.cost_of_order(&[2, 1, 0]); // biggest-first
    let mb = |b: f64| b / (1024.0 * 1024.0);
    println!(
        "\njoin {:?}: optimizer picks order {:?}",
        query.relations, chosen.order
    );
    println!(
        "  chosen plan: estimated {:.0} MB, true cost {:.0} MB",
        mb(chosen.est_cost_bytes),
        mb(exact_opt.cost_of_order(&chosen.order).est_cost_bytes)
    );
    println!(
        "  naive biggest-first order: true cost {:.0} MB",
        mb(naive.est_cost_bytes)
    );
    println!(
        "  histogram reconstruction cost was {:.2} MB — negligible vs the savings",
        scan_cost.bytes() as f64 / (1024.0 * 1024.0)
    );
}
