//! Cross-crate histogram pipeline: relations → DHS → reconstruction →
//! selectivity → join ordering.

use counting_at_large::dhs::{Dhs, DhsConfig};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::histogram::optimizer::Optimizer;
use counting_at_large::histogram::query::{exact_join_size, JoinQuery};
use counting_at_large::histogram::selectivity::Selectivity;
use counting_at_large::histogram::{BucketSpec, DhsHistogram, ExactHistogram};
use counting_at_large::sketch::SplitMix64;
use counting_at_large::workload::relation::{Relation, RelationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn relation(name: &'static str, tuples: u64, theta: f64, tag: u8, seed: u64) -> Relation {
    let spec = RelationSpec {
        name,
        paper_tuples: tuples,
        domain: 1_000,
        theta,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::generate(&spec, 1.0, tag, &mut rng)
}

fn build_system() -> (Dhs, Ring, Vec<Relation>, Vec<BucketSpec>, StdRng) {
    let mut rng = StdRng::seed_from_u64(404);
    let mut ring = Ring::build(128, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(DhsConfig {
        m: 64,
        lim: 8,
        ..DhsConfig::default()
    })
    .unwrap();
    let hasher = SplitMix64::default();
    let relations = vec![
        relation("small", 60_000, 0.0, 1, 1),
        relation("mid", 120_000, 0.8, 2, 2),
        relation("big", 200_000, 1.1, 3, 3),
    ];
    let mut specs = Vec::new();
    let mut ledger = CostLedger::new();
    for (i, rel) in relations.iter().enumerate() {
        let spec = BucketSpec::new(0, 999, 20, 100 + 32 * u32::try_from(i).unwrap());
        DhsHistogram::build(&dhs, &mut ring, rel, spec, &hasher, &mut rng, &mut ledger);
        specs.push(spec);
    }
    (dhs, ring, relations, specs, rng)
}

#[test]
fn reconstructed_histograms_track_exact_ones() {
    let (dhs, ring, relations, specs, mut rng) = build_system();
    let origin = ring.alive_ids()[0];
    for (rel, &spec) in relations.iter().zip(&specs) {
        let exact = ExactHistogram::build(rel, spec);
        let hist =
            DhsHistogram::reconstruct(&dhs, &ring, spec, origin, &mut rng, &mut CostLedger::new());
        let err = hist.mean_cell_error(&exact.counts);
        assert!(err < 0.5, "{}: mean cell error {err}", rel.spec.name);
        // Totals must agree reasonably too.
        let terr = (hist.total() - exact.total() as f64).abs() / exact.total() as f64;
        assert!(terr < 0.3, "{}: total err {terr}", rel.spec.name);
    }
}

#[test]
fn selectivity_estimates_track_truth() {
    let (dhs, ring, relations, specs, mut rng) = build_system();
    let origin = ring.alive_ids()[0];
    let rel = &relations[2]; // the skewed one
    let spec = specs[2];
    let hist =
        DhsHistogram::reconstruct(&dhs, &ring, spec, origin, &mut rng, &mut CostLedger::new());
    let sel = Selectivity::new(spec, &hist.estimates);
    for (lo, hi) in [(0u32, 100u32), (0, 500), (500, 1000), (250, 300)] {
        let est = sel.range(lo, hi);
        let act = rel.count_in_range(lo, hi) as f64;
        if act > 1_000.0 {
            let err = (est - act).abs() / act;
            assert!(err < 0.5, "range [{lo},{hi}): est {est} vs {act}");
        }
    }
}

#[test]
fn optimizer_from_estimated_histograms_picks_a_good_plan() {
    let (dhs, ring, relations, specs, mut rng) = build_system();
    let origin = ring.alive_ids()[0];
    let estimated: Vec<Vec<f64>> = specs
        .iter()
        .map(|&s| {
            DhsHistogram::reconstruct(&dhs, &ring, s, origin, &mut rng, &mut CostLedger::new())
                .estimates
        })
        .collect();
    let exact: Vec<Vec<f64>> = relations
        .iter()
        .zip(&specs)
        .map(|(r, &s)| ExactHistogram::build(r, s).as_f64())
        .collect();

    let spec0 = specs[0];
    let est_opt = Optimizer::new(spec0, estimated, 1024);
    let true_opt = Optimizer::new(spec0, exact, 1024);
    let query = JoinQuery::chain(vec![0, 1, 2]);

    let chosen = est_opt.optimize(&query);
    let truly_best = true_opt.optimize(&query);
    let truly_worst = true_opt.pessimize(&query);

    // The plan chosen from *estimated* histograms, costed with the *true*
    // histograms, must be much closer to the true optimum than to the
    // worst plan.
    let chosen_true_cost = true_opt.cost_of_order(&chosen.order).est_cost_bytes;
    let spread = truly_worst.est_cost_bytes - truly_best.est_cost_bytes;
    assert!(spread > 0.0);
    let regret = (chosen_true_cost - truly_best.est_cost_bytes) / spread;
    assert!(
        regret < 0.25,
        "chosen plan regret {regret} (cost {chosen_true_cost}, best {}, worst {})",
        truly_best.est_cost_bytes,
        truly_worst.est_cost_bytes
    );
}

#[test]
fn histogram_join_size_model_is_sane() {
    // The uniform-within-bucket model should land within 3x of the exact
    // join size for these distributions (it is a model, not an oracle).
    let (_, _, relations, specs, _) = build_system();
    let a = ExactHistogram::build(&relations[0], specs[0]).as_f64();
    let b = ExactHistogram::build(&relations[1], specs[0]).as_f64();
    let est = counting_at_large::histogram::query::join_size(&specs[0], &a, &b);
    let exact = exact_join_size(
        &relations[0].value_frequencies(),
        &relations[1].value_frequencies(),
    ) as f64;
    let ratio = est / exact;
    assert!(
        (0.33..3.0).contains(&ratio),
        "join size model ratio {ratio} (est {est}, exact {exact})"
    );
}

#[test]
fn reconstruction_cost_independent_of_bucket_count() {
    let (dhs, mut ring, relations, _, mut rng) = build_system();
    // Add a second partitioning with 4x the buckets over the same data.
    let hasher = SplitMix64::default();
    let fine = BucketSpec::new(0, 999, 80, 900);
    DhsHistogram::build(
        &dhs,
        &mut ring,
        &relations[1],
        fine,
        &hasher,
        &mut rng,
        &mut CostLedger::new(),
    );
    let origin = ring.alive_ids()[0];
    let coarse = BucketSpec::new(0, 999, 20, 132); // relation 1's original
    let h_coarse = DhsHistogram::reconstruct(
        &dhs,
        &ring,
        coarse,
        origin,
        &mut rng,
        &mut CostLedger::new(),
    );
    let h_fine =
        DhsHistogram::reconstruct(&dhs, &ring, fine, origin, &mut rng, &mut CostLedger::new());
    let ratio = h_fine.stats.hops as f64 / h_coarse.stats.hops as f64;
    assert!(
        ratio < 2.0,
        "80 buckets should not cost 4x the hops of 20: ratio {ratio}"
    );
    // Bandwidth does scale with bucket count.
    assert!(h_fine.stats.bytes > h_coarse.stats.bytes);
}
