//! Network census: the paper's motivating file-sharing scenario.
//!
//! A P2P network shares documents, with popular documents replicated on
//! many peers. The network wants to know, cheaply and from any node:
//!
//! * how many *distinct* documents exist (duplicate-insensitive),
//! * how many peers are online (counting the node population itself),
//! * per-keyword document frequencies (multi-dimensional counting), and
//! * all of the above while nodes crash.
//!
//! ```sh
//! cargo run --release --example network_census
//! ```

use counting_at_large::dhs::{Dhs, DhsConfig, EstimatorKind, MetricId};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::sketch::{ItemHasher, SplitMix64};
use counting_at_large::workload::DuplicatedMultiset;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DOCS_METRIC: MetricId = 1;
const PEERS_METRIC: MetricId = 2;
const KEYWORD_BASE: MetricId = 10;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let nodes = 1024;
    let mut ring = Ring::build(nodes, RingConfig::default(), &mut rng);
    let dhs = Dhs::new(DhsConfig {
        m: 128,
        replication: 2, // shrug off crashes (§3.5)
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    })
    .expect("valid configuration");
    // Counting the node population is a *small-cardinality* metric
    // (1024 items over 1024 nodes). The paper's §4.1 remedies: fewer
    // bitmaps, more probes (eq. 6) and explicit replication.
    let peers_dhs = Dhs::new(DhsConfig {
        m: 32,
        lim: 16,
        replication: 24,
        estimator: EstimatorKind::SuperLogLog,
        ..DhsConfig::default()
    })
    .expect("valid configuration");
    let hasher = SplitMix64::default();

    // 200k distinct documents; popular ones replicated on many peers.
    let corpus = DuplicatedMultiset::zipf_copies(200_000, 400, 0.7, &mut rng);
    println!(
        "corpus: {} distinct documents, {} copies total ({:.1}x duplication)",
        corpus.distinct,
        corpus.len(),
        corpus.duplication_factor()
    );

    // Each copy lives on some peer, which records it. Peers also record
    // themselves (node census) and each document under its keywords.
    let keywords = 4u64; // document d matches keyword d % 4
    let mut ledger = CostLedger::new();
    for &doc in &corpus.items {
        let peer = ring.random_alive(&mut rng);
        let key = hasher.hash_u64(doc);
        dhs.insert(&mut ring, DOCS_METRIC, key, peer, &mut rng, &mut ledger);
        let kw = KEYWORD_BASE + u32::try_from(doc % keywords).expect("keyword ids fit u32");
        dhs.insert(&mut ring, kw, key, peer, &mut rng, &mut ledger);
    }
    for &peer in ring.alive_ids().to_vec().iter() {
        peers_dhs.insert(
            &mut ring,
            PEERS_METRIC,
            hasher.hash_u64(peer),
            peer,
            &mut rng,
            &mut ledger,
        );
    }
    println!(
        "population done: {:.1} MB total bandwidth, {:.1} kB stored per node\n",
        ledger.bytes() as f64 / (1024.0 * 1024.0),
        ring.storage_summary().mean / 1024.0
    );

    // Census from an arbitrary peer: documents + peers + all keyword
    // frequencies in ONE scan (the multi-dimensional counting of §4.2).
    let querier = ring.random_alive(&mut rng);
    let metrics: Vec<MetricId> = [DOCS_METRIC]
        .into_iter()
        .chain((0..u32::try_from(keywords).expect("keyword ids fit u32")).map(|k| KEYWORD_BASE + k))
        .collect();
    let mut census_cost = CostLedger::new();
    let results = dhs.count_multi(&ring, &metrics, querier, &mut rng, &mut census_cost);
    let peers = peers_dhs.count(&ring, PEERS_METRIC, querier, &mut rng, &mut census_cost);
    println!(
        "census from one peer ({} hops, {:.1} kB for ALL metrics):",
        results[0].stats.hops + peers.stats.hops,
        census_cost.bytes() as f64 / 1024.0
    );
    println!(
        "  distinct documents ~ {:.0} (actual {})",
        results[0].estimate, corpus.distinct
    );
    // Counting 1024 peers is the paper's §4.1 hard case: a naive config
    // (512 bitmaps, lim 5) collapses; the remedied config recovers most
    // of it, the residual being the sketch's own small-n/m bias.
    let naive_peers = dhs.count(
        &ring,
        PEERS_METRIC,
        querier,
        &mut rng,
        &mut CostLedger::new(),
    );
    println!(
        "  online peers       ~ {:.0} (actual {nodes}; naive config would say {:.0})",
        peers.estimate, naive_peers.estimate
    );
    let doc_total: f64 = results[1..].iter().map(|r| r.estimate).sum();
    for (k, r) in results[1..].iter().enumerate() {
        println!(
            "  keyword {k}: df ~ {:.0} (significance {:.2})",
            r.estimate,
            r.estimate / doc_total
        );
    }

    // A third of the network crashes. Replication keeps the estimate sane.
    let report = ring.fail_random(0.33, &mut rng);
    println!(
        "\n{} peers crash ({} stored tuples with them)",
        report.failed, report.records_lost
    );
    let survivor = ring.random_alive(&mut rng);
    let mut after_cost = CostLedger::new();
    let after = dhs.count(&ring, DOCS_METRIC, survivor, &mut rng, &mut after_cost);
    println!(
        "post-crash estimate: {:.0} distinct documents (error {:+.1}%)",
        after.estimate,
        after.relative_error(corpus.distinct) * 100.0
    );
}
