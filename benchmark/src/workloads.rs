//! The four workloads: their shapes, what one round of each does, and
//! the output checks that run outside the timed slices.
//!
//! A round builds fresh state from its seed, generates every input
//! before any clock starts, runs the group's phases through the adapter
//! and returns rates, exact model outputs and failed checks. A traced
//! round is the same round over decorated seams; it is handed the
//! untraced round of the same seed and must reproduce its model outputs
//! bit for bit.

use std::time::Instant;

use crate::adapter::{
    self, CountOp, CountRun, DhtShape, FastInput, InsertOp, Model, NetFaults, OverlayTimes,
    TenantShape, TenantStream,
};
use crate::stats::{mix64, per_op_median};
use crate::trace::{Reading, SpanTree};

/// Relative standard error of super-LogLog with `m` registers.
fn sll_sigma(m: usize) -> f64 {
    1.05 / (m as f64).sqrt()
}

/// A count whose estimate is further than this many sigmas from the
/// truth is a failed operation. Four, not three: with four relations a
/// run, a 3-sigma rule fires on about one seed in a hundred on correct
/// code, and a benchmark workload must not fail.
const FAIL_SIGMAS: f64 = 4.0;
/// The mean error of a phase may not exceed this many sigmas (the mean
/// of four half-normal errors sits near 0.8 sigma; one sigma is crossed
/// on one seed in four).
const MEAN_SIGMAS: f64 = 2.0;
/// A lossy count is allowed to lose an interval (§4.1's distributed
/// error); it fails only when the estimate is useless.
const LOSSY_FAIL: f64 = 0.5;
/// Mean signed error allowed over the lossy counts of a round.
const LOSSY_MEAN: f64 = 0.15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Write,
    Read,
    Net,
    Tenant,
}

impl Group {
    pub const ALL: [Group; 4] = [Group::Write, Group::Read, Group::Net, Group::Tenant];

    pub fn workload(self) -> &'static str {
        match self {
            Group::Write => "dhs-write",
            Group::Read => "dhs-read",
            Group::Net => "net-lossy",
            Group::Tenant => "tenant-ingest",
        }
    }

    pub fn of(workload: &str) -> Option<Group> {
        Group::ALL.into_iter().find(|g| g.workload() == workload)
    }

    pub fn trace_metric(self) -> &'static str {
        match self {
            Group::Write => "trace.write_overhead_pct",
            Group::Read => "trace.read_overhead_pct",
            Group::Net => "trace.net_overhead_pct",
            Group::Tenant => "trace.tenant_overhead_pct",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WriteShape {
    pub dht: DhtShape,
    pub insert_items: usize,
    pub insert_metrics: u32,
    pub fast_epochs: usize,
    pub fast_epoch_len: usize,
    pub fast_flush_len: usize,
    pub fast_origins: usize,
    pub fast_domain: usize,
    pub fast_metrics: u32,
    pub fast_theta: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct ReadShape {
    pub dht: DhtShape,
    pub scale: f64,
    pub counts: usize,
    /// Same-seed replays of the `count` phase: the per-op median over
    /// them is what the latency percentiles are taken from.
    pub count_replays: usize,
    pub hinted: usize,
    pub hint_check_every: usize,
    pub multi: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    pub dht: DhtShape,
    pub prepop: u64,
    pub sub_rounds: usize,
    pub inserts: usize,
    pub counts: usize,
    pub faults: NetFaults,
}

/// Every size of the benchmark. `FULL` is what a workload's own phases
/// run; `SMALL` is the background pass that reads the other workloads'
/// metrics (and `--quick`).
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    pub write: WriteShape,
    pub read: ReadShape,
    pub net: NetShape,
    pub tenant: TenantShape,
}

const FAULTS: NetFaults = NetFaults {
    latency_mu: 3.0,
    latency_sigma: 0.5,
    latency_cap: 400,
    loss: 0.05,
    duplication: 0.01,
    reorder_jitter: 5,
    retry_attempts: 3,
    retry_base: 50,
    retry_cap: 400,
};

pub const FULL: Shapes = Shapes {
    write: WriteShape {
        dht: DhtShape {
            nodes: 1024,
            m: 512,
            k: 28,
        },
        insert_items: 1_000_000,
        insert_metrics: 8,
        fast_epochs: 8,
        fast_epoch_len: 512 * 1024,
        fast_flush_len: 256,
        fast_origins: 8,
        fast_domain: 1_000_000,
        fast_metrics: 16,
        fast_theta: 0.7,
    },
    read: ReadShape {
        dht: DhtShape {
            nodes: 1024,
            m: 512,
            k: 28,
        },
        scale: 0.1,
        counts: 150,
        count_replays: 3,
        hinted: 150,
        hint_check_every: 50,
        multi: 24,
    },
    net: NetShape {
        dht: DhtShape {
            nodes: 512,
            m: 512,
            k: 28,
        },
        prepop: 1_000_000,
        sub_rounds: 10,
        inserts: 50_000,
        counts: 60,
        faults: FAULTS,
    },
    tenant: TenantShape {
        tenants: 250,
        metrics_per_tenant: 1000,
        theta: 0.7,
        extra_updates: 750_000,
        shards: 8,
        m: 64,
    },
};

pub const SMALL: Shapes = Shapes {
    write: WriteShape {
        dht: DhtShape {
            nodes: 256,
            m: 512,
            k: 28,
        },
        insert_items: 100_000,
        insert_metrics: 8,
        fast_epochs: 4,
        fast_epoch_len: 64 * 1024,
        fast_flush_len: 256,
        fast_origins: 8,
        fast_domain: 100_000,
        fast_metrics: 16,
        fast_theta: 0.7,
    },
    read: ReadShape {
        dht: DhtShape {
            nodes: 256,
            m: 512,
            k: 28,
        },
        scale: 0.02,
        counts: 40,
        count_replays: 3,
        hinted: 40,
        hint_check_every: 20,
        multi: 8,
    },
    net: NetShape {
        dht: DhtShape {
            nodes: 128,
            m: 512,
            k: 28,
        },
        prepop: 200_000,
        sub_rounds: 2,
        inserts: 10_000,
        counts: 20,
        faults: FAULTS,
    },
    tenant: TenantShape {
        tenants: 25,
        metrics_per_tenant: 1000,
        theta: 0.7,
        extra_updates: 75_000,
        shards: 8,
        m: 64,
    },
};

/// Shapes small enough for the unit tests' debug build.
#[cfg(test)]
pub const TINY: Shapes = Shapes {
    write: WriteShape {
        dht: DhtShape {
            nodes: 64,
            m: 64,
            k: 24,
        },
        insert_items: 2_000,
        insert_metrics: 8,
        fast_epochs: 2,
        fast_epoch_len: 4_000,
        fast_flush_len: 256,
        fast_origins: 8,
        fast_domain: 2_000,
        fast_metrics: 16,
        fast_theta: 0.7,
    },
    read: ReadShape {
        dht: DhtShape {
            nodes: 64,
            m: 64,
            k: 24,
        },
        scale: 0.002,
        counts: 8,
        count_replays: 2,
        hinted: 8,
        hint_check_every: 4,
        multi: 2,
    },
    net: NetShape {
        dht: DhtShape {
            nodes: 64,
            m: 64,
            k: 24,
        },
        prepop: 20_000,
        sub_rounds: 2,
        inserts: 1_000,
        counts: 4,
        faults: FAULTS,
    },
    tenant: TenantShape {
        tenants: 4,
        metrics_per_tenant: 50,
        theta: 0.7,
        extra_updates: 4_000,
        shards: 8,
        m: 64,
    },
};

/// One timed phase of a round.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub ops: u64,
    pub secs: f64,
}

impl Phase {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    fn ns(&self) -> f64 {
        self.secs * 1e9
    }
}

/// What one round produced.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub phases: Vec<Phase>,
    /// Seconds of the phases that run through decorated seams when the
    /// round is traced: what the tracing overhead is taken over.
    pub decorated_secs: f64,
    /// End-to-end metric values of this round (rates and exact values).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-op `count` latencies (median over the round's replays), ns.
    pub count_lat_ns: Vec<u64>,
    pub model: Model,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Per-layer metric values (traced rounds only).
    pub layers: Vec<(&'static str, f64)>,
    /// Share table per phase (traced rounds only).
    pub tables: Vec<SpanTree>,
}

impl Round {
    fn phase(&mut self, name: &'static str, ops: usize, secs: f64) -> Phase {
        let phase = Phase {
            name,
            ops: ops as u64,
            secs,
        };
        self.phases.push(phase);
        self.attempted += ops as u64;
        phase
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Run one round of `group`, the `index`-th of its run. `baseline` is
/// the untraced round of the same seed and index; passing it makes this
/// round a traced one.
pub fn round(
    group: Group,
    shapes: &Shapes,
    seed: u64,
    index: usize,
    baseline: Option<&Round>,
) -> Round {
    let mut r = match group {
        Group::Write => write_round(&shapes.write, seed, baseline),
        Group::Read => read_round(&shapes.read, seed, index, baseline),
        Group::Net => net_round(&shapes.net, seed, baseline),
        Group::Tenant => tenant_round(&shapes.tenant, seed, baseline),
    };
    if let Some(base) = baseline {
        if base.model != r.model {
            let diff: Vec<String> = base
                .model
                .iter()
                .zip(&r.model)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{}: {} vs {}", a.0, a.1, b.1))
                .collect();
            r.problems.push(format!(
                "{}: traced model outputs differ from untraced: {diff:?}",
                group.workload()
            ));
        }
        let (plain, traced) = (base.decorated_secs, r.decorated_secs);
        r.layer(group.trace_metric(), 100.0 * (traced - plain) / plain);
    }
    r
}

/// A phase's span tree: the phase is the root, each decorated seam a
/// child, and what is left is the self time of the layer that calls
/// them — dhs-core's protocol code for the DHT phases, the store itself
/// under its cold tier. Returns (tree, root id).
fn phase_tree(phase: &Phase, owner: &str, seams: &[(&str, Reading)]) -> (SpanTree, usize) {
    let mut tree = SpanTree::new();
    let root = tree.add(
        None,
        &format!("{} ({owner} self)", phase.name),
        phase.ns(),
        phase.ops,
    );
    for (name, reading) in seams {
        tree.add(Some(root), name, reading.ns, reading.calls);
    }
    (tree, root)
}

fn overlay_seams(o: &OverlayTimes) -> Vec<(&'static str, Reading)> {
    vec![
        ("dht.route", o.route),
        ("dht.put_at", o.put),
        ("dht.fetch_at", o.fetch),
        ("dht.owner/next/prev", o.nav),
    ]
}

fn overlay_ns(o: &OverlayTimes) -> f64 {
    o.route.ns + o.put.ns + o.fetch.ns + o.nav.ns
}

fn model_get(model: &Model, name: &str) -> f64 {
    model
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

// ───────────────────────── dhs-write ─────────────────────────

fn write_round(shape: &WriteShape, seed: u64, baseline: Option<&Round>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let bed = adapter::WriteBed::new(&shape.dht, seed, baseline.is_some());
    let mut gen = adapter::generator(mix64(seed ^ 0x17));
    let ids = bed.node_ids();
    let inserts: Vec<InsertOp> = (0..shape.insert_items)
        .map(|i| InsertOp {
            metric: 1 + i as u32 % shape.insert_metrics,
            key: adapter::item_hash(adapter::draw_u64(&mut gen)),
            origin: ids[adapter::draw_index(&mut gen, ids.len())],
        })
        .collect();
    let fast = FastInput {
        accesses: adapter::zipf_accesses(
            &mut gen,
            shape.fast_domain,
            shape.fast_theta,
            shape.fast_epochs * shape.fast_epoch_len,
        ),
        epoch_len: shape.fast_epoch_len,
        flush_len: shape.fast_flush_len,
        origins: (0..shape.fast_origins)
            .map(|_| ids[adapter::draw_index(&mut gen, ids.len())])
            .collect(),
        metrics: shape.fast_metrics,
    };
    r.setup_s = setup.elapsed().as_secs_f64();

    let ins = bed.insert_phase(&inserts, mix64(seed ^ 0x18));
    let fst = bed.fast_phase(&fast, mix64(seed ^ 0x19));
    let p_ins = r.phase("insert", inserts.len(), ins.secs);
    let p_fst = r.phase("fast", fast.accesses.len(), fst.secs);
    r.decorated_secs = ins.secs + fst.secs;
    r.end_to_end.push(("insert_ops_s", p_ins.rate()));
    r.end_to_end.push(("fast_insert_ops_s", p_fst.rate()));
    r.model.extend(ins.model.iter().chain(&fst.model).copied());

    let Some(base) = baseline else {
        return r;
    };
    let n = p_ins.ops as f64;
    let dht = overlay_ns(&ins.overlay);
    r.layer("dht.insert_route_ns", ins.overlay.route.mean_ns());
    r.layer("dht.insert_put_ns", ins.overlay.put.mean_ns());
    r.layer("dht.insert_nav_ns", ins.overlay.nav.mean_ns());
    r.layer("dht.insert_share", ratio(dht, p_ins.ns()));
    r.layer("dht.insert_hops", model_get(&r.model, "insert.hops") / n);
    let (tree, root) = phase_tree(&p_ins, "core", &overlay_seams(&ins.overlay));
    r.layer("core.insert_self_ns", tree.self_ns(root) / n);
    r.layer("core.insert_share", tree.self_share(root));
    r.tables.push(tree);

    let a = p_fst.ops as f64;
    let get = |name| model_get(&r.model, name);
    let (eh, em) = (get("fast.elide_hits"), get("fast.elide_misses"));
    let (rh, rm) = (get("fast.route_hits"), get("fast.route_misses"));
    let msgs = get("fast.messages");
    r.layer("dht.fast_route_ns", fst.overlay.route.mean_ns());
    r.layer("dht.fast_route_hit_ratio", ratio(rh, rh + rm));
    r.layer("dht.fast_put_ns", fst.overlay.put.mean_ns());
    r.layer(
        "dht.fast_share",
        ratio(overlay_ns(&fst.overlay), p_fst.ns()),
    );
    let (tree, root) = phase_tree(&p_fst, "core", &overlay_seams(&fst.overlay));
    r.layer("core.fast_self_ns", tree.self_ns(root) / a);
    r.layer("core.fast_elide_ratio", ratio(eh, eh + em));
    r.layer("core.fast_msgs_per_kitem", msgs / (a / 1000.0));
    r.tables.push(tree);

    // Observability on: the plain insert pass again, every event timed.
    let obs = bed.observed_insert_pass(&inserts, mix64(seed ^ 0x18));
    let plain = base.phases[0].secs;
    r.layer(
        "obs.insert_events",
        obs.record.calls as f64 / (inserts.len() / 4) as f64,
    );
    r.layer("obs.insert_record_ns", obs.record.mean_ns());
    r.layer(
        "obs.insert_overhead_pct",
        100.0 * (obs.secs - plain) / plain,
    );
    r
}

// ───────────────────────── dhs-read ─────────────────────────

/// Count failed operations and check the mean error of a direct phase.
fn judge_counts(r: &mut Round, phase: &str, run: &CountRun, m: usize) -> f64 {
    let sigma = sll_sigma(m);
    let failed = run
        .rel_errs
        .iter()
        .filter(|e| e.abs() > FAIL_SIGMAS * sigma)
        .count();
    r.failed += failed as u64;
    let mean = run.rel_errs.iter().map(|e| e.abs()).sum::<f64>() / run.rel_errs.len() as f64;
    r.check(mean <= MEAN_SIGMAS * sigma, || {
        format!(
            "dhs-read {phase}: mean |error| {mean:.4} above {:.4}",
            MEAN_SIGMAS * sigma
        )
    });
    mean
}

/// The populated rings of `dhs-read` are fixtures, like the relations'
/// tuple ids: round `i` of every run builds ring `i` of this family, and
/// `--seed` drives the operations on it (origins, probe draws). A ring's
/// node ids fix the sizes of the per-node stores and with them what a
/// `fetch_at` costs: rings read 390 to 590 counts/s at identical protocol
/// counters (13 300 probes, 2 777 lookups a round). A run still averages
/// over layouts, but every run over the same ones; with rings drawn from
/// `--seed`, eight of them a run, the count rates spread 12 % of their
/// median from seed to seed.
const READ_FIXTURE_SEED: u64 = 0x5EED_0F_D45;

fn read_round(shape: &ReadShape, seed: u64, index: usize, baseline: Option<&Round>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let mut bed = adapter::ReadBed::new(
        &shape.dht,
        shape.scale,
        mix64(READ_FIXTURE_SEED.wrapping_add(index as u64)),
        baseline.is_some(),
    );
    let mut gen = adapter::generator(mix64(seed ^ 0x27));
    let ids = bed.node_ids().to_vec();
    let metrics = bed.metrics();
    let mut ops = |n: usize| -> Vec<CountOp> {
        (0..n)
            .map(|i| CountOp {
                metric: 1 + i as u32 % metrics,
                origin: ids[adapter::draw_index(&mut gen, ids.len())],
            })
            .collect()
    };
    let count_ops = ops(shape.counts);
    let hinted_ops = ops(shape.hinted);
    let multi_origins: Vec<u64> = ops(shape.multi).iter().map(|op| op.origin).collect();
    r.setup_s = setup.elapsed().as_secs_f64();

    // `count`, replayed from the same seed on the same ring: the
    // replays' model outputs must agree, their per-op median is the
    // latency sample, and every replay counts towards the rate.
    let count_seed = mix64(seed ^ 0x28);
    let replays: Vec<CountRun> = (0..shape.count_replays)
        .map(|_| bed.count_phase(&count_ops, count_seed))
        .collect();
    let first = &replays[0];
    let deterministic = replays.iter().all(|run| run.model == first.model);
    r.check(deterministic, || {
        "dhs-read count: same-seed replays disagree".to_string()
    });
    let count_secs: f64 = replays.iter().map(|run| run.secs).sum();
    let p_count = r.phase("count", shape.counts * shape.count_replays, count_secs);
    let lat: Vec<Vec<u64>> = replays.iter().map(|run| run.lat_ns.clone()).collect();
    r.count_lat_ns = per_op_median(&lat);
    let mean_err = judge_counts(&mut r, "count", first, shape.dht.m);

    let hinted = bed.hinted_phase(&hinted_ops, mix64(seed ^ 0x29), shape.hint_check_every);
    let p_hinted = r.phase("hinted", shape.hinted, hinted.secs);
    judge_counts(&mut r, "hinted", &hinted, shape.dht.m);
    r.check(hinted.hint_mismatches == 0, || {
        format!(
            "dhs-read hinted: {} of {} hinted counts differ from their unhinted re-run",
            hinted.hint_mismatches, hinted.hint_checks
        )
    });

    let multi = bed.multi_phase(&multi_origins, mix64(seed ^ 0x2a));
    let p_multi = r.phase("multi", shape.multi, multi.secs);
    judge_counts(&mut r, "multi", &multi, shape.dht.m);

    r.decorated_secs = count_secs + hinted.secs + multi.secs;
    r.end_to_end.push(("count_ops_s", p_count.rate()));
    r.end_to_end.push(("hinted_count_ops_s", p_hinted.rate()));
    r.end_to_end.push(("multi_count_ops_s", p_multi.rate()));
    r.end_to_end.push(("count_rel_err", mean_err));
    r.model.extend(
        first
            .model
            .iter()
            .chain(&hinted.model)
            .chain(&multi.model)
            .copied(),
    );

    let Some(base) = baseline else {
        return r;
    };
    // Decorator readings of the count phase cover all replays.
    let overlay = replays
        .iter()
        .fold(OverlayTimes::default(), |acc, run| acc.plus(run.overlay));
    let n = p_count.ops as f64;
    let one = shape.counts as f64;
    let get = |name| model_get(&r.model, name);
    let (probes, lookups, intervals) = (
        get("count.probes"),
        get("count.lookups"),
        get("count.intervals"),
    );
    r.layer("dht.count_fetch_ns", overlay.fetch.mean_ns());
    r.layer("dht.count_fetch_calls", overlay.fetch.calls as f64 / n);
    r.layer("dht.count_route_ns", overlay.route.mean_ns());
    r.layer("dht.count_route_calls", overlay.route.calls as f64 / n);
    r.layer("dht.count_nav_calls", overlay.nav.calls as f64 / n);
    r.layer("dht.count_share", ratio(overlay_ns(&overlay), p_count.ns()));
    let (tree, root) = phase_tree(&p_count, "core", &overlay_seams(&overlay));
    r.layer("core.count_self_ns", tree.self_ns(root) / n);
    r.layer("core.count_share", tree.self_share(root));
    r.layer("core.count_probes", probes / one);
    r.layer("core.count_lookups", lookups / one);
    r.layer("core.count_intervals", intervals / one);
    r.tables.push(tree);

    let h = p_hinted.ops as f64;
    let (tree, root) = phase_tree(&p_hinted, "core", &overlay_seams(&hinted.overlay));
    r.layer("core.hinted_self_ns", tree.self_ns(root) / h);
    r.layer(
        "core.hinted_intervals_skipped",
        model_get(&r.model, "hinted.skipped") / h,
    );
    r.tables.push(tree);

    let s = p_multi.ops as f64;
    r.layer(
        "dht.multi_fetch_calls",
        multi.overlay.fetch.calls as f64 / s,
    );
    r.layer(
        "dht.multi_share",
        ratio(overlay_ns(&multi.overlay), p_multi.ns()),
    );
    let (tree, root) = phase_tree(&p_multi, "core", &overlay_seams(&multi.overlay));
    r.layer("core.multi_self_ns", tree.self_ns(root) / s);
    r.layer("core.multi_share", tree.self_share(root));
    r.tables.push(tree);

    r.layer("sketch.estimate_m512_ns", bed.estimator_ns(2_000));

    let obs = bed.observed_count_pass(&count_ops, count_seed);
    let plain = base.phases[0].secs / shape.count_replays as f64;
    r.layer(
        "obs.count_events",
        obs.record.calls as f64 / (shape.counts / 4) as f64,
    );
    r.layer("obs.count_record_ns", obs.record.mean_ns());
    r.layer("obs.count_overhead_pct", 100.0 * (obs.secs - plain) / plain);
    r
}

// ───────────────────────── net-lossy ─────────────────────────

fn net_round(shape: &NetShape, seed: u64, baseline: Option<&Round>) -> Round {
    let mut r = Round::default();
    let setup = Instant::now();
    let mut bed = adapter::NetBed::new(
        &shape.dht,
        shape.prepop,
        shape.faults,
        seed,
        baseline.is_some(),
    );
    r.setup_s = setup.elapsed().as_secs_f64();

    let mut gen = adapter::generator(mix64(seed ^ 0x37));
    let mut total = adapter::NetRun::default();
    for sub in 0..shape.sub_rounds {
        // Inputs of the sub-round, before its clocks.
        let setup = Instant::now();
        let inserts = bed.fresh_inserts(shape.inserts, &mut gen);
        let ids = bed.node_ids();
        let origins: Vec<u64> = (0..shape.counts)
            .map(|_| ids[adapter::draw_index(&mut gen, ids.len())])
            .collect();
        r.setup_s += setup.elapsed().as_secs_f64();
        let sim_seed = mix64(seed ^ 0x38).wrapping_add(sub as u64);
        total.absorb(bed.sub_round(&inserts, &origins, sim_seed));
    }
    r.model = bed.model();
    r.decorated_secs = total.insert_secs + total.count_secs;

    let p_ins = r.phase(
        "ninsert",
        shape.sub_rounds * shape.inserts,
        total.insert_secs,
    );
    let p_cnt = r.phase("ncount", shape.sub_rounds * shape.counts, total.count_secs);
    r.end_to_end.push(("net_insert_ops_s", p_ins.rate()));
    r.end_to_end.push(("net_count_ops_s", p_cnt.rate()));

    let errs = &total.rel_errs;
    r.failed += errs.iter().filter(|e| e.abs() > LOSSY_FAIL).count() as u64;
    let mean_signed = errs.iter().sum::<f64>() / errs.len() as f64;
    let mean_abs = errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64;
    r.check(mean_signed.abs() <= LOSSY_MEAN, || {
        format!("net-lossy ncount: mean error {mean_signed:.4} beyond ±{LOSSY_MEAN}")
    });

    if baseline.is_none() {
        return r;
    }
    net_phase_layers(
        &mut r,
        &p_ins,
        &total.insert_overlay,
        total.insert_exchange,
        [
            "net.ninsert_exchange_ns",
            "net.ninsert_exchanges",
            "net.ninsert_share",
            "dht.ninsert_share",
            "core.ninsert_share",
        ],
    );
    net_phase_layers(
        &mut r,
        &p_cnt,
        &total.count_overlay,
        total.count_exchange,
        [
            "net.ncount_exchange_ns",
            "net.ncount_exchanges",
            "net.ncount_share",
            "dht.ncount_share",
            "core.ncount_share",
        ],
    );
    for name in ["net.sent", "net.dropped", "net.duplicates"] {
        let value = model_get(&r.model, name);
        r.layer(name, value);
    }
    r.layer("net.retry_pauses", total.retry_pauses as f64);
    r.layer(
        "net.virtual_ticks_per_count",
        total.count_ticks as f64 / p_cnt.ops as f64,
    );
    r.layer("net.count_rel_err", mean_abs);
    r
}

/// The layer metrics of one net-lossy phase: the simulator's exchanges
/// (mean ns, per op, share), the overlay's share and core's self share.
fn net_phase_layers(
    r: &mut Round,
    phase: &Phase,
    overlay: &OverlayTimes,
    exchange: Reading,
    names: [&'static str; 5],
) {
    let mut seams = overlay_seams(overlay);
    seams.push(("net.exchange", exchange));
    let (tree, root) = phase_tree(phase, "core", &seams);
    r.layer(names[0], exchange.mean_ns());
    r.layer(names[1], exchange.calls as f64 / phase.ops as f64);
    r.layer(names[2], ratio(exchange.ns, phase.ns()));
    r.layer(names[3], ratio(overlay_ns(overlay), phase.ns()));
    r.layer(names[4], tree.self_share(root));
    r.tables.push(tree);
}

// ───────────────────────── tenant-ingest ─────────────────────────

/// Every this-many-th key's estimate after `evict` must equal its
/// estimate after `store`, bit for bit (the cold tier is lossless).
const EVICT_SAMPLE_EVERY: usize = 100;

fn tenant_round(shape: &TenantShape, seed: u64, baseline: Option<&Round>) -> Round {
    let mut r = Round::default();
    let traced = baseline.is_some();
    let setup = Instant::now();
    let stream = TenantStream::generate(shape, seed);
    r.setup_s = setup.elapsed().as_secs_f64();
    let n = stream.len();

    let mut filled = adapter::store_phase(&stream, false);
    let p_store = r.phase("store", n, filled.secs);

    let est = adapter::estimate_phase(&mut filled, &stream);
    let p_est = r.phase("estimate", est.estimates.len(), est.secs);
    r.failed += est.missing;

    let budget = filled.peak_shard_bytes / 2;
    let ev = adapter::evict_phase(&stream, budget, EVICT_SAMPLE_EVERY, traced);
    let p_evict = r.phase("evict", n, ev.secs);
    r.decorated_secs = ev.secs;
    let lossless = ev
        .sample
        .iter()
        .zip(est.estimates.iter().step_by(EVICT_SAMPLE_EVERY))
        .all(|(after, &before)| *after == Some(before));
    r.check(lossless, || {
        "tenant-ingest evict: a sampled estimate differs from the unbudgeted store's".to_string()
    });

    let mut drivers = Vec::new();
    for (name, workers) in [("drv1", 1usize), ("drv2", 2)] {
        match adapter::driver_phase(&stream, workers) {
            Ok(run) => {
                r.phase(name, run.items as usize, run.secs);
                drivers.push(run);
            }
            Err(e) => {
                r.attempted += n as u64;
                r.failed += n as u64;
                r.problems.push(format!("tenant-ingest {name}: {e}"));
            }
        }
    }
    if let [d1, d2] = &drivers[..] {
        let agree = d1.state_digest == d2.state_digest
            && d1.metrics_digest == d2.metrics_digest
            && d1.state_digest == est.state_digest;
        r.check(agree, || {
            format!(
                "tenant-ingest: state digests differ: store {:016x} drv1 {:016x} drv2 {:016x}",
                est.state_digest, d1.state_digest, d2.state_digest
            )
        });
        r.end_to_end
            .push(("driver_w1_ops_s", d1.items as f64 / d1.secs));
        r.end_to_end
            .push(("driver_w2_ops_s", d2.items as f64 / d2.secs));
        r.model.push(("drv.state_digest", d1.state_digest));
        r.model.push(("drv.metrics_digest", d1.metrics_digest));
        r.model.push(("drv.chunks", d1.chunks));
        r.model.push(("drv.keys", d1.keys));
    }
    r.end_to_end.push(("store_ops_s", p_store.rate()));
    r.end_to_end.push(("store_estimate_ops_s", p_est.rate()));
    r.end_to_end.push(("store_evict_ops_s", p_evict.rate()));
    r.end_to_end
        .push(("store_bytes_per_sketch", filled.bytes_per_sketch));
    r.model.push(("store.state_digest", est.state_digest));
    r.model.push(("store.resident", filled.resident));
    r.model.push(("store.promotions", filled.promotions));
    r.model.push(("evict.evictions", ev.evictions));
    r.model.push(("evict.recoveries", ev.recoveries));
    r.model.push(("evict.spilled_bytes", ev.spilled_bytes));
    r.model.push(("evict.digest", ev.eviction_digest));

    if !traced {
        return r;
    }
    let nf = n as f64;
    let reg = stream.registration_len() as f64;
    let layers = adapter::tenant_layers(&stream, &filled);
    let observe_ns = p_store.ns() / nf;
    r.layer("sketch.hash_rho_ns", layers.hash_rho_ns);
    r.layer("sketch.tier_observe_ns", layers.tier_observe_ns);
    r.layer("sketch.tier_promotions", layers.tier_promotions as f64);
    r.layer("sketch.estimate_m64_ns", layers.estimate_ns);
    r.layer("sketch.wire_ns", layers.wire_ns);
    r.layer(
        "sketch.payload_bytes_per_sketch",
        layers.payload_bytes_per_sketch,
    );
    r.layer("shard.store_observe_ns", observe_ns);
    r.layer(
        "shard.store_index_ns",
        (observe_ns - layers.hash_rho_ns - layers.tier_observe_ns).max(0.0),
    );
    r.layer("shard.store_reg_pass_ns", filled.pass_secs.0 * 1e9 / reg);
    r.layer(
        "shard.store_zipf_pass_ns",
        filled.pass_secs.1 * 1e9 / (nf - reg),
    );
    r.layer("shard.router_ns", layers.router_ns);

    let cold = ev.spill.plus(ev.recover);
    r.layer("shard.evict_observe_ns", p_evict.ns() / nf);
    r.layer("shard.evictions", ev.evictions as f64);
    r.layer("shard.recoveries", ev.recoveries as f64);
    r.layer("shard.spilled_bytes", ev.spilled_bytes as f64);
    r.layer("shard.cold_spill_ns", ev.spill.mean_ns());
    r.layer("shard.cold_recover_ns", ev.recover.mean_ns());
    r.layer("shard.evict_share", ratio(cold.ns, p_evict.ns()));
    let (tree, _) = phase_tree(
        &p_evict,
        "shard",
        &[
            ("shard.cold.spill", ev.spill),
            ("shard.cold.recover", ev.recover),
        ],
    );
    r.tables.push(tree);

    let estimate_ns = p_est.ns() / p_est.ops as f64;
    r.layer("shard.estimate_ns", estimate_ns);
    r.layer(
        "shard.estimate_self_ns",
        (estimate_ns - layers.estimate_ns).max(0.0),
    );
    r.layer("shard.bytes_per_sketch", filled.bytes_per_sketch);
    r.layer("shard.resident", filled.resident as f64);

    // The driver reports every item through an `Observer`; what that
    // costs is read off a store pass recording into a timed one.
    let observed = adapter::store_phase(&stream, true);
    let events = observed.record.calls as f64 / nf;
    r.layer("obs.store_events", events);
    r.layer("obs.store_record_ns", observed.record.mean_ns());

    if let [d1, d2] = &drivers[..] {
        let (item1, item2) = (d1.secs * 1e9 / nf, d2.secs * 1e9 / nf);
        let speedup = d1.secs / d2.secs;
        let (max, min) = (
            *d2.worker_items.iter().max().unwrap_or(&0) as f64,
            *d2.worker_items.iter().min().unwrap_or(&0) as f64,
        );
        r.layer("par.drv1_item_ns", item1);
        r.layer("par.drv2_item_ns", item2);
        r.layer(
            "par.drv1_overhead_ns",
            item1 - layers.tenant_gen_ns - observe_ns - events * observed.record.mean_ns(),
        );
        r.layer("par.drv2_speedup", speedup);
        r.layer("par.drv2_efficiency_pct", 100.0 * speedup / 2.0);
        r.layer("par.worker_imbalance_pct", 100.0 * (max - min) / (nf / 2.0));
        r.layer("par.chunks", d1.chunks as f64);
    }
    r.layer("workload.tenant_gen_ns", layers.tenant_gen_ns);
    r.layer("workload.zipf_sample_ns", layers.zipf_sample_ns);
    r
}
