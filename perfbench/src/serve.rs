//! The serve phase: `run_serve` over UDG(r = 1) on a Poisson λ = 10
//! universe with a 12.5 % reserve pool, one reader thread, 8 closed-loop
//! clients (each issues its next query when the last returns).
//!
//! Each repetition is one whole `run_serve` call; the time it spends
//! before its epoch loop (`GridIndex` + `IncrementalGraph::build`, i.e.
//! outside `ServeReport::wall_secs`) is set-up.
//!
//! The epoch schedule (clustered deaths, joins from the reserve in
//! ascending id order) is recomputed here from the engine's seed streams.
//! The untimed check rebuilds every epoch's graph cold from that schedule
//! and compares its fingerprint with the one `run_serve` reported, so the
//! incremental repair is checked against a builder it does not use.
//!
//! The serve engine's writer is private, so a traced run also replays the
//! writer side from outside on the same universe, twice: once with the
//! phase's own mix, and once with a join-driven mix (10 % clustered churn
//! per epoch, blast radius 5, join rate 0.5) that makes the repair
//! re-derive shards, which the deaths-only mix never does. Each replay
//! drives the schedule through the public `IncrementalGraph::apply_churn`,
//! `Snapshot::capture` (and its public parts) and
//! `EpochPublisher::publish`, and `simulate_lifetime_plain` with zero
//! traffic runs the same schedule through the batch engine;
//! `fingerprints_match_batch` must hold between them. The repair counters
//! and splice times come from the batch run's epoch reports.

use wsn_geom::hash::{derive_seed, derive_seed2, mix64};
use wsn_geom::{Aabb, Point};
use wsn_graph::components::connected_components;
use wsn_graph::{fingerprint, EpochPublisher};
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn_rgg::{IncTopology, IncrementalGraph, RepairStats};
use wsn_simnet::churn::{cold_sharded_rebuild, ChurnConfig, ChurnModel, LifetimeReport};
use wsn_simnet::serve::fingerprints_match_batch;
use wsn_simnet::{
    run_replay, run_serve, simulate_lifetime_plain, ServeConfig, ServeReport, Snapshot,
};
use wsn_spatial::GridIndex;

use crate::record::{median, Source};
use crate::{Ctx, Phase};

/// Reader threads of every serve run.
pub const READERS: usize = 1;
const CLIENTS: usize = 8;
const LAMBDA: f64 = 10.0;
/// Share of the universe held back as the reserve pool (dead at start;
/// only the traced join-driven replay admits from it).
const RESERVE_FRAC: f64 = 0.125;
const HOT_ROUTES: usize = 4;
const CACHE_CAPACITY: usize = 512;
const KIND: IncTopology = IncTopology::Udg { radius: 1.0 };
/// Battery so large that no node ever depletes: deaths are the blasts'.
const BATTERY: f64 = 1e12;
const EPOCHS: usize = 2;
/// Expected share of the alive nodes each epoch's blasts kill.
const P_FAIL: f64 = 3e-4;
const BLAST_RADIUS: f64 = 3.0;
const QUERIES_PER_CLIENT: usize = 1024;
/// The traced join-driven mix: share killed per epoch, blast radius, join
/// rate.
const JOIN_P_FAIL: f64 = 0.10;
const JOIN_BLAST_RADIUS: f64 = 5.0;
const JOIN_RATE: f64 = 0.5;

/// The serve phase's churn and query mix: deaths-only blasts (p_fail
/// 3·10⁻⁴, radius 3, join rate 0), 2 epochs, 8 clients × 1024 queries per
/// epoch.
fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        clustered(P_FAIL, BLAST_RADIUS, 0.0),
        READERS,
        CLIENTS,
        QUERIES_PER_CLIENT,
    );
    cfg.hot_routes = HOT_ROUTES;
    cfg.cache_capacity = CACHE_CAPACITY;
    cfg.seed = derive_seed(seed, 0x5E_0002);
    cfg
}

/// A clustered churn schedule over [`EPOCHS`] epochs, without traffic.
fn clustered(p_fail: f64, radius: f64, join_rate: f64) -> ChurnConfig {
    let mut churn = ChurnConfig::new(EPOCHS, BATTERY, 0, p_fail, join_rate);
    churn.churn_model = ChurnModel::Clustered { radius };
    // `ChurnConfig::new` turns verification on under debug assertions,
    // which the release profile keeps; timed runs must not pay for it.
    churn.verify = false;
    churn
}

/// What one traced writer replay measured.
struct WriterReplay {
    fingerprints: Vec<u64>,
    repairs: Vec<RepairStats>,
    /// Seconds of apply_churn + capture + publish, summed over epochs.
    writer_secs: f64,
    /// Seconds of the captures alone, summed over epochs.
    capture_secs: f64,
}

/// A traced replay of one mix and the batch engine's run of the same
/// schedule.
struct TracedMix {
    name: &'static str,
    churn: ChurnConfig,
    replay: WriterReplay,
    lifetime: LifetimeReport,
}

/// The serve phase over one universe.
pub struct Serve {
    src: Source,
    cfg: ServeConfig,
    points: PointSet,
    alive: Vec<bool>,
    deploy_seed: u64,
    side: f64,
    /// Every set-up repetition sampled the same universe.
    setup_identical: bool,
    reports: Vec<ServeReport>,
    /// Traced runs only: the phase's own mix, then the join-driven mix.
    traced: Vec<TracedMix>,
}

impl Serve {
    /// Set-up: sample the universe. [`Phase::setup_rep`] samples it again
    /// once per round. (Each repetition's own index and graph build is
    /// set-up too.)
    pub fn new(ctx: &mut Ctx, seed: u64, n: f64, src: Source) -> Self {
        let side = (n / LAMBDA).sqrt();
        let deploy_seed = derive_seed(seed, 0x5E_0001);
        let points = sample(ctx, src, deploy_seed, side);
        let deployed = points.len() - (RESERVE_FRAC * points.len() as f64).round() as usize;
        ctx.size("serve.n", points.len() as f64);
        ctx.size("serve.n_deployed", deployed as f64);
        Serve {
            src,
            cfg: serve_config(seed),
            alive: (0..points.len()).map(|i| i < deployed).collect(),
            points,
            deploy_seed,
            side,
            setup_identical: true,
            reports: Vec::new(),
            traced: Vec::new(),
        }
    }
}

/// One timed set-up sample: the universe, a square of side `side`.
fn sample(ctx: &mut Ctx, src: Source, deploy_seed: u64, side: f64) -> PointSet {
    let (points, secs) = ctx.tr.time("pointproc", "pointproc.sample", || {
        sample_poisson_window(&mut rng_from_seed(deploy_seed), LAMBDA, &Aabb::square(side))
    });
    if ctx.traced() {
        ctx.add(src, "pointproc.sample_s", "s", secs);
    }
    ctx.setup_sample("serve.sample", secs);
    points
}

impl Phase for Serve {
    fn setup_rep(&mut self, ctx: &mut Ctx) {
        let points = sample(ctx, self.src, self.deploy_seed, self.side);
        let (same, _) = ctx
            .tr
            .time("check", "serve.setup_repeat", || points == self.points);
        self.setup_identical &= same;
    }

    /// One whole `run_serve` call.
    fn rep(&mut self, ctx: &mut Ctx) {
        let (report, secs) = ctx.tr.time("simnet", "simnet.run_serve", || {
            run_serve(&self.points, &self.alive, KIND, &self.cfg)
        });
        ctx.setup_sample("serve.index_and_graph", secs - report.wall_secs);
        ctx.ops_attempted += report.queries;
        ctx.ops_failed += report.errors;
        if ctx.traced() {
            ctx.add(self.src, "simnet.query_p50_us", "us", report.p50_us);
        } else {
            ctx.add(self.src, "qps", "queries/s", report.qps);
            ctx.add(self.src, "query_p99_us", "us", report.p99_us);
        }
        self.reports.push(report);
    }

    /// The traced writer-side measurements (see the module docs).
    fn traced_extras(&mut self, ctx: &mut Ctx) {
        let (src, points, alive) = (self.src, &self.points, &self.alive);
        let cfg = &self.cfg;
        let (_, secs) = ctx.tr.time("spatial", "spatial.grid_build", || {
            GridIndex::build(points, cfg.route_radius.max(cfg.coverage_radius))
        });
        ctx.add(src, "spatial.grid_build_s", "s", secs);

        let own = traced_mix(ctx, "serve", Some(src), points, alive, cfg.churn, cfg.seed);
        let join_churn = clustered(JOIN_P_FAIL, JOIN_BLAST_RADIUS, JOIN_RATE);
        let joined = traced_mix(ctx, "serve_join", None, points, alive, join_churn, cfg.seed);
        record_own(ctx, src, &own);
        record_join(ctx, src, &joined);

        let reports = &self.reports;
        let wall = median(&reports.iter().map(|r| r.wall_secs).collect::<Vec<_>>());
        ctx.add(
            src,
            "simnet.reader_share",
            "fraction",
            1.0 - own.replay.writer_secs / wall,
        );
        ctx.add(
            src,
            "simnet.capture_share",
            "fraction",
            own.replay.capture_secs / wall,
        );
        let r = &reports[0];
        ctx.add(src, "simnet.queries", "count", r.queries as f64);
        ctx.add(
            src,
            "simnet.cache_hit_rate",
            "fraction",
            r.cache_hits as f64 / r.cache_lookups.max(1) as f64,
        );
        let live = reports
            .iter()
            .map(|r| r.max_live_snapshots)
            .max()
            .unwrap_or(0);
        ctx.add(src, "graph.snapshots_live_max", "count", live as f64);
        self.traced = vec![own, joined];
    }

    fn check(self: Box<Self>, ctx: &mut Ctx) {
        let Serve {
            cfg,
            points,
            alive,
            reports,
            traced,
            setup_identical,
            ..
        } = *self;
        ctx.check("serve.setup_repeats_identical", setup_identical);
        let (oracle, _) = ctx.tr.time("check", "serve.replay", || {
            run_replay(&points, &alive, KIND, &cfg)
        });
        let identical = reports.iter().all(|r| {
            r.client_digests == oracle.client_digests
                && r.epoch_fingerprints == oracle.epoch_fingerprints
                && r.answer_digest == oracle.answer_digest
        });
        ctx.check("serve.serve_matches_replay", identical);
        ctx.check(
            "serve.snapshots_all_retired",
            reports
                .iter()
                .all(|r| r.snapshots_published == r.snapshots_retired),
        );
        check_against_cold(
            ctx,
            "serve",
            &points,
            &alive,
            &cfg.churn,
            cfg.seed,
            &oracle.epoch_fingerprints,
        );
        for t in &traced {
            let name = t.name;
            ctx.check(
                format!("{name}.lifetime_same_schedule"),
                t.replay.fingerprints.len() == t.lifetime.epochs.len()
                    && t.replay
                        .fingerprints
                        .iter()
                        .zip(&t.lifetime.epochs)
                        .all(|(fp, e)| *fp == e.graph_hash),
            );
            let counters_agree = t
                .replay
                .repairs
                .iter()
                .zip(&t.lifetime.epochs)
                .all(|(s, e)| {
                    s.dirty as u64 == e.shards_dirty
                        && s.filtered as u64 == e.shards_filtered
                        && s.rederived as u64 == e.shards_rederived
                        && s.gathered as u64 == e.repair_gathered
                        && s.escalations as u64 == e.repair_escalations
                });
            ctx.check(format!("{name}.repair_counters_agree"), counters_agree);
        }
        if let [own, joined] = &traced[..] {
            ctx.check(
                "serve.writer_replay_same_schedule",
                own.replay.fingerprints == oracle.epoch_fingerprints,
            );
            ctx.check(
                "serve.lifetime_matches_serve",
                fingerprints_match_batch(&oracle, &own.lifetime),
            );
            check_against_cold(
                ctx,
                joined.name,
                &points,
                &alive,
                &joined.churn,
                cfg.seed,
                &joined.replay.fingerprints,
            );
        }
    }
}

/// Compare each epoch's fingerprint with that of a cold sharded rebuild
/// on the epoch's alive set, as the recomputed schedule gives it.
fn check_against_cold(
    ctx: &mut Ctx,
    name: &str,
    points: &PointSet,
    initial_alive: &[bool],
    churn: &ChurnConfig,
    seed: u64,
    fingerprints: &[u64],
) {
    let epochs = schedule(points, initial_alive, churn, seed);
    let mut alive = initial_alive.to_vec();
    let mut same = fingerprints.len() == epochs.len();
    for (e, step) in epochs.iter().enumerate() {
        step.apply(&mut alive);
        let (cold, _) = ctx.tr.time("check", &format!("{name}.cold_rebuild"), || {
            cold_sharded_rebuild(points, &alive, KIND)
        });
        same &= fingerprints.get(e) == Some(&fingerprint(&cold));
        ctx.size(format!("{name}.m_epoch{e}"), cold.m() as f64);
    }
    ctx.check(format!("{name}.matches_cold_rebuild"), same);
}

/// Writer replay and batch run of one churn mix (see the module docs).
fn traced_mix(
    ctx: &mut Ctx,
    name: &'static str,
    record: Option<Source>,
    points: &PointSet,
    alive: &[bool],
    churn: ChurnConfig,
    seed: u64,
) -> TracedMix {
    let replay = replay_writer(ctx, record, points, alive, &churn, seed);
    let (lifetime, _) = ctx
        .tr
        .time("simnet", &format!("{name}.lifetime_plain"), || {
            simulate_lifetime_plain(points, alive, KIND, &churn, seed)
        });
    TracedMix {
        name,
        churn,
        replay,
        lifetime,
    }
}

/// Totals of one epoch-report field over a batch run.
fn total(lifetime: &LifetimeReport, f: fn(&wsn_simnet::EpochReport) -> u64) -> u64 {
    lifetime.epochs.iter().map(f).sum()
}

/// The phase's own mix: dirty and filtered shards (totals over the run)
/// and splice time per epoch, from the batch run; spliced chunks from the
/// writer replay, as `EpochReport` does not carry them.
fn record_own(ctx: &mut Ctx, src: Source, own: &TracedMix) {
    let lifetime = &own.lifetime;
    ctx.add(
        src,
        "rgg.repair.dirty_shards",
        "count",
        total(lifetime, |e| e.shards_dirty) as f64,
    );
    ctx.add(
        src,
        "rgg.repair.filtered_shards",
        "count",
        total(lifetime, |e| e.shards_filtered) as f64,
    );
    for e in &lifetime.epochs {
        ctx.add(src, "graph.splice_s", "s", e.repair_splice_secs);
    }
    let chunks: usize = own.replay.repairs.iter().map(|s| s.spliced_chunks).sum();
    ctx.add(src, "graph.spliced_chunks", "count", chunks as f64);
}

/// The join-driven mix: the re-derivation counters (totals over the run)
/// and the splice's chunk relocations, which deaths-only epochs never
/// cause.
fn record_join(ctx: &mut Ctx, src: Source, joined: &TracedMix) {
    let lifetime = &joined.lifetime;
    let dirty = total(lifetime, |e| e.shards_dirty);
    let rederived = total(lifetime, |e| e.shards_rederived);
    ctx.add(
        src,
        "rgg.repair.rederived_shards",
        "count",
        rederived as f64,
    );
    ctx.add(
        src,
        "rgg.repair.gathered_points",
        "count",
        total(lifetime, |e| e.repair_gathered) as f64,
    );
    ctx.add(
        src,
        "rgg.repair.rederive_ratio",
        "fraction",
        rederived as f64 / dirty.max(1) as f64,
    );
    let relocations: usize = joined
        .replay
        .repairs
        .iter()
        .map(|s| s.splice_relocations)
        .sum();
    ctx.add(src, "graph.splice_relocations", "count", relocations as f64);
}

/// Drive the serve writer's public steps on `churn`'s schedule over the
/// universe, one span per call. With `record`, each call's time is also a
/// per-layer sample from that phase.
fn replay_writer(
    ctx: &mut Ctx,
    record: Option<Source>,
    points: &PointSet,
    alive: &[bool],
    churn: &ChurnConfig,
    seed: u64,
) -> WriterReplay {
    let epochs = schedule(points, alive, churn, seed);
    let (mut g, secs) = ctx.tr.time("rgg", "rgg.incremental_build", || {
        IncrementalGraph::build(points.clone(), alive.to_vec(), KIND, churn.repair_tiles)
    });
    let mut timings = vec![("rgg.incremental_build_s", secs)];
    let publisher: EpochPublisher<Snapshot> = EpochPublisher::new();
    let mut out = WriterReplay {
        fingerprints: Vec::new(),
        repairs: Vec::new(),
        writer_secs: 0.0,
        capture_secs: 0.0,
    };
    for (epoch, step) in (0u64..).zip(&epochs) {
        let (stats, churn_s) = ctx.tr.time("rgg", "rgg.apply_churn", || {
            g.apply_churn(&step.deaths, &step.joins)
        });
        let (snap, capture_s) = ctx
            .tr
            .time("simnet", "simnet.capture", || Snapshot::capture(epoch, &g));
        // The capture's public parts, timed one by one on the same graph.
        let (csr, clone_s) = ctx.tr.time("graph", "graph.clone", || g.graph().clone());
        let (_, fp_s) = ctx
            .tr
            .time("graph", "graph.fingerprint", || fingerprint(&csr));
        let (_, comp_s) = ctx
            .tr
            .time("graph", "graph.components", || connected_components(&csr));
        drop(csr);
        out.fingerprints.push(snap.fingerprint);
        let (_, publish_s) = ctx
            .tr
            .time("graph", "graph.publish", || publisher.publish(epoch, snap));
        out.writer_secs += churn_s + capture_s + publish_s;
        out.capture_secs += capture_s;
        timings.extend([
            ("rgg.apply_churn_s", churn_s),
            ("simnet.capture_s", capture_s),
            ("graph.clone_s", clone_s),
            ("graph.fingerprint_s", fp_s),
            ("graph.components_s", comp_s),
            ("graph.publish_s", publish_s),
        ]);
        ctx.tr.count("rgg.repair.dirty_shards", stats.dirty as f64);
        ctx.tr
            .count("rgg.repair.rederived_shards", stats.rederived as f64);
        ctx.tr
            .count("graph.spliced_chunks", stats.spliced_chunks as f64);
        out.repairs.push(stats);
    }
    if let Some(src) = record {
        for (name, v) in timings {
            ctx.add(src, name, "s", v);
        }
    }
    out
}

/// Seed stream of the churn engine's blast centres.
const BLAST_STREAM: u64 = 0x13;

/// One epoch of churn: deaths and joins, ascending ids.
struct EpochChurn {
    deaths: Vec<u32>,
    joins: Vec<u32>,
}

impl EpochChurn {
    fn apply(&self, alive: &mut [bool]) {
        for &d in &self.deaths {
            alive[d as usize] = false;
        }
        for &j in &self.joins {
            alive[j as usize] = true;
        }
    }
}

/// The serve engine's churn schedule, recomputed from its seed streams
/// for this benchmark's mixes (batteries never deplete): each epoch,
/// seeded disk blasts kill every alive node they cover, and
/// `round(join_rate · deaths)` reserve nodes join in ascending id order
/// while the reserve lasts. Fingerprint equality with `run_serve` is what
/// certifies it.
fn schedule(
    points: &PointSet,
    initial_alive: &[bool],
    churn: &ChurnConfig,
    seed: u64,
) -> Vec<EpochChurn> {
    let ChurnModel::Clustered { radius } = churn.churn_model else {
        panic!("the benchmark's mixes are clustered");
    };
    let window = points.bounding_box().unwrap_or_else(|| Aabb::square(1.0));
    let per_blast = std::f64::consts::PI * radius * radius;
    let count = ((-(1.0 - churn.p_fail).ln() * window.area() / per_blast).round() as usize).max(1);
    let u01 = |x: u64| (mix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut reserve = (0..points.len() as u32).filter(|&u| !initial_alive[u as usize]);
    let mut alive = initial_alive.to_vec();
    (0..churn.epochs as u64)
        .map(|epoch| {
            let blast_seed = derive_seed2(derive_seed(seed, BLAST_STREAM), epoch, 0);
            let blasts: Vec<Point> = (0..count as u64)
                .map(|c| {
                    Point::new(
                        window.min.x + window.width() * u01(derive_seed2(blast_seed, c, 0)),
                        window.min.y + window.height() * u01(derive_seed2(blast_seed, c, 1)),
                    )
                })
                .collect();
            let deaths: Vec<u32> = points
                .iter_enumerated()
                .filter(|&(u, p)| {
                    alive[u as usize] && blasts.iter().any(|&c| p.dist_sq(c) <= radius * radius)
                })
                .map(|(u, _)| u)
                .collect();
            let want = (churn.join_rate * deaths.len() as f64).round() as usize;
            let step = EpochChurn {
                joins: reserve.by_ref().take(want).collect(),
                deaths,
            };
            step.apply(&mut alive);
            step
        })
        .collect()
}
