//! The `construct` phase: points → finished graph for the seven compared
//! topologies, each through the entry point the scenario runner's sharded
//! dispatch (`ExecSpec::sharded()`) calls, i.e. the Morton-ordered
//! builders with 16-tile shards.
//!
//! Traced runs make the same calls split at the layer boundaries those
//! entry points cross (Morton order → sharded build → remap), so each
//! layer gets its own span. Checks compare against builders the timed
//! call does not use: the monolithic builder where affordable, a
//! sub-window differential for the witness-checked RNG and Gabriel
//! graphs at full size.

use wsn_core::{build_udg_sens, build_udg_sens_ordered, SensNetwork, TileGrid, UdgSensParams};
use wsn_geom::hash::derive_seed;
use wsn_geom::{Aabb, Point};
use wsn_graph::{fingerprint, remap_csr, Csr};
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn_rgg::hng::{build_hng_sharded_on_levels, hng_levels};
use wsn_rgg::sharded::{
    build_gabriel_sharded, build_knn_sharded, build_rng_sharded, build_udg_sharded,
    build_yao_sharded,
};
use wsn_rgg::{
    build_gabriel, build_gabriel_ordered, build_hng, build_hng_ordered, build_knn,
    build_knn_ordered, build_rng, build_rng_ordered, build_udg, build_udg_ordered, build_yao,
    build_yao_ordered, HngParams,
};

use crate::record::Source;
use crate::{Ctx, Phase};

/// Poisson intensity of the deployment.
const LAMBDA: f64 = 10.0;
/// Shard side in topology tiles (`ExecSpec::sharded()`'s value).
const SHARD_TILES: usize = 16;
const RADIUS: f64 = 1.0;
const YAO_CONES: usize = 6;
const KNN_K: usize = 8;
const HNG_P: f64 = 0.5;
const HNG_LINKS: usize = 1;
/// Above this many nodes the O(n · deg²) monolithic RNG and Gabriel
/// builders are too slow for a per-run check; a sub-window differential
/// stands in.
const MONOLITHIC_WITNESS_MAX_N: usize = 50_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Topo {
    Udg,
    Rng,
    Gabriel,
    Yao,
    Knn,
    Hng,
}

const TOPOS: [Topo; 6] = [
    Topo::Udg,
    Topo::Rng,
    Topo::Gabriel,
    Topo::Yao,
    Topo::Knn,
    Topo::Hng,
];

impl Topo {
    fn name(self) -> &'static str {
        match self {
            Topo::Udg => "udg",
            Topo::Rng => "rng",
            Topo::Gabriel => "gabriel",
            Topo::Yao => "yao",
            Topo::Knn => "knn",
            Topo::Hng => "hng",
        }
    }

    /// The end-to-end entry point (what the sharded dispatch calls).
    fn build(self, points: &PointSet, hng_seed: u64) -> Csr {
        match self {
            Topo::Udg => build_udg_ordered(points, RADIUS, SHARD_TILES),
            Topo::Rng => build_rng_ordered(points, RADIUS, SHARD_TILES),
            Topo::Gabriel => build_gabriel_ordered(points, RADIUS, SHARD_TILES),
            Topo::Yao => build_yao_ordered(points, RADIUS, YAO_CONES, SHARD_TILES),
            Topo::Knn => build_knn_ordered(points, KNN_K, SHARD_TILES),
            Topo::Hng => build_hng_ordered(
                points,
                HngParams::new(HNG_P, HNG_LINKS),
                hng_seed,
                SHARD_TILES,
            ),
        }
    }

    /// The same work split at layer boundaries: the sharded build over the
    /// Morton-ordered copy, in rank space (HNG's level draw included).
    fn build_sharded(self, order: &PointOrder, hng_seed: u64) -> Csr {
        let p = order.points();
        match self {
            Topo::Udg => build_udg_sharded(p, RADIUS, SHARD_TILES),
            Topo::Rng => build_rng_sharded(p, RADIUS, SHARD_TILES),
            Topo::Gabriel => build_gabriel_sharded(p, RADIUS, SHARD_TILES),
            Topo::Yao => build_yao_sharded(p, RADIUS, YAO_CONES, SHARD_TILES),
            Topo::Knn => build_knn_sharded(p, KNN_K, SHARD_TILES),
            Topo::Hng => {
                let levels = hng_levels(order.len(), HNG_P, hng_seed);
                let rank_levels = order.gather_values(&levels);
                build_hng_sharded_on_levels(p, &rank_levels, HNG_LINKS, SHARD_TILES)
            }
        }
    }

    /// The monolithic reference builder.
    fn reference(self, points: &PointSet, hng_seed: u64) -> Csr {
        match self {
            Topo::Udg => build_udg(points, RADIUS),
            Topo::Rng => build_rng(points, RADIUS),
            Topo::Gabriel => build_gabriel(points, RADIUS),
            Topo::Yao => build_yao(points, RADIUS, YAO_CONES),
            Topo::Knn => build_knn(points, KNN_K),
            Topo::Hng => build_hng(points, HngParams::new(HNG_P, HNG_LINKS), hng_seed),
        }
    }
}

/// The construct phase over one deployment.
pub struct Construct {
    src: Source,
    points: PointSet,
    sens_points: PointSet,
    sens_params: UdgSensParams,
    grid: TileGrid,
    /// Deployment seeds (plain, UDG-SENS) and the plain square's side.
    seeds: (u64, u64),
    side: f64,
    hng_seed: u64,
    /// The first repetition's graphs (checked), later ones compared to them.
    first: Vec<Csr>,
    first_sens: Option<SensNetwork>,
    repeats_identical: bool,
    /// Every set-up repetition sampled the same deployments.
    setup_identical: bool,
}

impl Construct {
    /// Set-up: sample both deployments (the plain square and the window
    /// fitted to whole UDG-SENS tiles). [`Phase::setup_rep`] samples them
    /// again once per round.
    pub fn new(ctx: &mut Ctx, seed: u64, n: f64, src: Source) -> Self {
        let side = (n / LAMBDA).sqrt();
        let sens_params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(side, sens_params.tile_side);
        let seeds = (derive_seed(seed, 0xC0_0001), derive_seed(seed, 0xC0_0002));
        let (points, sens_points) = sample(ctx, src, seeds, side, &grid);
        ctx.size("construct.n", points.len() as f64);
        ctx.size("construct.udg_sens.n", sens_points.len() as f64);
        Construct {
            src,
            points,
            sens_points,
            sens_params,
            grid,
            seeds,
            side,
            hng_seed: derive_seed(seed, 0xC0_0003),
            first: Vec::new(),
            first_sens: None,
            repeats_identical: true,
            setup_identical: true,
        }
    }
}

/// One timed set-up: sample the plain deployment (seed `seeds.0`, square
/// of side `side`) and the UDG-SENS one (seed `seeds.1`, `grid`'s area).
fn sample(
    ctx: &mut Ctx,
    src: Source,
    seeds: (u64, u64),
    side: f64,
    grid: &TileGrid,
) -> (PointSet, PointSet) {
    let (plain, plain_s) = ctx.tr.time("pointproc", "pointproc.sample", || {
        sample_poisson_window(&mut rng_from_seed(seeds.0), LAMBDA, &Aabb::square(side))
    });
    let (sens, sens_s) = ctx.tr.time("pointproc", "pointproc.sample", || {
        sample_poisson_window(&mut rng_from_seed(seeds.1), LAMBDA, &grid.covered_area())
    });
    if ctx.traced() {
        ctx.add(src, "pointproc.sample_s", "s", plain_s);
    }
    ctx.setup_sample("construct", plain_s + sens_s);
    (plain, sens)
}

impl Phase for Construct {
    fn setup_rep(&mut self, ctx: &mut Ctx) {
        let (plain, sens) = sample(ctx, self.src, self.seeds, self.side, &self.grid);
        let (same, _) = ctx.tr.time("check", "construct.setup_repeat", || {
            plain == self.points && sens == self.sens_points
        });
        self.setup_identical &= same;
    }

    /// Build every topology once.
    fn rep(&mut self, ctx: &mut Ctx) {
        for (i, topo) in TOPOS.into_iter().enumerate() {
            let g = build_one(ctx, self.src, topo, &self.points, self.hng_seed);
            ctx.ops_attempted += 1;
            match self.first.get(i) {
                None => {
                    ctx.size(format!("construct.m.{}", topo.name()), g.m() as f64);
                    self.first.push(g);
                }
                Some(f) => {
                    let (same, _) = ctx.tr.time("check", "construct.repeat_fingerprint", || {
                        fingerprint(&g) == fingerprint(f)
                    });
                    self.repeats_identical &= same;
                }
            }
        }
        let net = build_udg_sens_one(
            ctx,
            self.src,
            &self.sens_points,
            self.sens_params,
            &self.grid,
        );
        ctx.ops_attempted += 1;
        match &self.first_sens {
            None => {
                ctx.size("construct.m.udg_sens", net.graph.m() as f64);
                self.first_sens = Some(net);
            }
            Some(f) => self.repeats_identical &= net.graph == f.graph && net.reps == f.reps,
        }
    }

    fn check(self: Box<Self>, ctx: &mut Ctx) {
        let Construct {
            points,
            sens_points,
            sens_params,
            grid,
            hng_seed,
            first,
            first_sens,
            repeats_identical,
            setup_identical,
            ..
        } = *self;
        ctx.check("construct.repeats_identical", repeats_identical);
        ctx.check("construct.setup_repeats_identical", setup_identical);
        for (topo, g) in TOPOS.into_iter().zip(&first) {
            let name = format!("construct.{}_matches_reference", topo.name());
            let witness = matches!(topo, Topo::Rng | Topo::Gabriel);
            let ok = if witness && points.len() > MONOLITHIC_WITNESS_MAX_N {
                let (ok, _) = ctx.tr.time("check", &name, || {
                    subwindow_agrees(&points, g, |sub| topo.reference(sub, hng_seed))
                });
                ok
            } else {
                let (reference, _) = ctx
                    .tr
                    .time("check", &name, || topo.reference(&points, hng_seed));
                *g == reference
            };
            ctx.check(name, ok);
        }
        let net = first_sens.expect("one repetition ran");
        let (reference, _) = ctx
            .tr
            .time("check", "construct.udg_sens_matches_reference", || {
                build_udg_sens(&sens_points, sens_params, grid).expect("strict defaults valid")
            });
        ctx.check(
            "construct.udg_sens_matches_reference",
            net.graph == reference.graph
                && net.reps == reference.reps
                && net.missing_links == reference.missing_links,
        );
    }
}

/// One timed build of `topo`: the end-to-end entry point, or in a traced
/// run the same calls split into Morton order, sharded build and remap.
fn build_one(ctx: &mut Ctx, src: Source, topo: Topo, points: &PointSet, hng_seed: u64) -> Csr {
    let name = topo.name();
    if !ctx.traced() {
        let (g, secs) = ctx.tr.time("e2e", name, || topo.build(points, hng_seed));
        ctx.add(src, &format!("build_{name}_s"), "s", secs);
        return g;
    }
    let outer = ctx.tr.start();
    let (order, morton_s) = ctx.tr.time("pointproc", "pointproc.morton", || {
        PointOrder::morton(points)
    });
    let (rank_graph, sharded_s) = ctx.tr.time("rgg", &format!("rgg.sharded.{name}"), || {
        topo.build_sharded(&order, hng_seed)
    });
    let (g, remap_s) = ctx.tr.time("graph", &format!("graph.remap.{name}"), || {
        remap_csr(&rank_graph, order.to_orig())
    });
    ctx.tr.stop(outer, "e2e", &format!("build.{name}"));
    drop((order, rank_graph));
    ctx.add(src, "pointproc.morton_s", "s", morton_s);
    ctx.add(src, &format!("rgg.sharded_s.{name}"), "s", sharded_s);
    ctx.add(src, &format!("graph.remap_s.{name}"), "s", remap_s);
    ctx.add(src, &format!("graph.edges.{name}"), "count", g.m() as f64);
    // Computed, not measured: u32 offsets (n + 1) and u32 targets (2m).
    let bytes = 4.0 * (g.n() as f64 + 1.0) + 8.0 * g.m() as f64;
    ctx.add(src, &format!("graph.csr_bytes.{name}"), "bytes", bytes);
    ctx.tr.count(&format!("graph.edges.{name}"), g.m() as f64);
    g
}

fn build_udg_sens_one(
    ctx: &mut Ctx,
    src: Source,
    points: &PointSet,
    params: UdgSensParams,
    grid: &TileGrid,
) -> SensNetwork {
    let build = |order: &PointOrder| {
        build_udg_sens_ordered(points, order, params, grid.clone()).expect("strict defaults valid")
    };
    if !ctx.traced() {
        let (net, secs) = ctx
            .tr
            .time("e2e", "udg_sens", || build(&PointOrder::morton(points)));
        ctx.add(src, "build_udg_sens_s", "s", secs);
        return net;
    }
    let outer = ctx.tr.start();
    let (order, morton_s) = ctx.tr.time("pointproc", "pointproc.morton", || {
        PointOrder::morton(points)
    });
    let (net, secs) = ctx.tr.time("core", "core.udg_sens", || build(&order));
    ctx.tr.stop(outer, "e2e", "build.udg_sens");
    ctx.add(src, "pointproc.morton_s", "s", morton_s);
    ctx.add(src, "core.udg_sens_s", "s", secs);
    ctx.add(
        src,
        "core.udg_sens.elected",
        "count",
        net.elected_count() as f64,
    );
    net
}

/// Differential check of a radius-1 witness graph (RNG, Gabriel) on a
/// central sub-window holding about a sixteenth of the points: the
/// reference is built on the sub-window's points alone, and every node at
/// least [`SUBWINDOW_MARGIN`] inside it must have the same neighbours in
/// both graphs. Edges and witnesses of such a node lie within distance 1
/// of it, so the sub-window sees all of them.
fn subwindow_agrees(points: &PointSet, g: &Csr, reference: impl Fn(&PointSet) -> Csr) -> bool {
    const SUBWINDOW_MARGIN: f64 = 2.0 * RADIUS;
    let bb = points.bounding_box().expect("non-empty deployment");
    let c = bb.center();
    let half = (bb.width().min(bb.height()) / 8.0).max(3.0 * SUBWINDOW_MARGIN);
    let sub_box = Aabb::new(
        Point::new(c.x - half, c.y - half),
        Point::new(c.x + half, c.y + half),
    );
    let ids: Vec<u32> = points
        .iter_enumerated()
        .filter(|&(_, p)| sub_box.contains(p))
        .map(|(u, _)| u)
        .collect();
    let sub = PointSet::from_points(ids.iter().map(|&u| points.get(u)));
    let r = reference(&sub);
    let mut compared = 0usize;
    for (si, &u) in ids.iter().enumerate() {
        if sub_box.interior_clearance(points.get(u)) < SUBWINDOW_MARGIN {
            continue;
        }
        let mut want: Vec<u32> = r
            .neighbors(si as u32)
            .iter()
            .map(|&v| ids[v as usize])
            .collect();
        want.sort_unstable();
        if want != g.neighbors(u) {
            return false;
        }
        compared += 1;
    }
    compared > 0
}
