//! The `nn-sens` phase: points → NN-SENS(a = 1.2, k = 400), the paper's
//! headline topology, through the sharded dispatch's calls (Morton order,
//! the Morton-ordered k-NN base, `build_nn_sens_ordered`). The k = 400
//! base is included in the timed build; traced runs split it from the
//! Claim-2.3 assembly. Checks rebuild the base and the network with the
//! monolithic builders.

use wsn_core::{build_nn_sens, build_nn_sens_ordered, NnSensParams, SensNetwork, TileGrid};
use wsn_geom::hash::derive_seed;
use wsn_graph::Csr;
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn_rgg::build_knn;
use wsn_rgg::ordered::build_knn_on_order;

use crate::record::Source;
use crate::{Ctx, Phase};

/// Poisson intensity: NN-SENS is scale-free, the paper's unit density.
const LAMBDA: f64 = 1.0;
const PARAMS: NnSensParams = NnSensParams { a: 1.2, k: 400 };
/// Shard side in topology tiles (`ExecSpec::sharded()`'s value).
const SHARD_TILES: usize = 16;

/// The nn-sens phase over one deployment.
pub struct NnSens {
    src: Source,
    points: PointSet,
    grid: TileGrid,
    deploy_seed: u64,
    /// The first repetition's base and network (checked); later ones are
    /// compared to them.
    first: Option<(Csr, SensNetwork)>,
    repeats_identical: bool,
    /// Every set-up repetition sampled the same deployment.
    setup_identical: bool,
}

impl NnSens {
    /// Set-up: sample the deployment. [`Phase::setup_rep`] samples it
    /// again once per round.
    pub fn new(ctx: &mut Ctx, seed: u64, n: f64, src: Source) -> Self {
        let grid = TileGrid::fit((n / LAMBDA).sqrt(), PARAMS.tile_side());
        let deploy_seed = derive_seed(seed, 0x4E_0001);
        let points = sample(ctx, src, deploy_seed, &grid);
        ctx.size("nn_sens.n", points.len() as f64);
        ctx.size("nn_sens.tiles", grid.tile_count() as f64);
        NnSens {
            src,
            points,
            grid,
            deploy_seed,
            first: None,
            repeats_identical: true,
            setup_identical: true,
        }
    }
}

/// One timed set-up: sample the deployment over `grid`'s area.
fn sample(ctx: &mut Ctx, src: Source, deploy_seed: u64, grid: &TileGrid) -> PointSet {
    let (points, secs) = ctx.tr.time("pointproc", "pointproc.sample", || {
        sample_poisson_window(
            &mut rng_from_seed(deploy_seed),
            LAMBDA,
            &grid.covered_area(),
        )
    });
    if ctx.traced() {
        ctx.add(src, "pointproc.sample_s", "s", secs);
    }
    ctx.setup_sample("nn-sens", secs);
    points
}

impl Phase for NnSens {
    fn setup_rep(&mut self, ctx: &mut Ctx) {
        let points = sample(ctx, self.src, self.deploy_seed, &self.grid);
        let (same, _) = ctx
            .tr
            .time("check", "nn_sens.setup_repeat", || points == self.points);
        self.setup_identical &= same;
    }

    fn rep(&mut self, ctx: &mut Ctx) {
        let (base, net) = build_one(ctx, self.src, &self.points, &self.grid);
        ctx.ops_attempted += 1;
        match &self.first {
            None => {
                ctx.size("nn_sens.knn_base.m", base.m() as f64);
                ctx.size("nn_sens.m", net.graph.m() as f64);
                self.first = Some((base, net));
            }
            Some((b, f)) => {
                self.repeats_identical &= base == *b && net.graph == f.graph && net.reps == f.reps
            }
        }
    }

    fn check(self: Box<Self>, ctx: &mut Ctx) {
        let NnSens {
            points,
            grid,
            first,
            repeats_identical,
            setup_identical,
            ..
        } = *self;
        let (base, net) = first.expect("one repetition ran");
        ctx.check("nn_sens.repeats_identical", repeats_identical);
        ctx.check("nn_sens.setup_repeats_identical", setup_identical);
        let (ref_base, _) = ctx.tr.time("check", "nn_sens.knn_base_reference", || {
            build_knn(&points, PARAMS.k)
        });
        ctx.check("nn_sens.knn_base_matches_reference", base == ref_base);
        let (reference, _) = ctx.tr.time("check", "nn_sens.network_reference", || {
            build_nn_sens(&points, &ref_base, PARAMS, grid).expect("valid params")
        });
        ctx.check(
            "nn_sens.network_matches_reference",
            net.graph == reference.graph && net.reps == reference.reps,
        );
        // Claim 2.3: every link NN-SENS needs is in the k-NN base.
        ctx.check("nn_sens.claim_2_3_no_missing_links", net.missing_links == 0);
    }
}

/// One timed NN-SENS build, k-NN base included; returns the base, the
/// network.
fn build_one(ctx: &mut Ctx, src: Source, points: &PointSet, grid: &TileGrid) -> (Csr, SensNetwork) {
    let assemble = |order: &PointOrder, base: &Csr| {
        build_nn_sens_ordered(points, order, base, PARAMS, grid.clone()).expect("valid params")
    };
    let outer = ctx.tr.start();
    let (order, morton_s) = ctx.tr.time("pointproc", "pointproc.morton", || {
        PointOrder::morton(points)
    });
    let (base, base_s) = ctx.tr.time("rgg", "rgg.knn_base", || {
        build_knn_on_order(&order, PARAMS.k, SHARD_TILES)
    });
    let (net, assemble_s) = ctx
        .tr
        .time("core", "core.nn_sens_assemble", || assemble(&order, &base));
    let secs = ctx.tr.stop(outer, "e2e", "build.nn_sens");
    if ctx.traced() {
        ctx.add(src, "pointproc.morton_s", "s", morton_s);
        ctx.add(src, "rgg.knn_base_s", "s", base_s);
        ctx.add(src, "graph.knn_base_edges", "count", base.m() as f64);
        ctx.add(src, "core.nn_sens_assemble_s", "s", assemble_s);
        ctx.add(
            src,
            "core.nn_sens.missing_links",
            "count",
            net.missing_links as f64,
        );
        ctx.tr.count("graph.knn_base_edges", base.m() as f64);
    } else {
        ctx.add(src, "build_nn_sens_s", "s", secs);
    }
    (base, net)
}
