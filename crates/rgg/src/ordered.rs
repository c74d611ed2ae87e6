//! Morton-ordered construction entry points.
//!
//! Each `build_*_on_order` runs the sharded builder over the spatially
//! sorted copy held by a [`PointOrder`] — grid buckets, ghost gathers and
//! per-shard resident lists then walk the point SoA near-sequentially —
//! and emits the graph in original deployment ids: the radius topologies
//! remap their rank-space graph ([`wsn_graph::perm::remap_csr`]); k-NN
//! symmetrises its rank-space lists straight into original-id slots
//! ([`Csr::from_directed`]). The `build_*_ordered` wrappers construct the
//! Morton order themselves.
//!
//! ## Why the emitted graph is the deployment-order graph
//!
//! The reordered copy carries bit-identical coordinates, and every
//! predicate these builders evaluate is symmetric in its operands
//! (`dist_sq`, `midpoint`) or canonicalised through `min`/`max`, so the
//! *edge set* a builder derives from distances alone is a pure function of
//! the point multiset — ids only name the endpoints. Relabelling endpoint
//! names through `to_orig` and re-canonicalising (per-node sort) therefore
//! reproduces the deployment-order graph byte-for-byte.
//!
//! Selections that break exact distance ties on ids must break them on
//! *original* ids to stay layout-independent. k-NN does: its selection
//! kernel keys ties on `to_orig[rank]` ([`wsn_spatial::GridIndex::knn_into`]),
//! in shard-local queries and straggler fallbacks alike, so lattices and
//! co-located duplicates select exactly what the deployment-order builder
//! selects. Yao's per-cone minima take the same key. Either key is read
//! only when two distances are equal. HNG uplinks still key such ties on
//! rank ids; on inputs with exact ties its ordered graph can differ from
//! the deployment-order one. HNG level draws are seeded per *original* id
//! ([`crate::hng::hng_levels`]) and gathered into rank space, so the level
//! structure itself is layout-independent by construction.

use wsn_graph::perm::remap_csr;
use wsn_graph::Csr;
use wsn_pointproc::{PointOrder, PointSet};

use crate::hng::{build_hng_sharded_on_levels, hng_levels, HngParams};
use crate::sharded::{
    build_gabriel_sharded, build_rng_sharded, build_udg_sharded, knn_sharded_parts, yao_sharded,
};

/// UDG over a prepared order — edge-identical to [`crate::build_udg`].
pub fn build_udg_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    remap_csr(
        &build_udg_sharded(order.points(), radius, tiles_per_shard),
        order.to_orig(),
    )
}

/// Gabriel graph over a prepared order — edge-identical to
/// [`crate::build_gabriel`].
pub fn build_gabriel_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    remap_csr(
        &build_gabriel_sharded(order.points(), radius, tiles_per_shard),
        order.to_orig(),
    )
}

/// Relative neighborhood graph over a prepared order — edge-identical to
/// [`crate::build_rng`].
pub fn build_rng_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    remap_csr(
        &build_rng_sharded(order.points(), radius, tiles_per_shard),
        order.to_orig(),
    )
}

/// Yao graph over a prepared order — edge-identical to [`crate::build_yao`].
/// Exact-distance ties in a cone are keyed on original ids.
pub fn build_yao_on_order(
    order: &PointOrder,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Csr {
    let to_orig = order.to_orig();
    remap_csr(
        &yao_sharded(
            order.points(),
            radius,
            cones,
            tiles_per_shard,
            Some(to_orig),
        ),
        to_orig,
    )
}

/// Symmetrised k-NN over a prepared order — edge-identical to
/// [`crate::build_knn`]. Exact-distance ties are keyed on original ids,
/// and the rank-space lists are symmetrised straight into original-id
/// slots ([`Csr::from_directed`]) with no rank-space graph in between.
pub fn build_knn_on_order(order: &PointOrder, k: usize, tiles_per_shard: usize) -> Csr {
    let to_orig = order.to_orig();
    let parts = knn_sharded_parts(order.points(), k, tiles_per_shard, Some(to_orig));
    Csr::from_directed(order.len(), &parts, Some(to_orig))
}

/// HNG over a prepared order — edge-identical to [`crate::build_hng`].
///
/// Level promotion draws are keyed on original deployment ids (the same
/// `derive_seed2(seed, node, level)` stream every other HNG builder uses)
/// and gathered into rank space, so the hierarchy is identical no matter
/// the layout.
pub fn build_hng_on_order(
    order: &PointOrder,
    params: HngParams,
    seed: u64,
    tiles_per_shard: usize,
) -> Csr {
    let params = HngParams::new(params.p, params.links); // validate
    let levels = hng_levels(order.len(), params.p, seed);
    let rank_levels = order.gather_values(&levels);
    remap_csr(
        &build_hng_sharded_on_levels(order.points(), &rank_levels, params.links, tiles_per_shard),
        order.to_orig(),
    )
}

/// Morton-ordered UDG: reorder, build sharded, remap.
pub fn build_udg_ordered(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    build_udg_on_order(&PointOrder::morton(points), radius, tiles_per_shard)
}

/// Morton-ordered Gabriel graph.
pub fn build_gabriel_ordered(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    build_gabriel_on_order(&PointOrder::morton(points), radius, tiles_per_shard)
}

/// Morton-ordered relative neighborhood graph.
pub fn build_rng_ordered(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    build_rng_on_order(&PointOrder::morton(points), radius, tiles_per_shard)
}

/// Morton-ordered Yao graph.
pub fn build_yao_ordered(
    points: &PointSet,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Csr {
    build_yao_on_order(&PointOrder::morton(points), radius, cones, tiles_per_shard)
}

/// Morton-ordered symmetrised k-NN.
pub fn build_knn_ordered(points: &PointSet, k: usize, tiles_per_shard: usize) -> Csr {
    build_knn_on_order(&PointOrder::morton(points), k, tiles_per_shard)
}

/// Morton-ordered HNG.
pub fn build_hng_ordered(
    points: &PointSet,
    params: HngParams,
    seed: u64,
    tiles_per_shard: usize,
) -> Csr {
    build_hng_on_order(&PointOrder::morton(points), params, seed, tiles_per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_gabriel, build_hng, build_knn, build_rng, build_udg, build_yao};
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn pts(n: usize, seed: u64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(12.0))
    }

    #[test]
    fn ordered_builders_match_monolithic() {
        let p = pts(900, 41);
        assert_eq!(build_udg_ordered(&p, 1.0, 4), build_udg(&p, 1.0));
        assert_eq!(build_gabriel_ordered(&p, 1.2, 4), build_gabriel(&p, 1.2));
        assert_eq!(build_rng_ordered(&p, 1.2, 4), build_rng(&p, 1.2));
        assert_eq!(build_yao_ordered(&p, 1.0, 6, 4), build_yao(&p, 1.0, 6));
        assert_eq!(build_knn_ordered(&p, 8, 4), build_knn(&p, 8));
        let hp = HngParams::new(0.5, 2);
        assert_eq!(build_hng_ordered(&p, hp, 7, 4), build_hng(&p, hp, 7));
    }

    #[test]
    fn arbitrary_orders_also_match() {
        // Not just Morton: any bijection must remap back to the same graph.
        let p = pts(400, 42);
        let n = p.len() as u32;
        // A fixed "shuffle": reverse, which is maximally non-monotone.
        let rev: Vec<u32> = (0..n).rev().collect();
        let order = PointOrder::from_to_orig(&p, rev);
        assert_eq!(build_udg_on_order(&order, 1.0, 4), build_udg(&p, 1.0));
        assert_eq!(build_knn_on_order(&order, 6, 4), build_knn(&p, 6));
        let hp = HngParams::new(0.4, 2);
        assert_eq!(build_hng_on_order(&order, hp, 3, 4), build_hng(&p, hp, 3));
    }

    #[test]
    fn yao_cone_ties_break_on_original_ids() {
        // Lattice neighbours tie exactly inside one or two wide cones; a
        // reversed layout flips every rank comparison, so only an
        // original-id key selects what the monolithic builder selects.
        let p: PointSet = (0..144)
            .map(|i| wsn_geom::Point::new((i % 12) as f64, (i / 12) as f64))
            .collect();
        let rev = PointOrder::from_to_orig(&p, (0..144u32).rev().collect());
        for cones in [1, 2] {
            let want = build_yao(&p, 1.5, cones);
            for tiles in [1, 4] {
                assert_eq!(
                    build_yao_on_order(&rev, 1.5, cones, tiles),
                    want,
                    "{cones}/{tiles}"
                );
            }
        }
    }

    #[test]
    fn empty_point_sets_are_fine() {
        let p = PointSet::new();
        let order = PointOrder::morton(&p);
        assert_eq!(build_udg_on_order(&order, 1.0, 4).n(), 0);
        assert_eq!(build_knn_on_order(&order, 4, 4).n(), 0);
    }
}
