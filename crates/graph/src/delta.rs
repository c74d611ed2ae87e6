//! Incremental CSR maintenance primitives.
//!
//! The construction pipeline shards a deployment and emits every edge from
//! an owned node of some shard. The maintained graph itself — per-shard
//! chunks whose entries count the emissions behind them — is
//! [`crate::ChunkedCsr`]; this module holds the id-space machinery around
//! it:
//!
//! * [`IdRemap`] — the dense local id space a dirty-extent repair derives
//!   in, over a sparse ascending subset of universe ids.
//! * [`deactivate_vertices`] — pure vertex deactivation: drop every edge
//!   incident to a dead node without re-deriving anything (exact for
//!   topologies like the UDG whose edges never *appear* when a node dies).
//! * [`relabel`] — monotone id relabelling, used to lift a graph built on a
//!   compacted survivor set back into the stable universe id space so it
//!   can be compared byte-for-byte against the incrementally maintained
//!   CSR.
//! * [`fingerprint`] — an order-sensitive 64-bit hash of the CSR arrays; a
//!   cheap cross-run witness that two maintenance strategies walked through
//!   identical topologies.

use crate::csr::Csr;
use crate::view::GraphView;
use std::fmt;
use wsn_geom::hash::mix64;

/// A strict-monotonicity violation in an id map: `prev` at `index - 1` is
/// not below `next` at `index`.
///
/// Monotonicity is correctness load-bearing for [`IdRemap`] and
/// [`relabel`] (it is what makes id comparisons — canonical edge
/// orientation, sorted gathers — survive the remap), and the bench/gate
/// path runs in release mode, so the check must not be debug-only: a
/// corrupted gather has to fail loudly, not splice garbage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonotonicityError {
    /// Position of the offending element.
    pub index: usize,
    /// The element before it.
    pub prev: u32,
    /// The element at `index`.
    pub next: u32,
}

impl fmt::Display for MonotonicityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ids not strictly ascending at index {}: {} !< {}",
            self.index, self.prev, self.next
        )
    }
}

impl std::error::Error for MonotonicityError {}

/// Check that `ids` is strictly ascending (a single branchy pass — cheap
/// against the derivation work that follows it).
pub fn check_monotone(ids: &[u32]) -> Result<(), MonotonicityError> {
    for (i, w) in ids.windows(2).enumerate() {
        if w[0] >= w[1] {
            return Err(MonotonicityError {
                index: i + 1,
                prev: w[0],
                next: w[1],
            });
        }
    }
    Ok(())
}

/// A compacted-local id space over a sparse, ascending subset of universe
/// ids — what the dirty-extent repair path hands to shard derivation.
///
/// The localized gather yields the universe ids of the alive points inside
/// a dirty region; geometry kernels, however, want a dense `0..len` id
/// space (their index buckets and neighbour lists are arrays). `IdRemap`
/// is that bridge, and its strict monotonicity is the correctness
/// load-bearing part: every id comparison — canonical `(min, max)` edge
/// orientation, k-NN heap tie-breaks, sorted gathers — resolves
/// identically in local and universe space, so derivations over the dense
/// space splice back byte-identical to a cold rebuild (the same argument
/// [`relabel`] rests on).
#[derive(Clone, Debug, Default)]
pub struct IdRemap {
    to_universe: Vec<u32>,
}

impl IdRemap {
    /// Wrap a strictly ascending universe-id list, panicking on violation
    /// — in release builds too, since the bench/gate path runs in release
    /// and a silently-accepted corrupted gather would splice garbage.
    pub fn from_sorted(to_universe: Vec<u32>) -> Self {
        match Self::try_from_sorted(to_universe) {
            Ok(remap) => remap,
            Err(e) => panic!("IdRemap requires strictly ascending universe ids: {e}"),
        }
    }

    /// Fallible constructor: the same monotonicity contract as
    /// [`Self::from_sorted`], surfaced as a typed error for callers that
    /// can recover (or report) instead of aborting.
    pub fn try_from_sorted(to_universe: Vec<u32>) -> Result<Self, MonotonicityError> {
        check_monotone(&to_universe)?;
        Ok(IdRemap { to_universe })
    }

    /// Number of local ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.to_universe.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to_universe.is_empty()
    }

    /// The full local→universe map (ascending).
    #[inline]
    pub fn to_universe(&self) -> &[u32] {
        &self.to_universe
    }

    /// Universe id of a local id.
    #[inline]
    pub fn universe_of(&self, local: u32) -> u32 {
        self.to_universe[local as usize]
    }

    /// Local id of a universe id, or `None` when the id is not in the
    /// subset (binary search — the map is sorted by construction).
    #[inline]
    pub fn local_of(&self, universe: u32) -> Option<u32> {
        self.to_universe
            .binary_search(&universe)
            .ok()
            .map(|i| i as u32)
    }
}

/// Drop every edge incident to a node marked dead; ids are preserved and
/// dead nodes become isolated.
///
/// This is the degenerate repair: exact whenever node removal can only
/// *remove* edges (UDG), and the "before" picture for topologies where
/// removal can also reveal new edges (Gabriel, RNG, k-NN).
pub fn deactivate_vertices(g: &Csr, dead: &[bool]) -> Csr {
    assert_eq!(dead.len(), g.n(), "mask length must match node count");
    let mut keep = vec![true; g.n()];
    for (u, &d) in dead.iter().enumerate() {
        if d {
            keep[u] = false;
        }
    }
    g.filter_nodes(&keep)
}

/// Relabel a graph through a strictly monotone id map (`map[local] =
/// universe`), producing a graph on `n_universe` nodes where unmapped ids
/// are isolated.
///
/// Monotonicity means every id comparison — and therefore every canonical
/// `(min, max)` orientation and every sorted neighbour list — is preserved,
/// so the result is byte-identical to building the same topology directly
/// in the universe id space.
pub fn relabel(g: &Csr, map: &[u32], n_universe: usize) -> Csr {
    assert_eq!(map.len(), g.n(), "map length must match node count");
    if let Err(e) = check_monotone(map) {
        panic!("relabel map must be strictly monotone: {e}");
    }
    if let Some(&last) = map.last() {
        assert!((last as usize) < n_universe, "map target out of range");
    }
    // Monotone maps preserve order, so the relabelled neighbour lists stay
    // sorted and the CSR arrays can be written directly — no transient
    // O(m) edge vector, no re-sort.
    let mut offsets = vec![0u32; n_universe + 1];
    for u in 0..g.n() {
        offsets[map[u] as usize + 1] = g.degree(u as u32) as u32;
    }
    for i in 0..n_universe {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0u32; offsets[n_universe] as usize];
    for u in 0..g.n() as u32 {
        let base = offsets[map[u as usize] as usize] as usize;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            targets[base + i] = map[v as usize];
        }
    }
    Csr::from_sorted_parts(offsets, targets)
}

/// Order-sensitive 64-bit fingerprint of the adjacency structure.
///
/// Two graphs have equal fingerprints iff (up to hash collision) they have
/// identical per-node neighbour lists — the same property `Csr::eq` checks,
/// but transportable across processes (the lifetime bench uses it to prove
/// the incremental and rebuild-per-epoch runs traversed identical
/// topologies). Generic over [`GraphView`], and deliberately blind to
/// layout: a chunked CSR and the dense CSR of the same graph hash equal.
pub fn fingerprint<G: GraphView + ?Sized>(g: &G) -> u64 {
    let mut h = 0xA076_1D64_78BD_642Fu64 ^ (g.n() as u64);
    for u in 0..g.n() as u32 {
        h = mix64(h ^ (g.degree(u) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
        for &v in g.neighbors(u) {
            h = mix64(h ^ v as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.add(i - 1, i);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn id_remap_round_trips_and_rejects_outsiders() {
        let m = IdRemap::from_sorted(vec![2, 5, 9, 40]);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        for (local, universe) in [(0u32, 2u32), (1, 5), (2, 9), (3, 40)] {
            assert_eq!(m.universe_of(local), universe);
            assert_eq!(m.local_of(universe), Some(local));
        }
        for outsider in [0u32, 3, 10, 41] {
            assert_eq!(m.local_of(outsider), None);
        }
        assert!(IdRemap::default().is_empty());
        // Monotone by construction, so id comparisons survive the round
        // trip: local order == universe order.
        assert!(m.to_universe().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deactivation_matches_filter_nodes() {
        let g = path_graph(5);
        let dead = vec![false, false, true, false, false];
        let d = deactivate_vertices(&g, &dead);
        assert_eq!(d.n(), 5);
        assert_eq!(d.m(), 2); // 0-1 and 3-4 survive
        assert!(d.neighbors(2).is_empty());
    }

    #[test]
    fn relabel_lifts_into_universe_space() {
        // Compact graph on {0,1,2} ≙ universe nodes {1,3,4} of 6.
        let g = path_graph(3);
        let lifted = relabel(&g, &[1, 3, 4], 6);
        assert_eq!(lifted.n(), 6);
        assert_eq!(lifted.m(), 2);
        assert!(lifted.has_edge(1, 3));
        assert!(lifted.has_edge(3, 4));
        assert!(lifted.neighbors(0).is_empty());
        assert!(lifted.neighbors(5).is_empty());
    }

    #[test]
    fn relabel_identity_is_a_noop() {
        let g = path_graph(4);
        assert_eq!(relabel(&g, &[0, 1, 2, 3], 4), g);
    }

    #[test]
    fn id_remap_rejects_non_monotone_ids_in_release_builds_too() {
        let err = IdRemap::try_from_sorted(vec![2, 5, 5, 9]).unwrap_err();
        assert_eq!(
            err,
            MonotonicityError {
                index: 2,
                prev: 5,
                next: 5
            }
        );
        assert!(err.to_string().contains("index 2"));
        assert!(IdRemap::try_from_sorted(vec![0, 7, 40]).is_ok());
        // The panicking constructor carries the same diagnostic, with no
        // debug_assertions gate.
        let panic = std::panic::catch_unwind(|| IdRemap::from_sorted(vec![3, 1])).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("strictly ascending"), "got: {msg}");
    }

    #[test]
    fn relabel_rejects_non_monotone_maps_in_release_builds_too() {
        let g = path_graph(3);
        let panic = std::panic::catch_unwind(|| relabel(&g, &[1, 4, 2], 6)).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("strictly monotone"), "got: {msg}");
    }

    #[test]
    fn streamed_relabel_matches_edge_list_rebuild() {
        // Dense reference: collect mapped edges and rebuild from scratch.
        let mut el = EdgeList::new(5);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)] {
            el.add(u, v);
        }
        let g = Csr::from_edge_list(el);
        let map = [2u32, 3, 7, 8, 11];
        let streamed = relabel(&g, &map, 12);
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (map[u as usize], map[v as usize]))
            .collect();
        assert_eq!(streamed, Csr::from_canonical_edges(12, &edges));
    }

    #[test]
    fn fingerprint_is_layout_blind_across_representations() {
        let g = path_graph(6);
        let chunked = crate::chunked::ChunkedCsr::build(
            3,
            &[0, 0, 1, 1, 2, 2],
            &g.edges().collect::<Vec<_>>(),
        );
        assert_eq!(fingerprint(&g), fingerprint(&chunked));
        assert_eq!(
            fingerprint(&chunked),
            fingerprint(&crate::view::CsrView::Chunked(&chunked))
        );
    }

    #[test]
    fn fingerprint_separates_structures_and_matches_equality() {
        let a = path_graph(6);
        let b = path_graph(6);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut el = EdgeList::new(6);
        for i in 1..6u32 {
            el.add(i - 1, i);
        }
        el.add(0, 5); // cycle, not path
        let c = Csr::from_edge_list(el);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // Isolated tail changes n and must change the print.
        assert_ne!(fingerprint(&a), fingerprint(&path_graph(7)));
    }
}
