//! The grid-bucket index.

use wsn_geom::{Aabb, Point};
use wsn_pointproc::PointSet;

/// A uniform-grid spatial index borrowing its point set.
///
/// Bucket layout is CSR-style: `ids` holds all point ids sorted by cell, and
/// `cell_start[c]..cell_start[c + 1]` is the slice of cell `c` — one flat
/// allocation, cache-dense iteration (perf-book idiom).
pub struct GridIndex<'p> {
    points: &'p PointSet,
    bounds: Aabb,
    cell: f64,
    cols: usize,
    rows: usize,
    cell_start: Vec<u32>,
    ids: Vec<u32>,
}

impl<'p> GridIndex<'p> {
    /// Build an index with the given cell size (typically the query radius).
    ///
    /// Empty point sets are allowed and yield an index whose queries return
    /// nothing.
    pub fn build(points: &'p PointSet, cell: f64) -> Self {
        let bounds = points.bounding_box();
        // Full membership iterates ids directly — no member list to
        // allocate on the hot per-shard construction path.
        GridIndex::build_with(
            points,
            || 0..points.len() as u32,
            points.len(),
            bounds,
            cell,
        )
    }

    /// Build an index over the `members` subset only (ascending ids —
    /// queries return the original ids of `points`). The grid is sized to
    /// the members' bounding box, so a localized subset gets a localized
    /// cell array regardless of how far the full set extends.
    fn build_subset(points: &'p PointSet, members: &[u32], cell: f64) -> Self {
        let mut bounds: Option<Aabb> = None;
        for &m in members {
            let p = points.get(m);
            let b = Aabb::new(p, p);
            bounds = Some(match bounds {
                None => b,
                Some(cur) => cur.union(&b),
            });
        }
        GridIndex::build_with(
            points,
            || members.iter().copied(),
            members.len(),
            bounds,
            cell,
        )
    }

    /// The one counting-sort construction both entry points share;
    /// `members` yields the indexed ids (twice — count, then scatter).
    fn build_with<I, F>(
        points: &'p PointSet,
        members: F,
        n_members: usize,
        bounds: Option<Aabb>,
        cell: f64,
    ) -> Self
    where
        I: Iterator<Item = u32>,
        F: Fn() -> I,
    {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        let bounds = bounds.unwrap_or_else(|| Aabb::square(cell));
        // Guard against degenerate (single-point / colinear) extents.
        let cols = ((bounds.width() / cell).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell).ceil() as usize).max(1);
        let n_cells = cols * rows;

        // Counting sort of member ids by cell.
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: Point| -> usize {
            let i = (((p.x - bounds.min.x) / cell) as usize).min(cols - 1);
            let j = (((p.y - bounds.min.y) / cell) as usize).min(rows - 1);
            j * cols + i
        };
        for m in members() {
            counts[cell_of(points.get(m)) + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut ids = vec![0u32; n_members];
        for m in members() {
            let c = cell_of(points.get(m));
            ids[cursor[c] as usize] = m;
            cursor[c] += 1;
        }
        GridIndex {
            points,
            bounds,
            cell,
            cols,
            rows,
            cell_start,
            ids,
        }
    }

    /// Build a [`SubIndex`] over only the points inside `extent` — the
    /// localized spatial index of the dirty-extent repair path. Queries
    /// whose support escapes the extent report [`InsufficientExtent`]
    /// instead of silently truncating to the member set.
    pub fn build_over(points: &'p PointSet, extent: &Aabb, cell: f64) -> SubIndex<'p> {
        let members: Vec<u32> = points
            .iter_enumerated()
            .filter(|&(_, p)| extent.contains(p))
            .map(|(i, _)| i)
            .collect();
        let full = members.len() == points.len();
        SubIndex {
            n_members: members.len(),
            grid: GridIndex::build_subset(points, &members, cell),
            extent: *extent,
            full,
        }
    }

    /// Like [`Self::build_over`], but for a point set that is *already*
    /// the restriction of some larger population to `extent` (e.g. the
    /// alive points gathered from a dirty extent group). Every point is a
    /// member, yet certification must still prove a query's support stays
    /// inside the extent — the unseen population lives beyond it, so
    /// full membership of the *handed-in* set must never short-circuit
    /// the extent checks the way it does for a genuinely complete set.
    pub fn build_over_restricted(points: &'p PointSet, extent: &Aabb, cell: f64) -> SubIndex<'p> {
        debug_assert!(
            points.iter().all(|p| extent.contains(p)),
            "restricted build requires every point inside the extent"
        );
        SubIndex {
            n_members: points.len(),
            grid: GridIndex::build(points, cell),
            extent: *extent,
            full: false,
        }
    }

    #[inline]
    pub fn points(&self) -> &PointSet {
        self.points
    }

    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let i = (((p.x - self.bounds.min.x) / self.cell).max(0.0) as usize).min(self.cols - 1);
        let j = (((p.y - self.bounds.min.y) / self.cell).max(0.0) as usize).min(self.rows - 1);
        (i, j)
    }

    #[inline]
    fn cell_ids(&self, i: usize, j: usize) -> &[u32] {
        self.row_ids(i, i, j)
    }

    /// Ids of the cells `i0..=i1` of row `j` — one contiguous slice of the
    /// row-major bucket layout.
    #[inline]
    fn row_ids(&self, i0: usize, i1: usize, j: usize) -> &[u32] {
        let c = j * self.cols;
        let (s, e) = (
            self.cell_start[c + i0] as usize,
            self.cell_start[c + i1 + 1] as usize,
        );
        &self.ids[s..e]
    }

    /// Call `f(id, point)` for every point within `radius` of `center`
    /// (closed ball). Visits only the O(r²/cell²) overlapping cells.
    pub fn for_each_in_disk<F: FnMut(u32, Point)>(&self, center: Point, radius: f64, mut f: F) {
        if self.points.is_empty() {
            return;
        }
        let r2 = radius * radius;
        let lo = self.cell_coords(Point::new(center.x - radius, center.y - radius));
        let hi = self.cell_coords(Point::new(center.x + radius, center.y + radius));
        for j in lo.1..=hi.1 {
            for i in lo.0..=hi.0 {
                for &id in self.cell_ids(i, j) {
                    let p = self.points.get(id);
                    if p.dist_sq(center) <= r2 {
                        f(id, p);
                    }
                }
            }
        }
    }

    /// Ids of all points within `radius` of `center`, appended to `out`
    /// (cleared first). Reuse `out` across calls to avoid allocation.
    pub fn in_disk(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_in_disk(center, radius, |id, _| out.push(id));
    }

    /// First point (in cell-scan order) within `radius` of `center` that
    /// satisfies `pred`, or `None`. Unlike [`Self::for_each_in_disk`] this
    /// stops at the first hit — the primitive for region-emptiness tests
    /// that should not scan the whole disk once a witness is found.
    pub fn find_in_disk<F: FnMut(u32, Point) -> bool>(
        &self,
        center: Point,
        radius: f64,
        mut pred: F,
    ) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let r2 = radius * radius;
        let lo = self.cell_coords(Point::new(center.x - radius, center.y - radius));
        let hi = self.cell_coords(Point::new(center.x + radius, center.y + radius));
        for j in lo.1..=hi.1 {
            for i in lo.0..=hi.0 {
                for &id in self.cell_ids(i, j) {
                    let p = self.points.get(id);
                    if p.dist_sq(center) <= r2 && pred(id, p) {
                        return Some(id);
                    }
                }
            }
        }
        None
    }

    /// Ids of all points inside the closed box, sorted ascending — the ghost
    /// gather of the sharded pipeline (sorted ids keep local→global id maps
    /// monotone, which preserves every id tie-break downstream).
    pub fn gather_sorted(&self, b: &Aabb, out: &mut Vec<u32>) {
        self.in_aabb(b, out);
        out.sort_unstable();
    }

    /// Ids of all points inside the closed box, appended to `out`.
    pub fn in_aabb(&self, b: &Aabb, out: &mut Vec<u32>) {
        out.clear();
        if self.points.is_empty() {
            return;
        }
        let lo = self.cell_coords(b.min);
        let hi = self.cell_coords(b.max);
        for j in lo.1..=hi.1 {
            for i in lo.0..=hi.0 {
                for &id in self.cell_ids(i, j) {
                    if b.contains(self.points.get(id)) {
                        out.push(id);
                    }
                }
            }
        }
    }

    /// Number of points within `radius` of `center`.
    pub fn count_in_disk(&self, center: Point, radius: f64) -> usize {
        let mut n = 0usize;
        self.for_each_in_disk(center, radius, |_, _| n += 1);
        n
    }

    /// The `k` nearest neighbours of `query`, excluding `skip` (pass the
    /// query point's own id when it belongs to the set). Returns
    /// `(id, distance)` pairs sorted by increasing distance; fewer than `k`
    /// when the set is small. Ties are broken deterministically by
    /// `(distance, id)`. Allocates per call — hot loops use
    /// [`Self::knn_into`] with a reused buffer instead.
    pub fn knn(&self, query: Point, k: usize, skip: Option<u32>) -> Vec<(u32, f64)> {
        let mut buf = Vec::new();
        self.knn_into(query, k, skip, None, &mut buf);
        buf.into_iter().map(|(d2, id)| (id, d2.sqrt())).collect()
    }

    /// The selection kernel behind every k-NN query: leaves the `k` nearest
    /// neighbours of `query` (excluding `skip`) in `buf` as `(d², id)`
    /// pairs, sorted by `(d², key(id))`, where `key(id)` is `tie[id]` when
    /// a tie map is given and `id` otherwise. `buf` is cleared first;
    /// reusing it across queries makes the search allocation-free.
    ///
    /// Cells are gathered ring by ring around the query's cell into `buf`,
    /// dropping candidates farther than the current k-th squared distance.
    /// Once `k` candidates are in, `select_nth_unstable_by` on
    /// `(d², key)` moves the best `k` to the front and the rest are cut;
    /// the k-th distance then bounds the search — ring `r` is skipped (and
    /// the search ends) when `(r − 1) · cell` exceeds it, because the query
    /// may sit anywhere within its own cell. Only the final `k` are sorted.
    ///
    /// Selection is keyed on squared distances: distinct `d²` can collapse
    /// to the same `sqrt`, and ordering on the rounded value would
    /// tie-break by key where the true distances differ. The key is looked
    /// up only when two `d²` are exactly equal, so inputs without exact
    /// ties never read the map. A tie map lets a caller whose ids are a
    /// relabelling of some canonical id space (the Morton-ordered
    /// builders) break exact ties in that canonical space; it must be
    /// injective over the indexed ids.
    pub fn knn_into(
        &self,
        query: Point,
        k: usize,
        skip: Option<u32>,
        tie: Option<&[u32]>,
        buf: &mut Vec<(f64, u32)>,
    ) {
        buf.clear();
        if k == 0 || self.points.is_empty() {
            return;
        }
        let key = |id: u32| tie.map_or(id, |t| t[id as usize]);
        let order = |a: &(f64, u32), b: &(f64, u32)| {
            a.0.total_cmp(&b.0).then_with(|| key(a.1).cmp(&key(b.1)))
        };
        // Squared distance of the k-th candidate once k are in; candidates
        // beyond it can never enter the answer.
        let mut kth_d2 = f64::INFINITY;
        let gather = |ids: &[u32], kth_d2: f64, buf: &mut Vec<(f64, u32)>| {
            for &id in ids {
                let d2 = self.points.get(id).dist_sq(query);
                if d2 <= kth_d2 && Some(id) != skip {
                    buf.push((d2, id));
                }
            }
        };
        let (qi, qj) = self.cell_coords(query);
        let (ci, cj) = (qi as isize, qj as isize);
        let (cols, rows) = (self.cols as isize, self.rows as isize);
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            if ring >= 1 && (ring as f64 - 1.0) * self.cell > kth_d2.sqrt() {
                break;
            }
            let r = ring as isize;
            // The ring's top and bottom rows are contiguous cell runs in
            // the row-major bucket layout: one slice each.
            let (i0, i1) = ((ci - r).max(0) as usize, (ci + r).min(cols - 1) as usize);
            let edge_rows: &[isize] = if r == 0 { &[cj] } else { &[cj - r, cj + r] };
            for &j in edge_rows.iter().filter(|j| (0..rows).contains(*j)) {
                gather(self.row_ids(i0, i1, j as usize), kth_d2, buf);
            }
            // Its left and right columns, corners excluded.
            if r > 0 {
                let (j0, j1) = ((cj - r + 1).max(0), (cj + r - 1).min(rows - 1));
                for i in [ci - r, ci + r]
                    .into_iter()
                    .filter(|i| (0..cols).contains(i))
                {
                    for j in j0..=j1 {
                        gather(self.cell_ids(i as usize, j as usize), kth_d2, buf);
                    }
                }
            }
            if buf.len() >= k {
                buf.select_nth_unstable_by(k - 1, order);
                buf.truncate(k);
                kth_d2 = buf[k - 1].0;
            }
        }
        buf.sort_unstable_by(order);
    }

    /// Nearest neighbour (excluding `skip`), if any.
    pub fn nearest(&self, query: Point, skip: Option<u32>) -> Option<(u32, f64)> {
        self.knn(query, 1, skip).into_iter().next()
    }
}

/// A query's certification region escaped the index's extent: the answer
/// over the member subset might differ from the answer over the full point
/// set, so the caller must escalate to a global index instead of trusting
/// a silently truncated result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsufficientExtent;

impl std::fmt::Display for InsufficientExtent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query support escapes the sub-index extent")
    }
}

/// A localized view of a point set: an index over only the points inside a
/// rectangular *extent* (see [`GridIndex::build_over`]).
///
/// The extent is a coverage certificate, not just a filter. Every query
/// either proves its support lies inside the extent — in which case the
/// result is exactly what a global index over the full set would return —
/// or reports [`InsufficientExtent`]. That dichotomy is what lets the
/// incremental repair path run shard derivations against a small local
/// index and escalate to a global one *only* when a query genuinely needs
/// points beyond the dirty region.
pub struct SubIndex<'p> {
    grid: GridIndex<'p>,
    extent: Aabb,
    /// Members are the entire underlying set, so every query is certified
    /// regardless of the extent (the degenerate whole-window case).
    full: bool,
    n_members: usize,
}

impl<'p> SubIndex<'p> {
    /// The underlying (full) point set; returned ids index into it.
    #[inline]
    pub fn points(&self) -> &PointSet {
        self.grid.points()
    }

    /// Number of member points inside the extent.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_members
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_members == 0
    }

    #[inline]
    pub fn extent(&self) -> &Aabb {
        &self.extent
    }

    /// True iff member results are certified complete for any query whose
    /// support lies inside `b`.
    #[inline]
    pub fn covers(&self, b: &Aabb) -> bool {
        self.full || self.extent.contains_aabb(b)
    }

    /// True iff the closed ball fits inside the extent.
    #[inline]
    pub fn covers_disk(&self, center: Point, radius: f64) -> bool {
        self.covers(&Aabb::from_coords(
            center.x - radius,
            center.y - radius,
            center.x + radius,
            center.y + radius,
        ))
    }

    /// Sorted member ids inside the closed box — the ghost gather of the
    /// localized repair path. The box must lie inside the extent (that is
    /// the caller's grouping invariant; checked in debug builds).
    pub fn gather_sorted(&self, b: &Aabb, out: &mut Vec<u32>) {
        debug_assert!(
            self.covers(b),
            "gather box {b:?} escapes sub-index extent {:?}",
            self.extent
        );
        self.grid.gather_sorted(b, out);
    }

    /// First member (in cell-scan order) within `radius` of `center`
    /// satisfying `pred`, certified against the full set — or
    /// [`InsufficientExtent`] when the query disk crosses the extent
    /// boundary (a point outside the members could also match).
    pub fn find_in_disk<F: FnMut(u32, Point) -> bool>(
        &self,
        center: Point,
        radius: f64,
        pred: F,
    ) -> Result<Option<u32>, InsufficientExtent> {
        if !self.covers_disk(center, radius) {
            return Err(InsufficientExtent);
        }
        Ok(self.grid.find_in_disk(center, radius, pred))
    }

    /// Member ids within `radius` of `center` (into `out`, cleared first),
    /// certified complete against the full set — or
    /// [`InsufficientExtent`] when the disk escapes the extent.
    pub fn in_disk(
        &self,
        center: Point,
        radius: f64,
        out: &mut Vec<u32>,
    ) -> Result<(), InsufficientExtent> {
        if !self.covers_disk(center, radius) {
            return Err(InsufficientExtent);
        }
        self.grid.in_disk(center, radius, out);
        Ok(())
    }

    /// The `k` nearest members of `query` (same contract as
    /// [`GridIndex::knn`]), certified equal to the global answer: `Ok` is
    /// returned only when `k` members were found *and* the k-th distance
    /// ball fits inside the extent — any closer point of the full set
    /// would then be a member too. Everything else is
    /// [`InsufficientExtent`].
    pub fn knn(
        &self,
        query: Point,
        k: usize,
        skip: Option<u32>,
    ) -> Result<Vec<(u32, f64)>, InsufficientExtent> {
        let res = self.grid.knn(query, k, skip);
        if self.full || k == 0 {
            return Ok(res);
        }
        if res.len() < k {
            return Err(InsufficientExtent);
        }
        // `res` distances are correctly-rounded sqrts, which can round
        // *below* the true k-th distance by up to half an ulp — and an
        // under-sized certification ball is exactly the kind of silent
        // truncation this type exists to rule out. One `next_up` makes
        // the rounded value an upper bound on the true distance.
        let kth = res.last().expect("k > 0 results").1.next_up();
        if self.covers_disk(query, kth) {
            Ok(res)
        } else {
            Err(InsufficientExtent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use proptest::prelude::*;
    use rand::RngExt;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn sample_points(n: usize, seed: u64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(10.0))
    }

    #[test]
    fn empty_set_queries_are_empty() {
        let pts = PointSet::new();
        let idx = GridIndex::build(&pts, 1.0);
        let mut out = Vec::new();
        idx.in_disk(Point::new(0.0, 0.0), 5.0, &mut out);
        assert!(out.is_empty());
        assert!(idx.knn(Point::new(0.0, 0.0), 3, None).is_empty());
        assert!(idx.nearest(Point::new(0.0, 0.0), None).is_none());
    }

    #[test]
    fn single_point() {
        let pts: PointSet = vec![Point::new(5.0, 5.0)].into_iter().collect();
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(
            idx.nearest(Point::new(0.0, 0.0), None),
            Some((0, 50.0_f64.sqrt()))
        );
        assert!(idx.nearest(Point::new(0.0, 0.0), Some(0)).is_none());
        assert_eq!(idx.count_in_disk(Point::new(5.0, 5.0), 0.1), 1);
    }

    #[test]
    fn disk_query_matches_bruteforce_on_fixed_sets() {
        let pts = sample_points(500, 1);
        let idx = GridIndex::build(&pts, 1.0);
        let mut fast = Vec::new();
        for &(cx, cy, r) in &[
            (5.0, 5.0, 1.0),
            (0.0, 0.0, 2.5),
            (10.0, 10.0, 0.5),
            (3.3, 7.7, 4.0),
        ] {
            let c = Point::new(cx, cy);
            idx.in_disk(c, r, &mut fast);
            fast.sort_unstable();
            let slow = bruteforce::in_disk(&pts, c, r);
            assert_eq!(fast, slow, "center ({cx},{cy}) r {r}");
        }
    }

    #[test]
    fn find_in_disk_agrees_with_full_scan_and_short_circuits() {
        let pts = sample_points(400, 9);
        let idx = GridIndex::build(&pts, 1.0);
        for &(cx, cy, r) in &[(5.0, 5.0, 1.5), (0.5, 9.5, 2.0), (11.0, 11.0, 1.0)] {
            let c = Point::new(cx, cy);
            // Existence must agree with the exhaustive scan for any pred.
            let pred = |id: u32, _: Point| id.is_multiple_of(3);
            let mut any = false;
            idx.for_each_in_disk(c, r, |id, p| any |= pred(id, p));
            assert_eq!(idx.find_in_disk(c, r, pred).is_some(), any, "({cx},{cy})");
            // And the hit (when any) genuinely satisfies the predicate +
            // the ball.
            if let Some(id) = idx.find_in_disk(c, r, pred) {
                assert!(id.is_multiple_of(3) && pts.get(id).dist(c) <= r);
            }
        }
        // Short-circuit: the predicate is not called again after a hit.
        let mut calls = 0usize;
        let _ = idx.find_in_disk(Point::new(5.0, 5.0), 3.0, |_, _| {
            calls += 1;
            true
        });
        assert_eq!(calls, 1, "must stop at the first accepted point");
    }

    #[test]
    fn knn_matches_bruteforce_on_fixed_sets() {
        let pts = sample_points(300, 2);
        let idx = GridIndex::build(&pts, 0.8);
        for qi in [0u32, 7, 42, 299] {
            let q = pts.get(qi);
            for k in [1usize, 3, 10, 50] {
                let fast = idx.knn(q, k, Some(qi));
                let slow = bruteforce::knn(&pts, q, k, Some(qi));
                let f: Vec<u32> = fast.iter().map(|&(i, _)| i).collect();
                let s: Vec<u32> = slow.iter().map(|&(i, _)| i).collect();
                assert_eq!(f, s, "query {qi} k {k}");
            }
        }
    }

    #[test]
    fn knn_returns_all_when_k_exceeds_n() {
        let pts = sample_points(5, 3);
        let idx = GridIndex::build(&pts, 1.0);
        let res = idx.knn(Point::new(5.0, 5.0), 100, None);
        assert_eq!(res.len(), 5);
        // Sorted by distance.
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn knn_handles_duplicate_positions() {
        let pts: PointSet = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]
        .into_iter()
        .collect();
        let idx = GridIndex::build(&pts, 1.0);
        let res = idx.knn(Point::new(1.0, 1.0), 2, Some(0));
        // Ids 1 and 2 are both at distance 0; deterministic tie-break by id.
        assert_eq!(res.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn aabb_query_matches_predicate() {
        let pts = sample_points(400, 4);
        let idx = GridIndex::build(&pts, 1.3);
        let b = Aabb::from_coords(2.0, 3.0, 6.5, 8.0);
        let mut out = Vec::new();
        idx.in_aabb(&b, &mut out);
        out.sort_unstable();
        let expected: Vec<u32> = pts
            .iter_enumerated()
            .filter(|&(_, p)| b.contains(p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn cell_size_does_not_change_results() {
        let pts = sample_points(200, 5);
        let q = Point::new(4.2, 6.1);
        let mut reference: Option<Vec<u32>> = None;
        for cell in [0.3, 1.0, 2.7, 9.0] {
            let idx = GridIndex::build(&pts, cell);
            let ids: Vec<u32> = idx.knn(q, 12, None).iter().map(|&(i, _)| i).collect();
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "cell = {cell}"),
            }
        }
    }

    #[test]
    fn knn_tie_map_breaks_exact_ties_in_the_mapped_id_space() {
        // A 5×5 lattice stored in reverse: local id `i` is canonical id
        // `24 − i`. With the map as tie key, the answer is the canonical
        // answer relabelled — ties resolve as if the ids were canonical.
        let canonical: PointSet = (0..25)
            .map(|i| Point::new((i % 5) as f64, (i / 5) as f64))
            .collect();
        let reversed: PointSet = (0..25).rev().map(|i| canonical.get(i)).collect();
        let to_canonical: Vec<u32> = (0..25).rev().collect();
        let idx = GridIndex::build(&reversed, 1.0);
        let mut buf = Vec::new();
        for local in 0..25u32 {
            let q = reversed.get(local);
            let c = to_canonical[local as usize];
            for k in [1usize, 3, 4, 8, 24] {
                idx.knn_into(q, k, Some(local), Some(&to_canonical), &mut buf);
                let got: Vec<u32> = buf.iter().map(|&(_, v)| to_canonical[v as usize]).collect();
                let want: Vec<u32> = bruteforce::knn(&canonical, q, k, Some(c))
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                assert_eq!(got, want, "query {c}, k {k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Integer-lattice coordinates (with repeats): exact distance ties
        /// and co-located points everywhere, up to the NN-SENS k.
        #[test]
        fn prop_knn_equals_bruteforce_on_integer_lattices(
            seed in 0u64..1000,
            n in 1usize..600,
            side in 1u32..30,
            k in 1usize..=400,
            cell in 0.3f64..6.0,
        ) {
            let mut rng = rng_from_seed(seed);
            let pts: PointSet = (0..n)
                .map(|_| {
                    Point::new(
                        rng.random_range(0..side) as f64,
                        rng.random_range(0..side) as f64,
                    )
                })
                .collect();
            let q_id = rng.random_range(0..n) as u32;
            let q = pts.get(q_id);
            let idx = GridIndex::build(&pts, cell);
            for skip in [Some(q_id), None] {
                let fast = idx.knn(q, k, skip);
                let slow = bruteforce::knn(&pts, q, k, skip);
                prop_assert_eq!(fast, slow);
            }
        }

        #[test]
        fn prop_disk_query_equals_bruteforce(
            seed in 0u64..1000,
            n in 0usize..200,
            cx in 0.0f64..10.0,
            cy in 0.0f64..10.0,
            r in 0.0f64..5.0,
            cell in 0.1f64..3.0,
        ) {
            let pts = sample_points(n, seed);
            let idx = GridIndex::build(&pts, cell);
            let mut fast = Vec::new();
            idx.in_disk(Point::new(cx, cy), r, &mut fast);
            fast.sort_unstable();
            let slow = bruteforce::in_disk(&pts, Point::new(cx, cy), r);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_knn_equals_bruteforce(
            seed in 0u64..1000,
            n in 1usize..150,
            k in 1usize..20,
            cell in 0.1f64..3.0,
        ) {
            let pts = sample_points(n, seed);
            let mut rng = rng_from_seed(seed ^ 0xABCD);
            let q_id = rng.random_range(0..n) as u32;
            let q = pts.get(q_id);
            let idx = GridIndex::build(&pts, cell);
            let fast: Vec<u32> = idx.knn(q, k, Some(q_id)).iter().map(|&(i, _)| i).collect();
            let slow: Vec<u32> = bruteforce::knn(&pts, q, k, Some(q_id)).iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(fast, slow);
        }
    }
}
