//! O(n) reference queries — the oracle the grid index is tested against,
//! also convenient for tiny point sets where building an index is overkill.

use wsn_geom::Point;
use wsn_pointproc::PointSet;

/// Ids of all points within `radius` of `center` (closed ball), sorted by id.
pub fn in_disk(points: &PointSet, center: Point, radius: f64) -> Vec<u32> {
    let r2 = radius * radius;
    points
        .iter_enumerated()
        .filter(|&(_, p)| p.dist_sq(center) <= r2)
        .map(|(i, _)| i)
        .collect()
}

/// The `k` nearest neighbours of `query`, excluding `skip`, sorted by
/// `(distance, id)`.
///
/// Selection is keyed on *squared* distances, exactly like the grid
/// index's selection kernel: `sqrt` maps distinct squared distances onto
/// the same float (e.g. `1.0` and `1.0 + 2⁻⁵²` both round to `1.0`), and
/// an oracle ranking on the rounded value would tie-break by id where the
/// index correctly prefers the strictly nearer point.
pub fn knn(points: &PointSet, query: Point, k: usize, skip: Option<u32>) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = points
        .iter_enumerated()
        .filter(|&(i, _)| Some(i) != skip)
        .map(|(i, p)| (i, p.dist_sq(query)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.iter_mut().for_each(|e| e.1 = e.1.sqrt());
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_disk_is_closed_and_sorted() {
        let pts: PointSet = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(in_disk(&pts, Point::new(0.0, 0.0), 1.0), vec![0, 1]);
        assert_eq!(in_disk(&pts, Point::new(0.0, 0.0), 0.5), vec![0]);
        assert_eq!(in_disk(&pts, Point::new(5.0, 5.0), 0.1), Vec::<u32>::new());
    }

    #[test]
    fn knn_skips_and_orders() {
        let pts: PointSet = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ]
        .into_iter()
        .collect();
        let res = knn(&pts, pts.get(0), 2, Some(0));
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].0, 1);
        assert_eq!(res[1].0, 2);
        assert!((res[0].1 - 1.0).abs() < 1e-12);
        assert!((res[1].1 - 3.0).abs() < 1e-12);
    }
}
