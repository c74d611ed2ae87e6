//! CSR (compressed sparse row) adjacency.

use rayon::prelude::*;

use crate::builder::EdgeList;

/// Directed out-lists in flat form — the emission unit of the k-NN
/// builders, symmetrised by [`Csr::from_directed`]. List `i` holds the
/// out-neighbours of `sources[i]`.
#[derive(Debug, Default)]
pub struct DirectedLists {
    sources: Vec<u32>,
    /// `targets[ends[i - 1]..ends[i]]` is list `i` (from 0 for `i = 0`).
    ends: Vec<usize>,
    targets: Vec<u32>,
}

impl DirectedLists {
    pub fn new() -> Self {
        DirectedLists::default()
    }

    /// Append the out-list of `source`.
    pub fn push(&mut self, source: u32, targets: impl IntoIterator<Item = u32>) {
        self.targets.extend(targets);
        self.sources.push(source);
        self.ends.push(self.targets.len());
    }

    /// `(source, out-neighbours)` in push order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.sources
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&u, (s, &e))| (u, &self.targets[s..e]))
    }

    /// Every `(source, target)` pair, in push order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.iter()
            .flat_map(|(u, list)| list.iter().map(move |&v| (u, v)))
    }
}

/// Slots per block of the per-node sort/dedup fan-out in
/// [`Csr::from_directed`]: large enough to amortise the fan-out, small
/// enough that the tail balances across workers.
const SYMMETRISE_BLOCK_SLOTS: usize = 1 << 16;

/// An undirected graph in CSR form: `targets[offsets[u]..offsets[u + 1]]`
/// are the neighbours of `u`, sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from an edge list; duplicates are removed.
    pub fn from_edge_list(edges: EdgeList) -> Self {
        let (n, edges) = edges.dedup_edges();
        Self::from_canonical_edges(n, &edges)
    }

    /// Build from canonical `(min, max)` unique edges.
    pub fn from_canonical_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg.clone();
        let mut cursor = deg;
        let mut targets = vec![0u32; edges.len() * 2];
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Neighbour lists come out sorted because edges are sorted
        // canonically... only per source of the first endpoint; sort each
        // list to guarantee the invariant cheaply.
        let mut csr = Csr { offsets, targets };
        for u in 0..n {
            let (s, e) = (csr.offsets[u] as usize, csr.offsets[u + 1] as usize);
            csr.targets[s..e].sort_unstable();
        }
        csr
    }

    /// Symmetrise directed out-lists into the undirected graph on `n`
    /// nodes: `{map(u), map(v)}` is an edge iff some part lists `v` under
    /// `u`. `map` relabels every id on the way in (`None` is the identity)
    /// — the Morton-ordered builders pass rank-space lists with `to_orig`
    /// and get the original-id graph without a separate remap. Repeated
    /// pairs (either direction, any part) collapse; self-loops must not
    /// occur.
    ///
    /// Both directions of every pair are counting-sorted straight into
    /// their node's slot range, then each node's range is sorted and
    /// deduplicated — fanned out over node blocks — and the blocks are
    /// compacted into place. The result is the canonical CSR, identical to
    /// [`Self::from_edge_list`] over the same pairs.
    pub fn from_directed(n: usize, parts: &[DirectedLists], map: Option<&[u32]>) -> Self {
        debug_assert!(
            map.is_none_or(|m| m.len() == n),
            "map must cover every node"
        );
        let id = |x: u32| map.map_or(x, |m| m[x as usize]) as usize;
        let mut start = vec![0usize; n + 1];
        for (u, list) in parts.iter().flat_map(DirectedLists::iter) {
            start[id(u) + 1] += list.len();
            for &v in list {
                start[id(v) + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start[..n].to_vec();
        let mut slots = vec![0u32; start[n]];
        for (u, list) in parts.iter().flat_map(DirectedLists::iter) {
            let a = id(u);
            for &v in list {
                let b = id(v);
                debug_assert_ne!(a, b, "self-loop");
                slots[cursor[a]] = b as u32;
                cursor[a] += 1;
                slots[cursor[b]] = a as u32;
                cursor[b] += 1;
            }
        }
        drop(cursor);

        // Node blocks of about SYMMETRISE_BLOCK_SLOTS slots each; a block
        // sorts and dedups its nodes' ranges, compacting them to the front
        // of its own slot range, and reports the surviving degrees.
        let mut blocks: Vec<(std::ops::Range<usize>, &mut [u32])> = Vec::new();
        let mut rest: &mut [u32] = &mut slots;
        let mut first = 0;
        while first < n {
            let mut last = first + 1;
            while last < n && start[last] - start[first] < SYMMETRISE_BLOCK_SLOTS {
                last += 1;
            }
            let (block, tail) = rest.split_at_mut(start[last] - start[first]);
            blocks.push((first..last, block));
            rest = tail;
            first = last;
        }
        let start = &start;
        let degrees: Vec<Vec<u32>> = blocks
            .into_par_iter()
            .map(|(nodes, block)| {
                let base = start[nodes.start];
                let mut kept = 0;
                let mut degs = Vec::with_capacity(nodes.len());
                for u in nodes {
                    let (s, e) = (start[u] - base, start[u + 1] - base);
                    block[s..e].sort_unstable();
                    let from = kept;
                    for i in s..e {
                        if i == s || block[i] != block[i - 1] {
                            block[kept] = block[i];
                            kept += 1;
                        }
                    }
                    degs.push((kept - from) as u32);
                }
                degs
            })
            .collect();

        // Compact the blocks' kept prefixes in block order.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut write = 0usize;
        let mut node = 0usize;
        for degs in &degrees {
            let read = start[node];
            let kept: usize = degs.iter().map(|&d| d as usize).sum();
            slots.copy_within(read..read + kept, write);
            for &d in degs {
                write += d as usize;
                offsets.push(write as u32);
            }
            node += degs.len();
        }
        // Both directions of a mutual pair were counted, so the slots can
        // be up to twice the final size; callers keep the graph alive.
        slots.truncate(write);
        slots.shrink_to_fit();
        Csr::from_sorted_parts(offsets, slots)
    }

    /// Assemble from already-valid CSR arrays: `offsets` of length `n + 1`
    /// starting at 0, non-decreasing, ending at `targets.len()`, with each
    /// per-node slice strictly ascending. Callers (streaming relabel,
    /// chunked-CSR densification) uphold the invariants by construction;
    /// debug builds re-check them.
    pub(crate) fn from_sorted_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets.windows(2).all(|w| {
            targets[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|t| t[0] < t[1])
        }));
        Csr { offsets, targets }
    }

    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.targets[s..e]
    }

    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Membership test via binary search (neighbour lists are sorted).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate canonical undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced by keeping only nodes where `keep[u]` is true;
    /// node ids are preserved (non-kept nodes become isolated).
    pub fn filter_nodes(&self, keep: &[bool]) -> Csr {
        assert_eq!(keep.len(), self.n());
        let mut el = EdgeList::new(self.n());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                el.add(u, v);
            }
        }
        Csr::from_edge_list(el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.add(i - 1, i);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut el = EdgeList::new(3);
        el.add(0, 1);
        el.add(1, 0);
        el.add(0, 1);
        el.add(1, 2);
        let g = Csr::from_edge_list(el);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = path_graph(5);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn filter_nodes_removes_incident_edges() {
        let g = path_graph(5);
        let keep = vec![true, true, false, true, true];
        let f = g.filter_nodes(&keep);
        assert_eq!(f.n(), 5);
        assert_eq!(f.m(), 2); // 0-1 and 3-4 survive
        assert!(f.has_edge(0, 1));
        assert!(f.has_edge(3, 4));
        assert!(!f.has_edge(1, 2));
        assert!(f.neighbors(2).is_empty());
    }

    #[test]
    fn from_directed_matches_the_edge_list_path_through_any_map() {
        // Enough slots for several sort/dedup blocks; repeated and mutual
        // pairs included, split over two parts, relabelled by a reversal.
        let n = 3000u32;
        let mut parts = vec![DirectedLists::new(), DirectedLists::new()];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pairs = Vec::new();
        for u in 0..n {
            let list: Vec<u32> = (0..30)
                .map(|_| (u + 1 + (next() % (n as u64 - 1)) as u32) % n)
                .collect();
            pairs.extend(list.iter().map(|&v| (u, v)));
            parts[(u % 2) as usize].push(u, list);
        }
        let rev: Vec<u32> = (0..n).rev().collect();
        for map in [None, Some(rev.as_slice())] {
            let id = |x: u32| map.map_or(x, |m| m[x as usize]);
            let mut el = EdgeList::new(n as usize);
            for &(u, v) in &pairs {
                el.add(id(u), id(v));
            }
            assert_eq!(
                Csr::from_directed(n as usize, &parts, map),
                Csr::from_edge_list(el)
            );
        }
        assert_eq!(Csr::from_directed(4, &[], None), Csr::empty(4));
    }

    #[test]
    fn neighbor_lists_sorted_regardless_of_insert_order() {
        let mut el = EdgeList::new(5);
        el.add(4, 0);
        el.add(2, 0);
        el.add(0, 3);
        el.add(1, 0);
        let g = Csr::from_edge_list(el);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }
}
