//! Chunked CSR: per-shard adjacency sub-arrays with slack, spliced in
//! place.
//!
//! The monolithic [`Csr`] packs every neighbour list into one flat arena,
//! so replacing *one* shard's edges means rebuilding the whole structure —
//! O(n + m) per churned epoch no matter how local the churn was.
//!
//! [`ChunkedCsr`] removes that floor. Nodes are grouped by **chunk** (the
//! caller's repair shard): each chunk owns a contiguous region of the
//! arena holding its nodes' neighbour lists back to back, padded with
//! slack so a chunk's edge count can drift without moving its neighbours.
//!
//! ## Emissions and per-side counts
//!
//! The graph is built from directed **emissions** `(emitter, other)`: a
//! shard derivation emits each edge from the owned node that selected it.
//! UDG, Gabriel and RNG emit an edge once, from its smaller endpoint; k-NN
//! and Yao may emit it from both endpoints, possibly in different chunks;
//! HNG may emit one pair from the same node at several rungs. Each arena
//! entry `u → v` therefore stores how many emissions of `{u, v}` came from
//! `u` — its *own* count — and the edge is live iff
//! `own(u → v) + own(v → u) > 0`. The structure is thus its own emission
//! cache: a chunk's emissions are the own-counted entries of its nodes
//! ([`ChunkedCsr::emissions`]), and nothing else needs to remember them.
//!
//! ## Splice
//!
//! [`ChunkedCsr::splice`] replaces the emissions of a set of chunks. It
//! reads the old ones from those chunks, cancels the unchanged majority,
//! and routes each surviving change to *both* endpoints' chunks: the
//! emitter's entry changes its own count, the far endpoint's entry changes
//! only its partner's — which can still flip it live or dead. So exactly
//! the chunks whose adjacency changed rewrite, whether or not the caller
//! replaced them: O(dirty emissions), not O(m).
//!
//! Touched chunks merge in parallel, read-only against the pre-splice
//! arena (an entry whose own count drops to zero reads its reverse entry's
//! count from the other chunk to decide liveness); the write-back is
//! serial, in chunk order, so the layout stays deterministic.
//!
//! ## Slack policy
//!
//! Regions are sized in [`SLACK_PAGE`]-entry pages: a chunk of `len` live
//! entries gets `len + max(len/8, SLACK_PAGE)` rounded up to a page
//! multiple. A splice that outgrows its region relocates the chunk to the
//! arena tail with fresh slack (the old region becomes dead space); when
//! dead space exceeds half the arena, one O(arena) compaction rebuilds it
//! densely. Both paths are semantically invisible — equality and
//! fingerprints read per-node neighbour slices, never the layout.

use crate::csr::Csr;

/// Arena slack granularity, in half-edge entries.
pub const SLACK_PAGE: u32 = 64;

/// Region capacity for a chunk holding `len` live entries: at least one
/// slack page, proportionally more for large chunks, page-aligned.
#[inline]
fn cap_for(len: u32) -> u32 {
    let slack = (len / 8).max(SLACK_PAGE);
    (len + slack).next_multiple_of(SLACK_PAGE)
}

/// An own count as stored in the arena.
#[inline]
fn own_count(count: impl TryInto<u8>) -> u8 {
    count
        .try_into()
        .unwrap_or_else(|_| panic!("emission count fits u8"))
}

/// What one [`ChunkedCsr::splice`] call did (all costs O(dirty)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Chunks whose region was rewritten (0 when the delta cancelled).
    pub chunks_touched: usize,
    /// Chunks that outgrew their slack and moved to the arena tail.
    pub relocations: usize,
    /// Whole-arena compactions (0 or 1 per splice).
    pub compactions: usize,
    /// Arena entries whose own or partner count changed.
    pub delta_halfedges: usize,
}

/// The net change to one arena entry `u → v` (in chunk `chunk`): `own`
/// moves its own count, `partner` the own count of its reverse `v → u`.
#[derive(Clone, Copy, Debug)]
struct EntryDelta {
    chunk: u32,
    u: u32,
    v: u32,
    own: i32,
    partner: i32,
}

/// One chunk's merged region, computed read-only by `merge_chunk` (possibly
/// on a worker thread) and written back serially by `apply_chunk`.
struct ChunkRewrite {
    chunk: usize,
    targets: Vec<u32>,
    own: Vec<u8>,
    /// `(node, offset-into-targets)` in chunk node order.
    node_starts: Vec<(u32, u32)>,
}

/// An undirected graph in chunked CSR form: per-node sorted neighbour
/// slices, grouped into per-chunk arena regions with slack so
/// [`Self::splice`] can rewrite one chunk without touching the rest.
///
/// Equality (against itself or a dense [`Csr`]) and
/// [`crate::fingerprint`] are *semantic*: two layouts that differ only in
/// slack, relocation history or which side emitted an edge compare equal.
#[derive(Clone, Debug)]
pub struct ChunkedCsr {
    /// Node → owning chunk.
    chunk_of: Vec<u32>,
    /// Chunk → its nodes, ascending (CSR layout over chunks).
    chunk_nodes_off: Vec<u32>,
    chunk_nodes: Vec<u32>,
    /// Per-node slice into the arena.
    start: Vec<u32>,
    deg: Vec<u32>,
    /// Per-chunk arena region.
    region_start: Vec<u32>,
    region_cap: Vec<u32>,
    region_len: Vec<u32>,
    /// The arena: neighbour ids plus per-entry own counts.
    targets: Vec<u32>,
    own: Vec<u8>,
    /// Entries abandoned by relocations (reclaimed by compaction).
    dead: usize,
    /// Live half-edge entries (sum of degrees) — `m` is half of this.
    live: usize,
}

impl ChunkedCsr {
    /// Build from directed `(emitter, other)` emissions; `chunk_of[u]` is
    /// node `u`'s owning chunk. An edge may be emitted from both endpoints
    /// and more than once from one — the own counts absorb every copy.
    pub fn build(n_chunks: usize, chunk_of: &[u32], emissions: &[(u32, u32)]) -> Self {
        let n = chunk_of.len();
        assert!(n_chunks >= 1, "need at least one chunk");
        assert!(
            chunk_of.iter().all(|&c| (c as usize) < n_chunks),
            "chunk id out of range"
        );

        // Chunk membership lists (counting sort keeps ids ascending).
        let mut chunk_nodes_off = vec![0u32; n_chunks + 1];
        for &c in chunk_of {
            chunk_nodes_off[c as usize + 1] += 1;
        }
        for c in 0..n_chunks {
            chunk_nodes_off[c + 1] += chunk_nodes_off[c];
        }
        let mut cursor: Vec<u32> = chunk_nodes_off[..n_chunks].to_vec();
        let mut chunk_nodes = vec![0u32; n];
        for (u, &c) in chunk_of.iter().enumerate() {
            chunk_nodes[cursor[c as usize] as usize] = u as u32;
            cursor[c as usize] += 1;
        }

        // Bucket both half-edges of every emission by node (counting
        // sort), flagging the emitter's side, then sort each bucket and
        // fold its duplicates into own counts in place.
        let mut e_off = vec![0usize; n + 1];
        for &(a, b) in emissions {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "emission out of range"
            );
            assert_ne!(a, b, "self loop");
            e_off[a as usize + 1] += 1;
            e_off[b as usize + 1] += 1;
        }
        for u in 0..n {
            e_off[u + 1] += e_off[u];
        }
        let mut fill = e_off[..n].to_vec();
        let mut half: Vec<(u32, u8)> = vec![(0, 0); e_off[n]];
        for &(a, b) in emissions {
            half[fill[a as usize]] = (b, 1);
            fill[a as usize] += 1;
            half[fill[b as usize]] = (a, 0);
            fill[b as usize] += 1;
        }
        drop(fill);
        let mut deg = vec![0u32; n];
        for u in 0..n {
            let bucket = &mut half[e_off[u]..e_off[u + 1]];
            bucket.sort_unstable_by_key(|&(v, _)| v);
            let mut len = 0usize;
            let mut i = 0usize;
            while i < bucket.len() {
                let v = bucket[i].0;
                let mut own = 0usize;
                while i < bucket.len() && bucket[i].0 == v {
                    own += bucket[i].1 as usize;
                    i += 1;
                }
                bucket[len] = (v, own_count(own));
                len += 1;
            }
            deg[u] = len as u32;
        }

        // Lay the chunks out with slack.
        let mut start = vec![0u32; n];
        let mut region_start = vec![0u32; n_chunks];
        let mut region_cap = vec![0u32; n_chunks];
        let mut region_len = vec![0u32; n_chunks];
        let mut targets: Vec<u32> = Vec::new();
        let mut own: Vec<u8> = Vec::new();
        for c in 0..n_chunks {
            let nodes = &chunk_nodes[chunk_nodes_off[c] as usize..chunk_nodes_off[c + 1] as usize];
            let len: usize = nodes.iter().map(|&u| deg[u as usize] as usize).sum();
            let cap = cap_for(u32::try_from(len).expect("chunk length fits u32")) as usize;
            let base = targets.len();
            region_start[c] = u32::try_from(base).expect("arena offset fits u32");
            region_len[c] = len as u32;
            region_cap[c] = cap as u32;
            for &u in nodes {
                start[u as usize] = targets.len() as u32;
                let a = e_off[u as usize];
                for &(v, k) in &half[a..a + deg[u as usize] as usize] {
                    targets.push(v);
                    own.push(k);
                }
            }
            targets.resize(base + cap, 0);
            own.resize(base + cap, 0);
        }
        let live = deg.iter().map(|&d| d as usize).sum();

        ChunkedCsr {
            chunk_of: chunk_of.to_vec(),
            chunk_nodes_off,
            chunk_nodes,
            start,
            deg,
            region_start,
            region_cap,
            region_len,
            targets,
            own,
            dead: 0,
            live,
        }
    }

    /// An edgeless graph on `n` nodes in a single chunk.
    pub fn empty(n: usize) -> Self {
        Self::build(1, &vec![0u32; n], &[])
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.chunk_of.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.live / 2
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.region_start.len()
    }

    /// Neighbours of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.start[u as usize] as usize;
        &self.targets[s..s + self.deg[u as usize] as usize]
    }

    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.deg[u as usize] as usize
    }

    /// Membership test via binary search (neighbour lists are sorted).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The emissions chunk `c` holds: every entry `u → v` of its nodes,
    /// repeated by its own count, in `(u, v)` order.
    pub fn emissions(&self, c: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let nodes = self.chunk_nodes_off[c] as usize..self.chunk_nodes_off[c + 1] as usize;
        self.chunk_nodes[nodes].iter().flat_map(move |&u| {
            let s = self.start[u as usize] as usize;
            let e = s + self.deg[u as usize] as usize;
            self.targets[s..e]
                .iter()
                .zip(&self.own[s..e])
                .flat_map(move |(&v, &k)| std::iter::repeat_n((u, v), k as usize))
        })
    }

    /// Arena entries abandoned by relocations (observable so tests can pin
    /// the slack/compaction policy).
    #[inline]
    pub fn dead_entries(&self) -> usize {
        self.dead
    }

    /// Total arena entries (live + slack + dead).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.targets.len()
    }

    /// Replace the emissions of `chunks` with `emissions`, whose emitters
    /// must all live in `chunks`. The old emissions are read from the
    /// chunks themselves; those the new list repeats cancel, and only
    /// chunks with a surviving net change rewrite. Cost is O(emissions of
    /// the replaced chunks + delta), not O(m).
    ///
    /// Panics if an emitter lives in a chunk not being replaced — its
    /// emission could never be withdrawn by replacing its own chunk.
    pub fn splice(&mut self, chunks: &[usize], emissions: &[(u32, u32)]) -> SpliceStats {
        let n = self.n();
        let mut replaced = vec![false; self.chunk_count()];
        for &c in chunks {
            replaced[c] = true;
        }
        // Both emission lists as sorted packed u64 keys: a replaced chunk
        // re-emits the overwhelming share of its old list verbatim, so the
        // merge below cancels the matches before any half-edge work.
        let pack = |a: u32, b: u32| ((a as u64) << 32) | b as u64;
        let mut old: Vec<u64> = Vec::new();
        for (c, _) in replaced.iter().enumerate().filter(|&(_, &r)| r) {
            old.extend(self.emissions(c).map(|(a, b)| pack(a, b)));
        }
        let mut new: Vec<u64> = emissions
            .iter()
            .map(|&(a, b)| {
                assert!(
                    (a as usize) < n && (b as usize) < n,
                    "emission out of range"
                );
                assert_ne!(a, b, "self loop");
                let c = self.chunk_of[a as usize];
                assert!(
                    replaced[c as usize],
                    "emitter {a} lives in chunk {c}, which this splice does not replace"
                );
                pack(a, b)
            })
            .collect();
        old.sort_unstable();
        new.sort_unstable();
        // Merge the sorted key streams into net per-emission counts; each
        // surviving change moves the emitter's own count and its reverse
        // entry's partner count, in the endpoints' chunks.
        let mut delta: Vec<EntryDelta> = Vec::new();
        let (mut oi, mut ni) = (0usize, 0usize);
        while oi < old.len() || ni < new.len() {
            let key = match (old.get(oi), new.get(ni)) {
                (Some(&o), Some(&w)) => o.min(w),
                (Some(&o), None) => o,
                (None, Some(&w)) => w,
                (None, None) => unreachable!(),
            };
            let mut net = 0i32;
            while oi < old.len() && old[oi] == key {
                net -= 1;
                oi += 1;
            }
            while ni < new.len() && new[ni] == key {
                net += 1;
                ni += 1;
            }
            if net != 0 {
                let (a, b) = ((key >> 32) as u32, key as u32);
                delta.push(EntryDelta {
                    chunk: self.chunk_of[a as usize],
                    u: a,
                    v: b,
                    own: net,
                    partner: 0,
                });
                delta.push(EntryDelta {
                    chunk: self.chunk_of[b as usize],
                    u: b,
                    v: a,
                    own: 0,
                    partner: net,
                });
            }
        }
        delta.sort_unstable_by_key(|d| (d.chunk, d.u, d.v));
        // Changes to (u, v) and (v, u) land on the same two entries —
        // coalesce them.
        let mut co: Vec<EntryDelta> = Vec::with_capacity(delta.len());
        for d in delta {
            match co.last_mut() {
                Some(last) if (last.chunk, last.u, last.v) == (d.chunk, d.u, d.v) => {
                    last.own += d.own;
                    last.partner += d.partner;
                }
                _ => co.push(d),
            }
        }
        let mut stats = SpliceStats {
            delta_halfedges: co.len(),
            ..SpliceStats::default()
        };
        if co.is_empty() {
            return stats;
        }

        // Per-chunk delta runs.
        let mut runs: Vec<&[EntryDelta]> = Vec::new();
        let mut i = 0usize;
        while i < co.len() {
            let chunk = co[i].chunk;
            let mut j = i;
            while j < co.len() && co[j].chunk == chunk {
                j += 1;
            }
            runs.push(&co[i..j]);
            i = j;
        }
        stats.chunks_touched = runs.len();

        // Merge pass: the two-pointer list merges (the compute) read only
        // the pre-splice arena, so the touched chunks fan out over the
        // worker pool; the writes back into the arena — in-place copies,
        // tail relocations, region bookkeeping — happen serially below, in
        // chunk order, so relocation layout stays deterministic.
        let rewrites: Vec<ChunkRewrite> = {
            use rayon::prelude::*;
            runs.into_par_iter()
                .map(|drun| self.merge_chunk(drun))
                .collect()
        };
        for rw in rewrites {
            self.apply_chunk(rw, &mut stats);
        }

        // Reclaim relocation debris once it dominates the arena; amortised
        // against the relocations that created it.
        if self.dead > self.targets.len() / 2 {
            self.compact_arena();
            stats.compactions = 1;
        }
        stats
    }

    /// The pre-splice own count of the entry `u → v`, which must exist.
    fn own_of(&self, u: u32, v: u32) -> u8 {
        let i = self
            .neighbors(u)
            .binary_search(&v)
            .expect("adjacency is symmetric");
        self.own[self.start[u as usize] as usize + i]
    }

    /// Compute one chunk's rewritten region by merging its current lists
    /// with its (node, nbr)-sorted delta run. Read-only — safe to fan out
    /// across touched chunks; [`Self::apply_chunk`] writes the result back.
    fn merge_chunk(&self, delta: &[EntryDelta]) -> ChunkRewrite {
        let c = delta[0].chunk as usize;
        let mut s_targets: Vec<u32> = Vec::new();
        let mut s_own: Vec<u8> = Vec::new();
        let mut s_node: Vec<(u32, u32)> = Vec::new();
        let mut di = 0usize;
        for idx in self.chunk_nodes_off[c] as usize..self.chunk_nodes_off[c + 1] as usize {
            let u = self.chunk_nodes[idx];
            let s_start = s_targets.len() as u32;
            let old_s = self.start[u as usize] as usize;
            let old_e = old_s + self.deg[u as usize] as usize;
            let d0 = di;
            while di < delta.len() && delta[di].u == u {
                di += 1;
            }
            let drun = &delta[d0..di];
            if drun.is_empty() {
                s_targets.extend_from_slice(&self.targets[old_s..old_e]);
                s_own.extend_from_slice(&self.own[old_s..old_e]);
            } else {
                // Two-pointer merge of the sorted list with the sorted run.
                // A missing entry means the pair had no emission on either
                // side, so both of its counts start at zero.
                let push_new = |d: &EntryDelta, t: &mut Vec<u32>, o: &mut Vec<u8>| {
                    assert!(
                        d.own >= 0 && d.partner >= 0,
                        "splice withdraws an emission of ({u}, {}) not present",
                        d.v
                    );
                    if d.own + d.partner > 0 {
                        t.push(d.v);
                        o.push(own_count(d.own));
                    }
                };
                let (mut a, mut b) = (old_s, 0usize);
                while a < old_e && b < drun.len() {
                    let (va, d) = (self.targets[a], &drun[b]);
                    match va.cmp(&d.v) {
                        std::cmp::Ordering::Less => {
                            s_targets.push(va);
                            s_own.push(self.own[a]);
                            a += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            push_new(d, &mut s_targets, &mut s_own);
                            b += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let own = self.own[a] as i32 + d.own;
                            assert!(own >= 0, "own count of ({u}, {va}) went negative");
                            let live = own > 0 || self.own_of(va, u) as i32 + d.partner > 0;
                            if live {
                                s_targets.push(va);
                                s_own.push(own_count(own));
                            }
                            a += 1;
                            b += 1;
                        }
                    }
                }
                s_targets.extend_from_slice(&self.targets[a..old_e]);
                s_own.extend_from_slice(&self.own[a..old_e]);
                for d in &drun[b..] {
                    push_new(d, &mut s_targets, &mut s_own);
                }
            }
            s_node.push((u, s_start));
        }
        debug_assert_eq!(di, delta.len(), "delta run references a foreign node");
        ChunkRewrite {
            chunk: c,
            targets: s_targets,
            own: s_own,
            node_starts: s_node,
        }
    }

    /// Write one merged chunk back into the arena: in place when the slack
    /// absorbs the drift, relocated to the tail otherwise.
    fn apply_chunk(&mut self, rw: ChunkRewrite, stats: &mut SpliceStats) {
        let ChunkRewrite {
            chunk: c,
            targets: s_targets,
            own: s_own,
            node_starts: s_node,
        } = rw;
        let new_len = s_targets.len();
        let old_len = self.region_len[c] as usize;
        if new_len <= self.region_cap[c] as usize {
            // Fits in place (slack absorbed the drift).
            let base = self.region_start[c] as usize;
            self.targets[base..base + new_len].copy_from_slice(&s_targets);
            self.own[base..base + new_len].copy_from_slice(&s_own);
        } else {
            // Relocate to the arena tail with fresh slack.
            let cap = cap_for(u32::try_from(new_len).expect("chunk length fits u32")) as usize;
            let base = self.targets.len();
            self.targets.extend_from_slice(&s_targets);
            self.own.extend_from_slice(&s_own);
            self.targets.resize(base + cap, 0);
            self.own.resize(base + cap, 0);
            self.dead += self.region_cap[c] as usize;
            self.region_start[c] = u32::try_from(base).expect("arena offset fits u32");
            self.region_cap[c] = cap as u32;
            stats.relocations += 1;
        }
        self.region_len[c] = new_len as u32;
        let base = self.region_start[c];
        for (k, &(u, s_start)) in s_node.iter().enumerate() {
            let end = s_node.get(k + 1).map(|&(_, e)| e).unwrap_or(new_len as u32);
            self.start[u as usize] = base + s_start;
            self.deg[u as usize] = end - s_start;
        }
        self.live = (self.live + new_len) - old_len;
    }

    /// Rebuild the arena densely in chunk order, dropping dead regions and
    /// resetting every chunk's slack to policy.
    fn compact_arena(&mut self) {
        let n_chunks = self.chunk_count();
        let total: usize = self.region_len.iter().map(|&l| cap_for(l) as usize).sum();
        let mut targets: Vec<u32> = Vec::with_capacity(total);
        let mut own: Vec<u8> = Vec::with_capacity(total);
        for c in 0..n_chunks {
            let len = self.region_len[c] as usize;
            let old_base = self.region_start[c] as usize;
            let new_base = targets.len();
            targets.extend_from_slice(&self.targets[old_base..old_base + len]);
            own.extend_from_slice(&self.own[old_base..old_base + len]);
            let cap = cap_for(len as u32) as usize;
            targets.resize(new_base + cap, 0);
            own.resize(new_base + cap, 0);
            self.region_start[c] = u32::try_from(new_base).expect("arena offset fits u32");
            self.region_cap[c] = cap as u32;
            let mut cur = new_base as u32;
            for idx in self.chunk_nodes_off[c] as usize..self.chunk_nodes_off[c + 1] as usize {
                let u = self.chunk_nodes[idx] as usize;
                self.start[u] = cur;
                cur += self.deg[u];
            }
        }
        self.targets = targets;
        self.own = own;
        self.dead = 0;
    }

    /// Copy out as a dense [`Csr`] (layout-normalising; used by the
    /// differential suites to byte-compare against cold builds).
    pub fn to_dense(&self) -> Csr {
        let n = self.n();
        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + self.deg[u];
        }
        let mut targets = Vec::with_capacity(self.live);
        for u in 0..n as u32 {
            targets.extend_from_slice(self.neighbors(u));
        }
        Csr::from_sorted_parts(offsets, targets)
    }
}

/// Semantic equality: same node count, same per-node neighbour lists —
/// slack, relocation history and own counts are invisible.
impl PartialEq for ChunkedCsr {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n()
            && self.live == other.live
            && (0..self.n() as u32).all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl PartialEq<Csr> for ChunkedCsr {
    fn eq(&self, other: &Csr) -> bool {
        self.n() == other.n()
            && self.m() == other.m()
            && (0..self.n() as u32).all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl PartialEq<ChunkedCsr> for Csr {
    fn eq(&self, other: &ChunkedCsr) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;

    fn dense(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut el = EdgeList::new(n);
        for &(u, v) in edges {
            el.add(u, v);
        }
        Csr::from_edge_list(el)
    }

    /// Structural invariants every mutation must preserve.
    fn check_invariants(g: &ChunkedCsr) {
        let mut live = 0usize;
        for u in 0..g.n() as u32 {
            let ns = g.neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "node {u} list unsorted");
            for &v in ns {
                assert!(g.has_edge(v, u), "asymmetric edge ({u}, {v})");
                assert!(
                    g.own_of(u, v) + g.own_of(v, u) > 0,
                    "entry ({u}, {v}) live with no emission behind it"
                );
            }
            live += ns.len();
        }
        assert_eq!(live, g.m() * 2, "live count drifted");
    }

    /// `emissions(c)` for every chunk.
    fn all_emissions(g: &ChunkedCsr) -> Vec<Vec<(u32, u32)>> {
        (0..g.chunk_count())
            .map(|c| g.emissions(c).collect())
            .collect()
    }

    #[test]
    fn build_matches_dense_with_duplicate_emissions() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (1, 3)];
        // (1, 2) and (0, 3) come from both endpoints, as a two-sided
        // builder emits them; node 1 emits (1, 3) twice, as an HNG node
        // does when two of its rungs pick the same uplink.
        let emissions = [
            (0, 1),
            (1, 2),
            (2, 3),
            (2, 1),
            (0, 3),
            (1, 3),
            (3, 0),
            (1, 3),
        ];
        let g = ChunkedCsr::build(2, &[0, 0, 1, 1], &emissions);
        let d = dense(4, &edges);
        assert_eq!(g, d);
        assert_eq!(d, g);
        assert_eq!(g.m(), 5);
        assert_eq!(g.to_dense(), d);
        assert_eq!(
            all_emissions(&g),
            vec![
                vec![(0, 1), (0, 3), (1, 2), (1, 3), (1, 3)],
                vec![(2, 1), (2, 3), (3, 0)]
            ]
        );
        check_invariants(&g);
    }

    #[test]
    fn emissions_round_trip_with_duplicates() {
        let chunk_of = [0u32, 1, 0, 2, 1, 2];
        let emissions = [
            (0u32, 1u32),
            (1, 0),
            (2, 3),
            (2, 3),
            (2, 3),
            (4, 5),
            (5, 4),
            (3, 0),
        ];
        let mut g = ChunkedCsr::build(3, &chunk_of, &emissions);
        // Re-emitting what a chunk holds is a no-op splice...
        for c in 0..3 {
            let own: Vec<(u32, u32)> = g.emissions(c).collect();
            assert_eq!(g.splice(&[c], &own), SpliceStats::default(), "chunk {c}");
        }
        // ...and a fresh build from every chunk's emissions reproduces
        // both the graph and the per-chunk emission lists.
        let all: Vec<(u32, u32)> = all_emissions(&g).concat();
        let mut want = emissions.to_vec();
        let mut got = all.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        let rebuilt = ChunkedCsr::build(3, &chunk_of, &all);
        assert_eq!(rebuilt, g);
        assert_eq!(all_emissions(&rebuilt), all_emissions(&g));
        check_invariants(&g);
    }

    #[test]
    fn cancelled_delta_touches_nothing() {
        let emissions = [(0u32, 1u32), (1, 2)];
        let mut g = ChunkedCsr::build(2, &[0, 1, 1], &emissions);
        let stats = g.splice(&[0, 1], &emissions);
        assert_eq!(stats.chunks_touched, 0);
        assert_eq!(stats.delta_halfedges, 0);
        assert_eq!(g, dense(3, &emissions));
    }

    #[test]
    fn splice_add_remove_matches_reference() {
        // 3 chunks over 9 nodes; splice across chunk boundaries.
        let chunk_of = [0u32, 0, 0, 1, 1, 1, 2, 2, 2];
        let initial = [(0u32, 1u32), (1, 4), (3, 4), (4, 7), (6, 8)];
        let mut g = ChunkedCsr::build(3, &chunk_of, &initial);
        // Chunk 0 drops chunk-crossing (1, 4) and adds (2, 6) and (0, 8).
        let stats = g.splice(&[0], &[(0, 1), (2, 6), (0, 8)]);
        assert_eq!(
            stats.chunks_touched, 3,
            "both far endpoints' chunks rewrite"
        );
        let want = dense(9, &[(0, 1), (3, 4), (4, 7), (6, 8), (2, 6), (0, 8)]);
        assert_eq!(g, want);
        assert_eq!(g.to_dense(), want);
        check_invariants(&g);
        // Undo splices back byte-identically.
        g.splice(&[0], &[(0, 1), (1, 4)]);
        assert_eq!(g, dense(9, &initial));
        check_invariants(&g);
    }

    #[test]
    fn multiplicity_keeps_edges_backed_by_a_clean_shard() {
        // Edge (1, 2) emitted from both endpoints' chunks (k-NN style).
        let mut g = ChunkedCsr::build(2, &[0, 0, 1], &[(1u32, 2u32), (2, 1)]);
        assert_eq!(g.m(), 1);
        // One side withdraws its emission: the edge must survive, backed
        // by the other side alone.
        g.splice(&[0], &[]);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert_eq!(all_emissions(&g), vec![vec![], vec![(2, 1)]]);
        check_invariants(&g);
        // The other side withdraws too: now it is gone.
        g.splice(&[1], &[]);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(1).is_empty() && g.neighbors(2).is_empty());
        check_invariants(&g);
    }

    #[test]
    fn filtered_splice_rewrites_only_changed_chunks() {
        // Chunk 0 filters out node 1's edges; chunk 2 holds no endpoint of
        // them and must stay untouched.
        let chunk_of = [0u32, 0, 1, 1, 2, 2];
        let initial = [(0u32, 1u32), (1, 2), (0, 3), (4, 5)];
        let mut g = ChunkedCsr::build(3, &chunk_of, &initial);
        let kept: Vec<(u32, u32)> = g.emissions(0).filter(|&(u, v)| u != 1 && v != 1).collect();
        assert_eq!(kept, vec![(0, 3)]);
        let stats = g.splice(&[0], &kept);
        assert_eq!(stats.chunks_touched, 2, "chunks 0 and 1 only");
        assert_eq!(g, dense(6, &[(0, 3), (4, 5)]));
        assert_eq!(all_emissions(&g)[2], vec![(4, 5)]);
        check_invariants(&g);
    }

    #[test]
    fn slack_exhaustion_relocates_then_compaction_reclaims() {
        // One tiny chunk plus a big stable one; grow the tiny chunk far
        // past its initial slack page.
        let n = 400usize;
        let chunk_of: Vec<u32> = (0..n).map(|u| if u < 4 { 0 } else { 1 }).collect();
        let stable: Vec<(u32, u32)> = (4..n as u32 - 1).map(|u| (u, u + 1)).collect();
        let mut g = ChunkedCsr::build(2, &chunk_of, &stable);
        let mut emitted: Vec<(u32, u32)> = Vec::new();
        let mut relocations = 0usize;
        let mut compactions = 0usize;
        // Node 0 progressively links to every node of chunk 1: each batch
        // adds entries to chunk 0 (node 0's list) and chunk 1 (back refs).
        for batch in 0..12 {
            emitted.extend((0..32u32).map(|i| (0u32, 4 + batch * 32 + i)));
            let stats = g.splice(&[0], &emitted);
            relocations += stats.relocations;
            compactions += stats.compactions;
            let reference: Vec<(u32, u32)> = stable.iter().chain(&emitted).copied().collect();
            assert_eq!(g, dense(n, &reference), "batch {batch} diverged");
            check_invariants(&g);
        }
        assert!(relocations > 0, "growth past a slack page must relocate");
        assert!(compactions > 0, "repeated relocations must compact");
        assert_eq!(g.dead_entries(), 0, "compaction reclaims dead space");
        // Shrink back down: in-place, no relocation churn.
        let stats = g.splice(&[0], &[]);
        assert_eq!(stats.relocations, 0);
        assert_eq!(g, dense(n, &stable));
        check_invariants(&g);
    }

    #[test]
    fn extinction_and_resurrection() {
        let edges = [(0u32, 1u32), (1, 2), (0, 2)];
        let mut g = ChunkedCsr::build(2, &[0, 1, 1], &edges);
        g.splice(&[0, 1], &[]);
        assert_eq!(g.m(), 0);
        assert_eq!(g, Csr::empty(3));
        g.splice(&[0, 1], &edges);
        assert_eq!(g, dense(3, &edges));
        check_invariants(&g);
    }

    #[test]
    fn empty_graphs() {
        let g = ChunkedCsr::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = ChunkedCsr::empty(5);
        assert_eq!(g.n(), 5);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g, Csr::empty(5));
    }

    #[test]
    #[should_panic(expected = "does not replace")]
    fn emission_from_an_unreplaced_chunk_panics() {
        let mut g = ChunkedCsr::build(2, &[0, 0, 1], &[(0u32, 1u32)]);
        g.splice(&[0], &[(2, 1)]);
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same graph, different chunking and different splice history.
        let edges = [(0u32, 1u32), (1, 2), (2, 3)];
        let a = ChunkedCsr::build(2, &[0, 0, 1, 1], &edges);
        let mut b = ChunkedCsr::build(4, &[0, 1, 2, 3], &[(0u32, 1u32)]);
        b.splice(&[1, 2], &[(1, 2), (2, 3)]);
        assert_eq!(a, b);
        assert_eq!(a, dense(4, &edges));
    }
}
