//! The per-run sharding plan: a contiguous node partition plus
//! precomputed cross-shard traffic structure.

use mis_graphs::{EdgeId, Graph, NodeId, Partition};

/// "No cut pair" marker in the per-shard destination→pair lookup row.
pub(crate) const NO_PAIR: u32 = u32::MAX;

/// A [`Partition`] specialized for one engine run, extended with the
/// cut-pair structure the exchange is sized by: the ordered shard pairs
/// that actually share cut edges, with per-pair capacities, enumerated
/// so that the exchange allocates one cell per *cut* pair instead of a
/// `k²` mailbox matrix.
///
/// Boundaries depend on the graph's CSR offsets, so a plan is valid for
/// one graph only. Rebuilding reuses every buffer and costs one
/// `O(k log n)` boundary search plus, at `k ≥ 2`, one `O(m)` counting
/// sweep; a one-shard plan has no cut and skips the sweep.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    part: Partition,
    /// `cross[s * k + t]` = number of directed slots from shard `s`'s
    /// nodes whose receiver-side slot lives in shard `t` — the exact
    /// capacity the `s → t` staging buffer can ever need in one round.
    cross: Vec<usize>,
    /// The cut pairs `(src, dst)` in src-major order; the index into
    /// this list is the pair's exchange cell id. Src-major means each
    /// shard's out-pairs are one contiguous range, and each shard's
    /// in-pairs are automatically sorted by ascending src.
    pairs: Vec<(u32, u32)>,
    /// `k + 1` prefix bounds: shard `s`'s out-pairs are
    /// `pairs[out_start[s]..out_start[s + 1]]`.
    out_start: Vec<usize>,
    /// Pair ids grouped by destination shard (concatenated lists).
    in_pairs: Vec<u32>,
    /// `k + 1` prefix bounds into `in_pairs`.
    in_start: Vec<usize>,
    /// `pair_local[s * k + t]` = index of pair `(s, t)` *within shard
    /// `s`'s out-pair range* (the staging-buffer index the send hot path
    /// uses), or [`NO_PAIR`] when the pair has no cut edges.
    pair_local: Vec<u32>,
    /// Total directed cut slots (sum over `cross`); the partition
    /// quality signal recorded in [`crate::telemetry::EngineStats`].
    cut_slots: u64,
}

impl ShardPlan {
    pub fn new() -> ShardPlan {
        ShardPlan {
            part: Graph::from_edges(0, &[]).expect("empty graph").partition(1),
            cross: Vec::new(),
            pairs: Vec::new(),
            out_start: Vec::new(),
            in_pairs: Vec::new(),
            in_start: Vec::new(),
            pair_local: Vec::new(),
            cut_slots: 0,
        }
    }

    /// Recomputes the plan for `graph` split `k` ways, reusing buffers.
    pub fn rebuild(&mut self, graph: &Graph, k: usize) {
        let k = k.max(1);
        self.part.refit(graph, k);
        self.cross.clear();
        self.cross.resize(k * k, 0);
        // One shard has no cut: skip the O(m) sweep.
        if k > 1 {
            for s in 0..k {
                let nodes = self.part.nodes(s);
                for v in nodes.clone() {
                    for eid in graph.edge_range(v) {
                        let dst = graph.edge_target(eid);
                        if !nodes.contains(&dst) {
                            let rid = graph.reverse_edge(eid);
                            let t = self.part.shard_of_slot(rid);
                            self.cross[s * k + t] += 1;
                        }
                    }
                }
            }
        }
        // Enumerate the cut pairs src-major; everything else derives
        // from that one ordering.
        self.pairs.clear();
        self.out_start.clear();
        self.pair_local.clear();
        self.pair_local.resize(k * k, NO_PAIR);
        self.cut_slots = 0;
        for s in 0..k {
            self.out_start.push(self.pairs.len());
            for t in 0..k {
                let c = self.cross[s * k + t];
                if c > 0 {
                    debug_assert_ne!(s, t, "local slots counted as cut");
                    self.pair_local[s * k + t] = (self.pairs.len() - self.out_start[s]) as u32;
                    self.pairs.push((s as u32, t as u32));
                    self.cut_slots += c as u64;
                }
            }
        }
        self.out_start.push(self.pairs.len());
        self.in_start.clear();
        self.in_pairs.clear();
        for t in 0..k {
            self.in_start.push(self.in_pairs.len());
            for (p, &(_, dst)) in self.pairs.iter().enumerate() {
                if dst as usize == t {
                    self.in_pairs.push(p as u32);
                }
            }
        }
        self.in_start.push(self.in_pairs.len());
    }

    /// Number of shards.
    #[inline]
    pub fn k(&self) -> usize {
        self.part.k()
    }

    /// Node range of shard `s`.
    #[inline]
    pub fn nodes(&self, s: usize) -> std::ops::Range<NodeId> {
        self.part.nodes(s)
    }

    /// Slot range of shard `s`.
    #[inline]
    pub fn slots(&self, s: usize) -> std::ops::Range<EdgeId> {
        self.part.slots(s)
    }

    /// Slot boundaries for per-message destination classification.
    #[inline]
    pub fn slot_boundaries(&self) -> &[EdgeId] {
        self.part.slot_boundaries()
    }

    /// Worst-case one-round payload count from shard `s` to shard `t`.
    #[inline]
    pub fn cross_capacity(&self, s: usize, t: usize) -> usize {
        self.cross[s * self.k() + t]
    }

    /// Total number of cut pairs — the exchange's cell count.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Shard `s`'s out-pairs, as a contiguous range of pair ids.
    #[inline]
    pub fn out_pairs(&self, s: usize) -> std::ops::Range<usize> {
        self.out_start[s]..self.out_start[s + 1]
    }

    /// Shard `t`'s in-pairs (pair ids), sorted by ascending src shard.
    #[inline]
    pub fn in_pairs(&self, t: usize) -> &[u32] {
        &self.in_pairs[self.in_start[t]..self.in_start[t + 1]]
    }

    /// Source shard of pair `p`.
    #[inline]
    pub fn pair_src(&self, p: usize) -> usize {
        self.pairs[p].0 as usize
    }

    /// Shard `s`'s destination→staging-buffer lookup row (`k` entries,
    /// [`NO_PAIR`] where no cut edges exist).
    #[inline]
    pub fn pair_local(&self, s: usize) -> &[u32] {
        let k = self.k();
        &self.pair_local[s * k..(s + 1) * k]
    }

    /// Worst-case one-round payload count of pair `p`.
    #[inline]
    pub fn pair_capacity(&self, p: usize) -> usize {
        let (s, t) = self.pairs[p];
        self.cross_capacity(s as usize, t as usize)
    }

    /// Total directed cut slots under this partition (the numerator of
    /// the cut-edge fraction; the denominator is `graph.directed_m()`).
    #[inline]
    pub fn cut_slots(&self) -> u64 {
        self.cut_slots
    }

    /// Buffer capacity bookkeeping for the allocation oracle.
    pub fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.extend([
            self.cross.capacity(),
            self.pairs.capacity(),
            self.out_start.capacity(),
            self.in_pairs.capacity(),
            self.in_start.capacity(),
            self.pair_local.capacity(),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::generators;

    #[test]
    fn cross_counts_match_brute_force() {
        let g = generators::grid2d(7, 9);
        let mut plan = ShardPlan::new();
        plan.rebuild(&g, 4);
        let mut want = [0usize; 16];
        for v in 0..g.n() as u32 {
            let s = (0..4).find(|&s| plan.nodes(s).contains(&v)).unwrap();
            for eid in g.edge_range(v) {
                let rid = g.reverse_edge(eid);
                let t = (0..4).find(|&t| plan.slots(t).contains(&rid)).unwrap();
                if s != t {
                    want[s * 4 + t] += 1;
                }
            }
        }
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(
                    plan.cross_capacity(s, t),
                    want[s * 4 + t],
                    "cross[{s}][{t}]"
                );
            }
        }
        // Cross-shard traffic is symmetric in total: every undirected
        // boundary edge contributes one slot in each direction.
        let total: usize = (0..16).map(|i| plan.cross[i]).sum();
        assert_eq!(total % 2, 0);
        assert_eq!(plan.cut_slots(), total as u64);
    }

    /// The pair lists are exactly the nonzero cross entries, consistent
    /// between the out view, the in view, and the send-path lookup row.
    #[test]
    fn pair_views_are_consistent() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut r = SmallRng::seed_from_u64(9);
        for (g, k) in [
            (generators::grid2d(7, 9), 4),
            (generators::gnp(120, 0.05, &mut r), 5),
            (generators::star(40), 3),
            (generators::path(2), 8), // more shards than nodes
        ] {
            let mut plan = ShardPlan::new();
            plan.rebuild(&g, k);
            let mut seen = 0;
            for s in 0..k {
                let row = plan.pair_local(s);
                for (oi, p) in plan.out_pairs(s).enumerate() {
                    assert_eq!(plan.pair_src(p), s);
                    let (_, t) = plan.pairs[p];
                    assert!(plan.pair_capacity(p) > 0, "zero-capacity pair");
                    assert_eq!(row[t as usize] as usize, oi, "lookup row broken");
                    assert!(
                        plan.in_pairs(t as usize).contains(&(p as u32)),
                        "pair {p} missing from dst {t}'s in view"
                    );
                    seen += 1;
                }
                for (t, &entry) in row.iter().enumerate().take(k) {
                    if plan.cross_capacity(s, t) == 0 {
                        assert_eq!(entry, NO_PAIR);
                    }
                }
            }
            assert_eq!(seen, plan.pair_count());
            // In-pair lists are ascending by src (pair ids are src-major).
            for t in 0..k {
                let ins = plan.in_pairs(t);
                assert!(ins.windows(2).all(|w| w[0] < w[1]));
                for &p in ins {
                    assert_ne!(plan.pair_src(p as usize), t);
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let g1 = generators::path(64);
        let g2 = generators::cycle(64);
        let mut plan = ShardPlan::new();
        plan.rebuild(&g1, 4);
        let cap = plan.cross.capacity();
        plan.rebuild(&g2, 4);
        assert_eq!(plan.cross.capacity(), cap);
        assert_eq!(plan.k(), 4);
    }

    #[test]
    fn single_shard_has_no_cross_traffic() {
        let g = generators::complete(12);
        let mut plan = ShardPlan::new();
        plan.rebuild(&g, 1);
        assert_eq!(plan.cross_capacity(0, 0), 0);
        assert_eq!(plan.slots(0), 0..g.directed_m());
        assert_eq!(plan.pair_count(), 0);
        assert_eq!(plan.cut_slots(), 0);
        assert!(plan.in_pairs(0).is_empty());
        assert!(plan.out_pairs(0).is_empty());
    }
}
