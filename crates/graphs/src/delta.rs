//! Mutable overlay on the immutable CSR: the graph-churn substrate of
//! the incremental-MIS subsystem.
//!
//! [`Graph`] is deliberately immutable — the engine's contiguous
//! edge-slot invariants (one delivery slot per directed CSR edge) depend
//! on it. A [`DeltaGraph`] keeps that CSR as its *base* and records
//! edits ([`Edit`], batched into an [`EditBatch`]) in a sorted overlay:
//!
//! * `add_edge` / `remove_edge` go into per-endpoint overlay sets,
//! * `add_node` appends a fresh id past the base id space,
//! * `remove_node` drops every incident edge and leaves a *dead* slot —
//!   ids never shift, so MIS bitmaps stay comparable across edits,
//! * [`DeltaGraph::compact`] rebuilds the CSR from the current topology
//!   and clears the overlay, restoring the hot-path invariants; paired
//!   with [`DeltaGraph::compact_with_partition`] it also refits a
//!   [`Partition`] so shard ownership follows the touched nodes.
//!
//! Applying a batch returns an [`AppliedBatch`] — the flattened summary
//! (which nodes appeared/died, which edges toggled, every endpoint
//! touched) that the repair planner turns into the affected set.

use crate::graph::{Graph, NodeId};
use crate::partition::Partition;
use std::collections::{BTreeMap, BTreeSet};

/// One topology edit, in the order-sensitive language of an
/// [`EditBatch`]: node edits may invalidate or enable later edge edits
/// of the same batch, so batches apply strictly in sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Append a fresh isolated node; its id is the id space size at the
    /// moment the edit applies.
    AddNode,
    /// Remove a node: every incident edge is dropped and the id becomes
    /// permanently dead (ids never shift).
    RemoveNode(NodeId),
    /// Add the undirected edge `{u, v}` (both alive, not already
    /// present, no self-loop).
    AddEdge(NodeId, NodeId),
    /// Remove the undirected edge `{u, v}` (must be present).
    RemoveEdge(NodeId, NodeId),
}

/// An ordered list of [`Edit`]s applied as one unit: the granularity at
/// which the repair engine re-establishes the MIS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use = "a batch does nothing until passed to DeltaGraph::apply"]
pub struct EditBatch {
    edits: Vec<Edit>,
}

impl EditBatch {
    /// An empty batch.
    pub fn new() -> EditBatch {
        EditBatch::default()
    }

    /// Queues a node addition.
    pub fn add_node(&mut self) -> &mut EditBatch {
        self.edits.push(Edit::AddNode);
        self
    }

    /// Queues a node removal.
    pub fn remove_node(&mut self, v: NodeId) -> &mut EditBatch {
        self.edits.push(Edit::RemoveNode(v));
        self
    }

    /// Queues an edge addition.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut EditBatch {
        self.edits.push(Edit::AddEdge(u, v));
        self
    }

    /// Queues an edge removal.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> &mut EditBatch {
        self.edits.push(Edit::RemoveEdge(u, v));
        self
    }

    /// Number of queued edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// The queued edits, in application order.
    pub fn edits(&self) -> &[Edit] {
        &self.edits
    }
}

impl FromIterator<Edit> for EditBatch {
    fn from_iter<I: IntoIterator<Item = Edit>>(iter: I) -> EditBatch {
        EditBatch {
            edits: iter.into_iter().collect(),
        }
    }
}

/// Why an [`Edit`] was rejected. Application is fail-fast: edits before
/// the offending one have been applied, the offending one and everything
/// after it have not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The node id is outside the current id space.
    UnknownNode(NodeId),
    /// The node was removed earlier (dead ids never revive).
    DeadNode(NodeId),
    /// `u == v`: the substrate holds simple graphs only.
    SelfLoop(NodeId),
    /// The edge is already present.
    DuplicateEdge(NodeId, NodeId),
    /// The edge to remove is not present.
    MissingEdge(NodeId, NodeId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownNode(v) => write!(f, "edit references unknown node {v}"),
            DeltaError::DeadNode(v) => write!(f, "edit references removed node {v}"),
            DeltaError::SelfLoop(v) => write!(f, "self-loop edit on node {v}"),
            DeltaError::DuplicateEdge(u, v) => write!(f, "edge {{{u}, {v}}} already present"),
            DeltaError::MissingEdge(u, v) => write!(f, "edge {{{u}, {v}}} not present"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Flattened summary of an applied [`EditBatch`]: everything the repair
/// planner needs to bound the affected neighborhood without replaying
/// the edits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedBatch {
    /// Ids of nodes the batch created, in creation order.
    pub added_nodes: Vec<NodeId>,
    /// Ids of nodes the batch removed.
    pub removed_nodes: Vec<NodeId>,
    /// Edges the batch added (including edges to batch-new nodes).
    pub added_edges: Vec<(NodeId, NodeId)>,
    /// Edges the batch removed, including every edge dropped implicitly
    /// by a node removal.
    pub removed_edges: Vec<(NodeId, NodeId)>,
    /// Sorted, deduplicated union of every endpoint the batch touched
    /// (dead nodes included; the planner filters on liveness).
    pub touched: Vec<NodeId>,
}

impl AppliedBatch {
    /// Total number of recorded topology changes.
    pub fn changes(&self) -> usize {
        self.added_nodes.len()
            + self.removed_nodes.len()
            + self.added_edges.len()
            + self.removed_edges.len()
    }

    fn finish(&mut self) {
        let mut t: Vec<NodeId> = Vec::new();
        t.extend(&self.added_nodes);
        t.extend(&self.removed_nodes);
        for &(u, v) in self.added_edges.iter().chain(&self.removed_edges) {
            t.push(u);
            t.push(v);
        }
        t.sort_unstable();
        t.dedup();
        self.touched = t;
    }

    /// Folds another applied summary into this one (used when a batch is
    /// generated op by op against the live graph).
    // lint:allow(merge-completeness, reason = "touched is not folded field-wise; finish() rebuilds it from the four endpoint lists")
    pub fn absorb(&mut self, other: &AppliedBatch) {
        self.added_nodes.extend(&other.added_nodes);
        self.removed_nodes.extend(&other.removed_nodes);
        self.added_edges.extend(&other.added_edges);
        self.removed_edges.extend(&other.removed_edges);
        self.finish();
    }
}

/// Statistics of one [`DeltaGraph::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Size of the id space after compaction (dead ids included).
    pub nodes: usize,
    /// Live nodes.
    pub live_nodes: usize,
    /// Undirected edges in the rebuilt CSR.
    pub edges: usize,
    /// Nodes whose shard changed during the paired [`Partition::refit`]
    /// (`0` when compaction ran without a partition).
    pub moved_nodes: usize,
}

/// Verdict of the mask-aware MIS check ([`DeltaGraph::check_mis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisCheck {
    /// No two set members are adjacent, and no dead node is in the set.
    pub independent: bool,
    /// Every live node is in the set or adjacent to a member.
    pub maximal: bool,
}

impl MisCheck {
    /// Both verdicts hold.
    pub fn is_mis(&self) -> bool {
        self.independent && self.maximal
    }
}

/// A mutable graph: an immutable CSR base plus a sorted edit overlay.
///
/// All queries ([`degree`](DeltaGraph::degree),
/// [`neighbors`](DeltaGraph::neighbors),
/// [`has_edge`](DeltaGraph::has_edge)) see the *current* topology: base
/// adjacency minus removed edges plus added edges, restricted to live
/// nodes. The engine itself never runs on a `DeltaGraph`; repairs run on
/// the induced subgraph of the affected set, and full re-runs on
/// [`snapshot`](DeltaGraph::snapshot) / the post-[`compact`](DeltaGraph::compact)
/// base.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Graph,
    /// Liveness per id in `0..n`; dead ids never revive.
    alive: Vec<bool>,
    /// Number of `true` entries in `alive`.
    live: usize,
    /// Overlay-added adjacency, symmetric (`u → v` and `v → u`).
    added: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Base edges removed by the overlay, symmetric.
    removed: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Current id space size (`>= base.n()`).
    n: usize,
    /// Current undirected edge count.
    m: usize,
    /// Topology changes recorded since the last compaction.
    overlay_edits: usize,
}

impl DeltaGraph {
    /// Wraps a CSR with an empty overlay; every base node starts alive.
    pub fn new(base: Graph) -> DeltaGraph {
        let n = base.n();
        let m = base.m();
        DeltaGraph {
            base,
            alive: vec![true; n],
            live: n,
            added: BTreeMap::new(),
            removed: BTreeMap::new(),
            n,
            m,
            overlay_edits: 0,
        }
    }

    /// Current id space size (live + dead ids).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current undirected edge count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of live nodes (kept as a counter, O(1)).
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// Whether `v` is a live node of the current topology.
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.n && self.alive[v as usize]
    }

    /// Liveness of every id in `0..n()`, indexed by id: the bulk form of
    /// [`is_alive`](DeltaGraph::is_alive), for passes over the whole id
    /// space.
    pub fn liveness(&self) -> &[bool] {
        &self.alive
    }

    /// The underlying CSR (the topology as of the last compaction).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Whether the overlay holds any uncompacted edits.
    pub fn is_dirty(&self) -> bool {
        self.overlay_edits > 0
    }

    /// Number of topology changes recorded since the last compaction.
    pub fn overlay_edits(&self) -> usize {
        self.overlay_edits
    }

    /// Current degree of `v` (0 for dead or out-of-range ids).
    pub fn degree(&self, v: NodeId) -> usize {
        if !self.is_alive(v) {
            return 0;
        }
        let mut d = self.base_row(v).len();
        if let Some(rem) = self.removed.get(&v) {
            d -= rem.len();
        }
        if let Some(add) = self.added.get(&v) {
            d += add.len();
        }
        d
    }

    /// `v`'s row in the base CSR (empty for ids added since the last
    /// compaction).
    fn base_row(&self, v: NodeId) -> &[NodeId] {
        if (v as usize) < self.base.n() {
            self.base.neighbors(v)
        } else {
            &[]
        }
    }

    /// Whether the current topology has the edge `{u, v}`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.is_alive(u) || !self.is_alive(v) {
            return false;
        }
        if self.added.get(&u).is_some_and(|s| s.contains(&v)) {
            return true;
        }
        if self.removed.get(&u).is_some_and(|s| s.contains(&v)) {
            return false;
        }
        (u as usize) < self.base.n() && (v as usize) < self.base.n() && self.base.has_edge(u, v)
    }

    /// The sorted current neighbor list of `v` (empty for dead ids).
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_neighbor(v, |w| out.push(w));
        out
    }

    /// Calls `f` for every current neighbor of `v` in ascending order.
    pub fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId)) {
        if self.is_alive(v) {
            merge_row(
                self.base_row(v),
                self.removed.get(&v),
                self.added.get(&v),
                f,
            );
        }
    }

    /// Applies a batch in order, returning the flattened summary.
    ///
    /// # Errors
    ///
    /// Fail-fast [`DeltaError`] on the first invalid edit; edits before
    /// it have been applied, it and later ones have not.
    pub fn apply(&mut self, batch: &EditBatch) -> Result<AppliedBatch, DeltaError> {
        let mut applied = AppliedBatch::default();
        for &edit in batch.edits() {
            self.apply_edit(edit, &mut applied)?;
        }
        applied.finish();
        Ok(applied)
    }

    /// Applies one edit, recording it into `applied` (the caller must
    /// eventually run [`AppliedBatch::absorb`]/finish to rebuild
    /// `touched`; [`DeltaGraph::apply`] does).
    fn apply_edit(&mut self, edit: Edit, applied: &mut AppliedBatch) -> Result<(), DeltaError> {
        match edit {
            Edit::AddNode => {
                let id = self.n as NodeId;
                self.alive.push(true);
                self.live += 1;
                self.n += 1;
                self.overlay_edits += 1;
                applied.added_nodes.push(id);
            }
            Edit::RemoveNode(v) => {
                self.check_alive(v)?;
                for w in self.neighbors(v) {
                    self.unlink(v, w);
                    applied.removed_edges.push((v, w));
                }
                self.alive[v as usize] = false;
                self.live -= 1;
                self.overlay_edits += 1;
                applied.removed_nodes.push(v);
            }
            Edit::AddEdge(u, v) => {
                self.check_alive(u)?;
                self.check_alive(v)?;
                if u == v {
                    return Err(DeltaError::SelfLoop(u));
                }
                if self.has_edge(u, v) {
                    return Err(DeltaError::DuplicateEdge(u, v));
                }
                // A re-added base edge is an overlay *removal* undone;
                // anything else is an overlay addition.
                let was_base = (u as usize) < self.base.n()
                    && (v as usize) < self.base.n()
                    && self.base.has_edge(u, v);
                if was_base {
                    self.overlay_unmark(Overlay::Removed, u, v);
                } else {
                    self.overlay_mark(Overlay::Added, u, v);
                }
                self.m += 1;
                self.overlay_edits += 1;
                applied.added_edges.push((u, v));
            }
            Edit::RemoveEdge(u, v) => {
                self.check_alive(u)?;
                self.check_alive(v)?;
                if u == v {
                    return Err(DeltaError::SelfLoop(u));
                }
                if !self.has_edge(u, v) {
                    return Err(DeltaError::MissingEdge(u, v));
                }
                self.unlink(u, v);
                applied.removed_edges.push((u, v));
            }
        }
        Ok(())
    }

    fn check_alive(&self, v: NodeId) -> Result<(), DeltaError> {
        if (v as usize) >= self.n {
            Err(DeltaError::UnknownNode(v))
        } else if !self.alive[v as usize] {
            Err(DeltaError::DeadNode(v))
        } else {
            Ok(())
        }
    }

    /// Removes the (present) edge `{u, v}` from the current topology.
    fn unlink(&mut self, u: NodeId, v: NodeId) {
        if self.added.get(&u).is_some_and(|s| s.contains(&v)) {
            self.overlay_unmark(Overlay::Added, u, v);
        } else {
            self.overlay_mark(Overlay::Removed, u, v);
        }
        self.m -= 1;
        self.overlay_edits += 1;
    }

    fn overlay_mark(&mut self, which: Overlay, u: NodeId, v: NodeId) {
        let map = match which {
            Overlay::Added => &mut self.added,
            Overlay::Removed => &mut self.removed,
        };
        map.entry(u).or_default().insert(v);
        map.entry(v).or_default().insert(u);
    }

    fn overlay_unmark(&mut self, which: Overlay, u: NodeId, v: NodeId) {
        let map = match which {
            Overlay::Added => &mut self.added,
            Overlay::Removed => &mut self.removed,
        };
        for (a, b) in [(u, v), (v, u)] {
            if let Some(s) = map.get_mut(&a) {
                s.remove(&b);
                if s.is_empty() {
                    map.remove(&a);
                }
            }
        }
    }

    /// Materializes the current topology as a standalone CSR without
    /// touching the overlay. Dead ids become isolated nodes, so bitmaps
    /// indexed by the `DeltaGraph` id space apply to the snapshot
    /// unchanged.
    ///
    /// One O(n + m) pass: rows are written in id order, each the merge of
    /// its base row with its overlay sets. Both overlays are keyed by id,
    /// so their iterators step alongside the walk instead of being
    /// searched per node.
    pub fn snapshot(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut adj = Vec::with_capacity(2 * self.m);
        offsets.push(0);
        let mut added = self.added.iter().peekable();
        let mut removed = self.removed.iter().peekable();
        for v in 0..self.n as NodeId {
            let add = added.next_if(|&(&u, _)| u == v).map(|(_, s)| s);
            let rem = removed.next_if(|&(&u, _)| u == v).map(|(_, s)| s);
            if self.alive[v as usize] {
                merge_row(self.base_row(v), rem, add, |w| adj.push(w));
            }
            offsets.push(adj.len());
        }
        debug_assert!(added.next().is_none() && removed.next().is_none());
        Graph::from_sorted_rows(offsets, adj)
    }

    /// Rebuilds the base CSR from the current topology and clears the
    /// overlay, restoring the contiguous edge-slot invariants the hot
    /// engine relies on. Ids are preserved (dead ids stay as isolated
    /// nodes in the new base). `O(n + m)`: one
    /// [`snapshot`](DeltaGraph::snapshot).
    pub fn compact(&mut self) -> CompactStats {
        self.base = self.snapshot();
        self.added.clear();
        self.removed.clear();
        self.overlay_edits = 0;
        CompactStats {
            nodes: self.n,
            live_nodes: self.live_nodes(),
            edges: self.m,
            moved_nodes: 0,
        }
    }

    /// [`compact`](DeltaGraph::compact), then [`Partition::refit`]s
    /// `part` (keeping its shard count) to the rebuilt CSR so shard
    /// ownership follows the new degree distribution; reports how many
    /// nodes changed shard.
    pub fn compact_with_partition(&mut self, part: &mut Partition) -> CompactStats {
        let k = part.k();
        let before: Vec<NodeId> = part.node_boundaries().to_vec();
        let mut stats = self.compact();
        part.refit(&self.base, k);
        // Nodes whose shard changed are exactly the ids swept over by an
        // interior boundary, so the total boundary shift counts them
        // (growth past the old id space lands in the last shard).
        let after = part.node_boundaries();
        let mut moved = 0usize;
        for s in 1..k {
            let (old, new) = (before[s], after[s]);
            moved += (old.max(new) - old.min(new)) as usize;
        }
        stats.moved_nodes = moved;
        stats
    }

    /// Mask-aware MIS verification against the *current* topology: dead
    /// nodes must not be in the set (else not independent) and need not
    /// be dominated.
    pub fn check_mis(&self, in_mis: &[bool]) -> MisCheck {
        let in_set = |v: NodeId| in_mis.get(v as usize).copied().unwrap_or(false);
        let mut independent = true;
        let mut maximal = true;
        for v in 0..self.n as NodeId {
            if !self.is_alive(v) {
                if in_set(v) {
                    independent = false;
                }
                continue;
            }
            let mut dominated = in_set(v);
            self.for_each_neighbor(v, |w| {
                if in_set(w) {
                    if in_set(v) {
                        independent = false;
                    }
                    dominated = true;
                }
            });
            if !dominated {
                maximal = false;
            }
        }
        MisCheck {
            independent,
            maximal,
        }
    }
}

/// Calls `f` on `base` minus `removed` plus `added`, in ascending order:
/// one current row of the overlay. `removed` is a subset of `base` (only
/// base edges are marked removed) and `added` is disjoint from it, so
/// both sets are stepped alongside the base row.
fn merge_row(
    base: &[NodeId],
    removed: Option<&BTreeSet<NodeId>>,
    added: Option<&BTreeSet<NodeId>>,
    mut f: impl FnMut(NodeId),
) {
    let mut rem = removed.into_iter().flatten().peekable();
    let mut add = added.into_iter().flatten().copied().peekable();
    for &w in base {
        if rem.next_if_eq(&&w).is_some() {
            continue;
        }
        while let Some(a) = add.next_if(|&a| a < w) {
            f(a);
        }
        f(w);
    }
    debug_assert!(
        rem.next().is_none(),
        "removed overlay edge not in the base row"
    );
    add.for_each(f);
}

/// Which overlay map an edge mark targets.
enum Overlay {
    Added,
    Removed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::props;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn delta(g: Graph) -> DeltaGraph {
        DeltaGraph::new(g)
    }

    #[test]
    fn edge_add_remove_roundtrip() {
        let mut dg = delta(generators::path(4)); // 0-1-2-3
        assert!(dg.has_edge(1, 2));
        let mut b = EditBatch::new();
        b.remove_edge(1, 2).add_edge(0, 3);
        let applied = dg.apply(&b).unwrap();
        assert!(!dg.has_edge(1, 2));
        assert!(dg.has_edge(0, 3));
        assert_eq!(dg.m(), 3);
        assert_eq!(applied.touched, vec![0, 1, 2, 3]);
        assert_eq!(dg.neighbors(0), vec![1, 3]);
        assert_eq!(dg.degree(2), 1);
        // Undo both: back to the base topology, overlay shrinks to it.
        let mut undo = EditBatch::new();
        undo.add_edge(1, 2).remove_edge(0, 3);
        dg.apply(&undo).unwrap();
        assert_eq!(dg.snapshot(), generators::path(4));
    }

    #[test]
    fn node_lifecycle() {
        let mut dg = delta(generators::cycle(5));
        let mut b = EditBatch::new();
        b.add_node().remove_node(2);
        let applied = dg.apply(&b).unwrap();
        assert_eq!(applied.added_nodes, vec![5]);
        assert_eq!(applied.removed_nodes, vec![2]);
        assert_eq!(applied.removed_edges, vec![(2, 1), (2, 3)]);
        assert_eq!(dg.n(), 6);
        assert_eq!(dg.live_nodes(), 5);
        assert!(!dg.is_alive(2));
        assert_eq!(dg.degree(2), 0);
        assert_eq!(dg.neighbors(1), vec![0]);
        // The new node can gain edges, including to base nodes.
        let mut b2 = EditBatch::new();
        b2.add_edge(5, 0).add_edge(5, 3);
        dg.apply(&b2).unwrap();
        assert_eq!(dg.neighbors(5), vec![0, 3]);
        assert_eq!(dg.degree(0), 3);
    }

    #[test]
    fn invalid_edits_are_rejected() {
        let mut dg = delta(generators::path(3));
        let cases: Vec<(EditBatch, DeltaError)> = vec![
            (
                {
                    let mut b = EditBatch::new();
                    b.add_edge(0, 0);
                    b
                },
                DeltaError::SelfLoop(0),
            ),
            (
                {
                    let mut b = EditBatch::new();
                    b.add_edge(0, 1);
                    b
                },
                DeltaError::DuplicateEdge(0, 1),
            ),
            (
                {
                    let mut b = EditBatch::new();
                    b.remove_edge(0, 2);
                    b
                },
                DeltaError::MissingEdge(0, 2),
            ),
            (
                {
                    let mut b = EditBatch::new();
                    b.add_edge(0, 9);
                    b
                },
                DeltaError::UnknownNode(9),
            ),
            (
                {
                    let mut b = EditBatch::new();
                    b.remove_node(1).add_edge(0, 1);
                    b
                },
                DeltaError::DeadNode(1),
            ),
        ];
        for (batch, want) in cases {
            let mut fresh = dg.clone();
            assert_eq!(fresh.apply(&batch).unwrap_err(), want);
        }
        // The original is untouched by the probe clones.
        assert_eq!(dg.apply(&EditBatch::new()).unwrap().changes(), 0);
    }

    #[test]
    fn compact_preserves_topology_and_clears_overlay() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::gnp(64, 0.1, &mut rng);
        let mut dg = delta(g);
        let mut b = EditBatch::new();
        b.add_node().remove_node(10).add_edge(64, 5);
        if dg.has_edge(0, 1) {
            b.remove_edge(0, 1);
        } else {
            b.add_edge(0, 1);
        }
        dg.apply(&b).unwrap();
        let before = dg.snapshot();
        assert!(dg.is_dirty());
        let stats = dg.compact();
        assert!(!dg.is_dirty());
        assert_eq!(stats.nodes, 65);
        assert_eq!(stats.live_nodes, 64);
        assert_eq!(stats.edges, dg.m());
        assert_eq!(dg.base(), &before, "compact must preserve topology");
        assert_eq!(dg.snapshot(), before);
    }

    #[test]
    fn compact_with_partition_refits_shards() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::gnp(256, 0.05, &mut rng);
        let mut part = g.partition(4);
        let mut dg = delta(g);
        // Skew the degree distribution: hang 40 new nodes off node 0.
        let mut b = EditBatch::new();
        for _ in 0..40 {
            b.add_node();
        }
        for id in 256..296 {
            b.add_edge(0, id);
        }
        dg.apply(&b).unwrap();
        let stats = dg.compact_with_partition(&mut part);
        assert_eq!(stats.nodes, 296);
        // The refit partition is valid for the new CSR: covers all
        // nodes, boundaries monotone.
        assert_eq!(part.k(), 4);
        let covered: usize = (0..4).map(|s| part.nodes(s).len()).sum();
        assert_eq!(covered, 296);
        for v in [0u32, 100, 295] {
            let s = part.shard_of_node(v);
            assert!(part.nodes(s).contains(&v));
        }
    }

    #[test]
    fn check_mis_tracks_the_current_topology() {
        let mut dg = delta(generators::path(4)); // 0-1-2-3
        let mis = vec![true, false, true, false];
        assert!(dg.check_mis(&mis).is_mis());
        // Adding 0-2 breaks independence of {0, 2}.
        let mut b = EditBatch::new();
        b.add_edge(0, 2);
        dg.apply(&b).unwrap();
        let c = dg.check_mis(&mis);
        assert!(!c.independent && c.maximal);
        // Removing node 2 orphans node 3 (its only dominator is gone).
        let mut b = EditBatch::new();
        b.remove_node(2);
        dg.apply(&b).unwrap();
        let c = dg.check_mis(&[true, false, false, false]);
        assert!(c.independent && !c.maximal);
        // A dead node in the set is flagged.
        let c = dg.check_mis(&[true, false, true, true]);
        assert!(!c.independent);
    }

    /// `Graph::from_edges` over the overlay's neighbor lists: the
    /// reference CSR of the current topology.
    fn rebuilt(dg: &DeltaGraph) -> Graph {
        let mut edges = Vec::new();
        for v in 0..dg.n() as NodeId {
            dg.for_each_neighbor(v, |w| {
                if v < w {
                    edges.push((v, w));
                }
            });
        }
        Graph::from_edges(dg.n(), &edges).unwrap()
    }

    /// Random edit storms. After every batch the live counter equals a
    /// recount, the overlay's edges equal an edge set kept beside it, and
    /// the snapshot — and, at each compaction, the new base — equals the
    /// reference CSR `rebuilt` (offsets, adjacency and reverse-edge table
    /// alike). Compactions see dead ids and ids past the old base.
    #[test]
    fn overlay_matches_rebuilt_graph_under_random_churn() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = generators::gnp(48, 0.12, &mut rng);
        let mut model: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
        let mut dg = delta(g);
        let (mut compacted_dead, mut compacted_new) = (false, false);
        for round in 0..30 {
            // Draw edits one at a time against a probe copy and keep those
            // that apply, so every batch lands with all four kinds mixed.
            let mut probe = dg.clone();
            let mut edits = Vec::new();
            for _ in 0..6 {
                let n = probe.n() as NodeId;
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                let edit = match rng.gen_range(0..4u32) {
                    0 => Edit::AddNode,
                    1 => Edit::RemoveNode(u),
                    2 => Edit::AddEdge(u, v),
                    _ => match probe.neighbors(u)[..] {
                        [] => Edit::RemoveEdge(u, v),
                        ref nbrs => Edit::RemoveEdge(u, nbrs[v as usize % nbrs.len()]),
                    },
                };
                if probe.apply(&std::iter::once(edit).collect()).is_err() {
                    continue;
                }
                edits.push(edit);
                match edit {
                    Edit::AddNode => {}
                    Edit::RemoveNode(x) => model.retain(|&(a, b)| a != x && b != x),
                    Edit::AddEdge(a, b) => {
                        model.insert((a.min(b), a.max(b)));
                    }
                    Edit::RemoveEdge(a, b) => {
                        model.remove(&(a.min(b), a.max(b)));
                    }
                }
            }
            dg.apply(&edits.into_iter().collect()).unwrap();
            let live = (0..dg.n() as NodeId).filter(|&v| dg.is_alive(v)).count();
            assert_eq!(dg.live_nodes(), live, "round {round}");
            let want = rebuilt(&dg);
            assert_eq!(
                want.edges().collect::<BTreeSet<_>>(),
                model,
                "round {round}"
            );
            assert_eq!(dg.m(), model.len(), "round {round}");
            assert_eq!(dg.snapshot(), want, "round {round}");
            if round % 10 == 9 {
                compacted_dead |= live < dg.n();
                compacted_new |= dg.n() > dg.base().n();
                dg.compact();
                assert_eq!(dg.base(), &want, "round {round}");
                assert_eq!(dg.snapshot(), want, "round {round}");
                assert_eq!(dg.live_nodes(), live, "round {round}");
            }
        }
        assert!(compacted_dead && compacted_new);
        // Dead nodes never hold edges; live subgraph is consistent.
        let snap = dg.snapshot();
        let comps = props::connected_components(&snap);
        assert!(comps.count >= 1);
    }
}
