//! The immutable CSR graph type.

use std::fmt;

/// Identifier of a node in a [`Graph`]; always in `0..g.n()`.
pub type NodeId = u32;

/// Identifier of a *directed* edge slot in a [`Graph`]'s CSR adjacency
/// array; always in `0..g.directed_m()`.
///
/// Every undirected edge `{v, u}` owns two directed slots: `v → u` (the
/// slot holding `u` inside `v`'s adjacency list) and `u → v`. The id of
/// `v`'s `k`-th slot is [`Graph::edge_id`]`(v, k)`; the opposite slot is
/// [`Graph::reverse_edge`]. Because adjacency lists are sorted, iterating
/// a node's slot range visits neighbors in ascending id order — which is
/// what lets the CONGEST engine deliver messages into per-edge slots and
/// read them back already ordered by sender.
pub type EdgeId = usize;

/// Error raised when constructing a [`Graph`] from invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: u32,
        /// The number of nodes the graph was declared with.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(u32),
    /// The requested node count exceeds `u32` addressing.
    TooManyNodes(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range for {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::TooManyNodes(n) => write!(f, "{n} nodes exceed u32 addressing"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph in CSR (compressed sparse row) form.
///
/// Nodes are `0..n` ([`NodeId`]); adjacency lists are sorted and free of
/// duplicates and self-loops. The structure is immutable after construction,
/// which is exactly what a static network topology needs: the CONGEST
/// simulator hands out `&[NodeId]` neighbor slices with no per-round
/// allocation.
///
/// # Example
///
/// ```
/// use mis_graphs::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 3));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<NodeId>,
    /// `rev[e]` is the directed slot opposite to `e`: if `e` is the slot
    /// `v → u`, then `rev[e]` is `u → v`. Precomputed once so the
    /// simulator's per-message reverse lookup is a single array read.
    rev: Vec<EdgeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Duplicate edges (in either orientation) are merged. Edges are given
    /// as unordered pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is `>= n`, an edge is a
    /// self-loop, or `n` exceeds `u32` addressing.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Graph, GraphError> {
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes(n));
        }
        for &(a, b) in edges {
            if a as usize >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: a, n });
            }
            if b as usize >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: b, n });
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
        }
        let mut deg = vec![0usize; n];
        for &(a, b) in edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + deg[v]);
        }
        let mut adj = vec![0 as NodeId; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for &(a, b) in edges {
            adj[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        // Sort each adjacency list and drop duplicate parallel edges.
        let mut clean_adj = Vec::with_capacity(adj.len());
        let mut clean_offsets = Vec::with_capacity(n + 1);
        clean_offsets.push(0usize);
        for v in 0..n {
            let s = offsets[v];
            let e = offsets[v + 1];
            let list = &mut adj[s..e];
            list.sort_unstable();
            let mut prev: Option<NodeId> = None;
            for &u in list.iter() {
                if prev != Some(u) {
                    clean_adj.push(u);
                    prev = Some(u);
                }
            }
            clean_offsets.push(clean_adj.len());
        }
        Ok(Graph::from_sorted_rows(clean_offsets, clean_adj))
    }

    /// Builds a graph from CSR rows that are already clean: `offsets`
    /// holds `n + 1` non-decreasing entries, `v`'s row is
    /// `adj[offsets[v]..offsets[v + 1]]`, every row is strictly ascending
    /// with no self-loop, and rows are symmetric (`u` in `v`'s row iff
    /// `v` in `u`'s). Adds the reverse-edge table; every constructor
    /// builds it here.
    pub(crate) fn from_sorted_rows(offsets: Vec<usize>, adj: Vec<NodeId>) -> Graph {
        let n = offsets.len() - 1;
        debug_assert_eq!(offsets[n], adj.len());
        debug_assert!((0..n).all(|v| {
            let row = &adj[offsets[v]..offsets[v + 1]];
            row.windows(2).all(|p| p[0] < p[1]) && !row.contains(&(v as NodeId))
        }));
        // Reverse-edge table. Sweeping targets in ascending source order
        // visits each node's adjacency list front to back, so a running
        // per-node cursor yields the position of the opposite slot in
        // O(m) total.
        let mut rev = vec![0 as EdgeId; adj.len()];
        let mut seen = vec![0usize; n];
        for u in 0..n {
            for j in offsets[u]..offsets[u + 1] {
                let v = adj[j] as usize;
                rev[j] = offsets[v] + seen[v];
                seen[v] += 1;
            }
        }
        debug_assert!((0..rev.len()).all(|e| rev[rev[e]] == e));
        Graph { offsets, adj, rev }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Total number of *directed* edge slots, `2 * m`; [`EdgeId`]s are
    /// `0..directed_m()`.
    #[inline]
    pub fn directed_m(&self) -> usize {
        self.adj.len()
    }

    /// The directed slot `v → neighbors(v)[rank]`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= degree(v)`. The check is unconditional: an
    /// out-of-range rank would otherwise alias a *different node's* slot
    /// (CSR slots are contiguous), which must never fail silently.
    ///
    /// # Example
    ///
    /// ```
    /// use mis_graphs::Graph;
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// // Node 1's neighbors are [0, 2]; its slots are consecutive.
    /// assert_eq!(g.edge_id(1, 1), g.edge_id(1, 0) + 1);
    /// assert_eq!(g.edge_target(g.edge_id(1, 1)), 2);
    /// ```
    #[inline]
    pub fn edge_id(&self, v: NodeId, rank: usize) -> EdgeId {
        assert!(
            rank < self.degree(v),
            "rank {rank} out of range for node {v} of degree {}",
            self.degree(v)
        );
        self.offsets[v as usize] + rank
    }

    /// The contiguous [`EdgeId`] range of all slots out of `v`
    /// (`edge_id(v, 0)..edge_id(v, degree(v))`); iterating it visits
    /// neighbors in ascending id order.
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<EdgeId> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// CSR offset of node `v`'s first slot; accepts `v == n` (returns
    /// `directed_m`), which the partition boundary search relies on.
    #[inline]
    pub(crate) fn slot_offset(&self, v: usize) -> EdgeId {
        self.offsets[v]
    }

    /// The head (target node) of directed slot `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.adj[e]
    }

    /// The opposite directed slot: for `e = v → u`, returns `u → v`
    /// (precomputed, O(1)).
    ///
    /// # Example
    ///
    /// ```
    /// use mis_graphs::Graph;
    ///
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    /// let e = g.edge_id(1, g.neighbor_rank(1, 2).unwrap()); // 1 → 2
    /// let r = g.reverse_edge(e); // 2 → 1
    /// assert_eq!(g.edge_target(r), 1);
    /// assert_eq!(g.reverse_edge(r), e);
    /// ```
    #[inline]
    pub fn reverse_edge(&self, e: EdgeId) -> EdgeId {
        self.rev[e]
    }

    /// The rank of `u` within `v`'s sorted neighbor list (binary search),
    /// or `None` if `{v, u}` is not an edge.
    ///
    /// # Example
    ///
    /// ```
    /// use mis_graphs::Graph;
    ///
    /// let g = Graph::from_edges(4, &[(0, 1), (0, 3)]).unwrap();
    /// assert_eq!(g.neighbor_rank(0, 3), Some(1));
    /// assert_eq!(g.neighbor_rank(0, 2), None);
    /// assert_eq!(g.neighbor_rank(0, 0), None); // no self-loops
    /// ```
    pub fn neighbor_rank(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// Whether the undirected edge `{a, b}` exists (binary search on the
    /// lower-degree endpoint's list, via [`Graph::neighbor_rank`]).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (small, other) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbor_rank(small, other).is_some()
    }

    /// Maximum degree `Δ` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            (2 * self.m()) as f64 / self.n() as f64
        }
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(|v| v as NodeId)
    }

    /// Iterator over each undirected edge once, as `(a, b)` with `a < b`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            v: 0,
            i: 0,
            remaining: self.m(),
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

/// Iterator over the undirected edges of a [`Graph`]; see [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    v: usize,
    i: usize,
    /// Edges not yet yielded; each undirected edge appears exactly once in
    /// the `(a, b), a < b` orientation, so this starts at `m` and reaches
    /// 0 exactly when the scan is done — the exact-size contract.
    remaining: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let g = self.graph;
        while self.v < g.n() {
            let start = g.offsets[self.v];
            let end = g.offsets[self.v + 1];
            while self.i < end - start {
                let u = g.adj[start + self.i];
                self.i += 1;
                if (self.v as u32) < u {
                    self.remaining -= 1;
                    return Some((self.v as u32, u));
                }
            }
            self.v += 1;
            self.i = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Edges<'_> {
    fn len(&self) -> usize {
        self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::from_edges(5, &[]).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Graph::from_edges(3, &[(0, 3)]),
            Err(GraphError::EndpointOutOfRange { endpoint: 3, n: 3 })
        ));
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn edges_iterator_is_exact_size() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut it = g.edges();
        assert_eq!(it.len(), g.m());
        assert_eq!(it.size_hint(), (5, Some(5)));
        let mut seen = 0;
        while let Some(_) = it.next() {
            seen += 1;
            assert_eq!(it.len(), g.m() - seen, "len after {seen} edges");
        }
        assert_eq!(it.len(), 0);
        assert_eq!(it.size_hint(), (0, Some(0)));
        // Edgeless and empty graphs report zero without iteration.
        assert_eq!(Graph::from_edges(7, &[]).unwrap().edges().len(), 0);
        assert_eq!(Graph::from_edges(0, &[]).unwrap().edges().len(), 0);
    }

    #[test]
    fn avg_degree_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edge_ids_are_contiguous_per_node() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        for v in 0..4u32 {
            let r = g.edge_range(v);
            assert_eq!(r.len(), g.degree(v));
            for (k, e) in r.enumerate() {
                assert_eq!(e, g.edge_id(v, k));
                assert_eq!(g.edge_target(e), g.neighbors(v)[k]);
            }
        }
        assert_eq!(g.directed_m(), 2 * g.m());
    }

    #[test]
    fn reverse_edge_is_an_involution() {
        let mut edges = Vec::new();
        // A deliberately irregular graph: star + path + chords.
        for i in 1..8 {
            edges.push((0, i));
        }
        edges.extend([(1, 2), (2, 3), (3, 7), (5, 6)]);
        let g = Graph::from_edges(8, &edges).unwrap();
        for v in 0..8u32 {
            for e in g.edge_range(v) {
                let u = g.edge_target(e);
                let r = g.reverse_edge(e);
                assert_eq!(g.reverse_edge(r), e);
                assert_eq!(g.edge_target(r), v);
                assert!(g.edge_range(u).contains(&r));
            }
        }
    }

    #[test]
    fn neighbor_rank_matches_neighbor_list() {
        let g = Graph::from_edges(5, &[(0, 2), (0, 4), (1, 2)]).unwrap();
        assert_eq!(g.neighbor_rank(0, 2), Some(0));
        assert_eq!(g.neighbor_rank(0, 4), Some(1));
        assert_eq!(g.neighbor_rank(0, 1), None);
        assert_eq!(g.neighbor_rank(4, 0), Some(0));
        assert_eq!(g.neighbor_rank(3, 3), None);
    }

    #[test]
    fn debug_not_empty() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let s = format!("{g:?}");
        assert!(s.contains("Graph"));
        assert!(s.contains("n"));
    }
}
