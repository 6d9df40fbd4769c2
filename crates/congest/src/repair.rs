//! The repair planner: from a valid MIS and an applied edit batch to the
//! exact neighborhood that must wake.
//!
//! The sleeping model makes MIS maintenance cheap: after an edit batch,
//! only nodes whose MIS status is actually in question need to wake;
//! everyone else keeps sleeping at zero awake cost. [`plan_repair`]
//! computes that set *before* any simulation. The costs, per batch:
//!
//! * **Awake work** is `O(affected)`: only the planned set wakes.
//! * **Host work** is `O(Σ degree)` over the edited neighborhood plus
//!   one bulk pass over the `n`-entry MIS bitmap: the retained set
//!   (step 2) is an element-wise AND, and the owned full-size result of
//!   [`RepairPlan::merge`] is a copy of it. No per-node branch runs over
//!   the id space.
//! * **Compaction** of the delta overlay ([`DeltaGraph::compact`]) is
//!   `O(n + m)`, and `mis_runner::run_churn_on` runs it once per `n/16`
//!   overlay edits.
//!
//! The plan itself:
//!
//! 1. **Demotions.** For every added edge joining two MIS nodes, the
//!    larger id is demoted.
//! 2. **Retained set.** Old MIS minus removed nodes minus demotions: an
//!    element-wise AND of the bitmap with the liveness mask, then the
//!    demoted ids cleared. It is provably independent in the new topology:
//!    an edge between two retained nodes is either an old edge (between
//!    two old-MIS nodes — impossible) or an added edge (whose larger
//!    endpoint was demoted — contradiction).
//! 3. **Undecided set `U`.** New nodes, demoted nodes, and nodes touched
//!    by the batch (edge endpoints, former neighbors of removed nodes,
//!    neighbors of demoted nodes) that are alive, not retained, and not
//!    dominated by a retained node. Every undominated live node lands in
//!    `U`: it was dominated before the batch (old MIS maximal), and each
//!    way of losing a dominator — dominator removed, the connecting edge
//!    removed, dominator demoted — puts the node in the candidate set.
//!    `U` therefore sits within one hop of the edit endpoints.
//! 4. **The awake subgraph.** The repair run executes an MIS protocol on
//!    the induced subgraph `G'[U]` through the ordinary calendar
//!    scheduler — exactly the affected neighborhood wakes, and the
//!    engine's determinism contract (bit-identical across thread counts)
//!    carries over unchanged. [`RepairPlan::merge`] unions the
//!    sub-result back into the retained set; the union is independent
//!    (retained ∪ sub-MIS, no `U` node has a retained neighbor) and
//!    maximal (every live node is retained, dominated by a retained
//!    node, or in `U` — where the sub-MIS decides it).

use crate::error::SimError;
use mis_graphs::{AppliedBatch, DeltaGraph, Graph, GraphBuilder, NodeId};

/// The pre-computed shape of one repair: who stays, who must re-decide,
/// and the induced subgraph the awake protocol runs on.
#[derive(Debug, Clone)]
pub struct RepairPlan {
    /// `retained[v]`: v was in the old MIS and provably stays in it.
    pub retained: Vec<bool>,
    /// Old-MIS nodes evicted because an added edge joined them to a
    /// smaller-id MIS node (sorted).
    pub demoted: Vec<NodeId>,
    /// The affected set, sorted: local node `i` of [`RepairPlan::sub`]
    /// is global node `undecided[i]`.
    pub undecided: Vec<NodeId>,
    /// Induced subgraph of the current topology on `undecided`.
    pub sub: Graph,
}

impl RepairPlan {
    /// Size of the affected set.
    pub fn affected(&self) -> usize {
        self.undecided.len()
    }

    /// Whether no node needs to wake (the retained set is already a
    /// valid MIS of the new topology).
    pub fn is_trivial(&self) -> bool {
        self.undecided.is_empty()
    }

    /// Unions the sub-run's MIS (indexed by local sub-node id) into the
    /// retained set, yielding the repaired full-graph bitmap.
    ///
    /// # Panics
    ///
    /// Panics if `sub_mis` is not sized to the plan's subgraph.
    pub fn merge(&self, sub_mis: &[bool]) -> Vec<bool> {
        assert_eq!(
            sub_mis.len(),
            self.undecided.len(),
            "sub-MIS bitmap does not match the repair plan"
        );
        let mut full = self.retained.clone();
        for (local, &global) in self.undecided.iter().enumerate() {
            if sub_mis[local] {
                full[global as usize] = true;
            }
        }
        full
    }
}

/// Plans the repair of `in_mis` (a valid MIS of the pre-batch topology,
/// indexed by pre-batch ids) after `applied` edits on `dg`.
///
/// Runs in `O(Σ degree)` over the edited neighborhood plus one bulk
/// pass over the `n`-entry bitmap (the retained set, which
/// [`RepairPlan::merge`] copies into its owned result), and performs no
/// simulation; feed [`RepairPlan::sub`] to any MIS protocol and
/// [`RepairPlan::merge`] the result.
///
/// # Errors
///
/// [`SimError::InvalidInput`] when `in_mis` is longer than the graph's
/// id space (it cannot describe a pre-batch MIS of this graph).
pub fn plan_repair(
    dg: &DeltaGraph,
    applied: &AppliedBatch,
    in_mis: &[bool],
) -> Result<RepairPlan, SimError> {
    let n = dg.n();
    if in_mis.len() > n {
        return Err(SimError::invalid_input(format!(
            "MIS bitmap has {} entries but the graph id space is {n}",
            in_mis.len()
        )));
    }
    let was_mis = |v: NodeId| in_mis.get(v as usize).copied().unwrap_or(false);

    // 1. Demotions: larger endpoint of every still-present added edge
    // joining two old-MIS nodes.
    let mut demoted_set: Vec<NodeId> = Vec::new();
    for &(u, v) in &applied.added_edges {
        if was_mis(u) && was_mis(v) && dg.has_edge(u, v) {
            demoted_set.push(u.max(v));
        }
    }
    demoted_set.sort_unstable();
    demoted_set.dedup();

    // 2. Retained = old MIS ∩ alive − demoted: one element-wise AND of
    // the bitmap with the liveness mask (ids past `in_mis` are new this
    // batch, never in the old MIS), then the demotions cleared.
    let mut retained = Vec::with_capacity(n);
    retained.extend(in_mis.iter().zip(dg.liveness()).map(|(&m, &a)| m & a));
    retained.resize(n, false);
    for &d in &demoted_set {
        retained[d as usize] = false;
    }

    // 3. Candidates: touched endpoints ∪ demoted ∪ N(demoted).
    let mut candidates: Vec<NodeId> = applied.touched.clone();
    for &d in &demoted_set {
        candidates.push(d);
        dg.for_each_neighbor(d, |w| candidates.push(w));
    }
    candidates.sort_unstable();
    candidates.dedup();

    // 4. Undecided: alive, not retained, no retained neighbor.
    let mut undecided: Vec<NodeId> = Vec::new();
    for &v in &candidates {
        if !dg.is_alive(v) || retained[v as usize] {
            continue;
        }
        let mut dominated = false;
        dg.for_each_neighbor(v, |w| dominated |= retained[w as usize]);
        if !dominated {
            undecided.push(v);
        }
    }

    // 5. Induced subgraph on the undecided set (sorted ⇒ locals are the
    // rank of their global id).
    let mut b = GraphBuilder::new(undecided.len());
    for (local, &v) in undecided.iter().enumerate() {
        dg.for_each_neighbor(v, |w| {
            if w > v {
                if let Ok(wl) = undecided.binary_search(&w) {
                    b.add_edge(local as NodeId, wl as NodeId);
                }
            }
        });
    }

    Ok(RepairPlan {
        retained,
        demoted: demoted_set,
        undecided,
        sub: b.build(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::{generators, EditBatch};

    /// Greedy MIS used as the "old" MIS oracle in tests.
    fn greedy(dg: &DeltaGraph) -> Vec<bool> {
        let mut in_mis = vec![false; dg.n()];
        for v in 0..dg.n() as NodeId {
            if !dg.is_alive(v) {
                continue;
            }
            let mut blocked = false;
            dg.for_each_neighbor(v, |w| blocked |= in_mis[w as usize]);
            if !blocked {
                in_mis[v as usize] = true;
            }
        }
        in_mis
    }

    #[test]
    fn added_edge_between_mis_nodes_demotes_the_larger() {
        // Path 0-1-2-3 with MIS {0, 2}: adding 0-2 demotes 2, which the
        // new edge leaves dominated by retained 0 — only node 3 (whose
        // dominator 2 fell out) must re-decide.
        let mut dg = DeltaGraph::new(generators::path(4));
        let old = vec![true, false, true, false];
        let mut b = EditBatch::new();
        b.add_edge(0, 2);
        let applied = dg.apply(&b).unwrap();
        let plan = plan_repair(&dg, &applied, &old).unwrap();
        assert_eq!(plan.demoted, vec![2]);
        assert_eq!(plan.undecided, vec![3]);
        assert_eq!(plan.sub.n(), 1);
        assert_eq!(plan.sub.m(), 0);
        let repaired = plan.merge(&[true]);
        assert_eq!(repaired, vec![true, false, false, true]);
        assert!(dg.check_mis(&repaired).is_mis());
        // Leaving node 3 out would break maximality — the planner's U
        // really is the set whose decision matters.
        assert!(!dg.check_mis(&plan.merge(&[false])).is_mis());
    }

    #[test]
    fn removed_dominator_orphans_its_neighbors() {
        // Star center 0 in MIS; removing it leaves every leaf undecided.
        let g = generators::star(5); // 0 is the hub
        let mut dg = DeltaGraph::new(g);
        let mut old = vec![false; 5];
        old[0] = true;
        let mut b = EditBatch::new();
        b.remove_node(0);
        let applied = dg.apply(&b).unwrap();
        let plan = plan_repair(&dg, &applied, &old).unwrap();
        assert_eq!(plan.demoted, Vec::<NodeId>::new());
        assert_eq!(plan.undecided, vec![1, 2, 3, 4]);
        assert_eq!(plan.sub.m(), 0, "leaves are mutually non-adjacent");
        let repaired = plan.merge(&[true, true, true, true]);
        assert!(dg.check_mis(&repaired).is_mis());
    }

    #[test]
    fn unaffected_regions_never_wake() {
        // Long path; an edit at one end must not touch the far end.
        let mut dg = DeltaGraph::new(generators::path(101));
        let old = greedy(&dg);
        let mut b = EditBatch::new();
        b.remove_edge(0, 1);
        let applied = dg.apply(&b).unwrap();
        let plan = plan_repair(&dg, &applied, &old).unwrap();
        assert!(plan.affected() <= 2, "affected = {:?}", plan.undecided);
        for &v in &plan.undecided {
            assert!(v <= 2, "node {v} is far from the edit");
        }
    }

    #[test]
    fn trivial_plan_when_retained_set_still_covers() {
        // Removing a non-MIS node with other dominators needs no wakeup.
        let mut dg = DeltaGraph::new(generators::cycle(6));
        let old = vec![true, false, true, false, true, false];
        let mut b = EditBatch::new();
        b.remove_node(1); // 1 was dominated by 0 and 2; nothing orphaned
        let applied = dg.apply(&b).unwrap();
        let plan = plan_repair(&dg, &applied, &old).unwrap();
        assert!(plan.is_trivial());
        let repaired = plan.merge(&[]);
        assert!(dg.check_mis(&repaired).is_mis());
    }

    #[test]
    fn new_nodes_enter_the_undecided_set() {
        let mut dg = DeltaGraph::new(generators::path(2));
        let old = vec![true, false];
        let mut b = EditBatch::new();
        b.add_node().add_edge(2, 1);
        let applied = dg.apply(&b).unwrap();
        let plan = plan_repair(&dg, &applied, &old).unwrap();
        // Node 1 is dominated by retained 0; new node 2 must decide.
        assert_eq!(plan.undecided, vec![2]);
        let repaired = plan.merge(&[true]);
        assert!(dg.check_mis(&repaired).is_mis());
    }

    #[test]
    fn oversized_bitmap_is_rejected() {
        let dg = DeltaGraph::new(generators::path(2));
        let err = plan_repair(&dg, &AppliedBatch::default(), &[true, false, true]).unwrap_err();
        assert!(matches!(err, SimError::InvalidInput { .. }), "{err}");
    }
}
