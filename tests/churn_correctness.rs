//! Correctness of incremental MIS under churn: arbitrary edit streams
//! must leave a verified (independent AND maximal) set on the final
//! topology, bit-identically across engines, and a repair after a
//! single-edge edit must wake only the edit's 2-hop neighborhood —
//! `o(n)` by orders of magnitude at bench scale. The repair planner
//! must also equal a per-node reference planner on random edit streams.

use congest_sim::{plan_repair, RepairPlan};
use distributed_mis::prelude::*;
use mis_graphs::{AppliedBatch, NodeId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary edit sequences on gnp and regular bases, through every
    /// incremental algorithm: the maintained set always ends independent
    /// and maximal, and the sequential and sharded engines agree
    /// bit-for-bit at every thread count.
    #[test]
    fn churn_ends_maximal_and_thread_invariant(
        fam in 0u32..2,
        n in 48usize..160,
        alg_idx in 0usize..4,
        batches in 1u32..5,
        ops in 1u32..8,
        seed in 0u64..500,
    ) {
        let base = match fam {
            0 => format!("gnp:n={n},deg=6,seed=2"),
            _ => format!("regular:n={n},d=6,seed=2"),
        };
        let spec: WorkloadSpec =
            format!("edits:base={base};batches={batches};ops={ops};seed={seed}")
                .parse()
                .unwrap();
        let g = spec.build();
        let churn = spec.churn.unwrap();
        let name = incremental::names()[alg_idx];
        let alg = incremental::from_name(name).unwrap();
        let seq = run_churn_on(alg, g.clone(), churn, &RunConfig::seeded(seed)).unwrap();
        prop_assert!(seq.is_mis(), "{name} on {spec}: not an MIS after churn");
        let stats = seq.repair.expect("churn runs report repair stats");
        prop_assert_eq!(stats.batches, u64::from(batches));
        for threads in [1usize, 2, 4] {
            let par = run_churn_on(
                alg,
                g.clone(),
                churn,
                &RunConfig::seeded(seed).threads(threads),
            )
            .unwrap();
            prop_assert_eq!(&seq.in_mis, &par.in_mis, "{} @ {} threads", name, threads);
            prop_assert_eq!(&seq.metrics, &par.metrics, "{} @ {} threads", name, threads);
            prop_assert_eq!(&seq.repair, &par.repair, "{} @ {} threads", name, threads);
        }
    }
}

/// The `O(affected)` contract at bench scale: after one edge lands on a
/// fresh MIS of `G(2^16, 8/n)`, the planned wake set is contained in the
/// 2-hop neighborhood of the edit's endpoints, and the repaired set is a
/// verified MIS — no global re-run, no `Ω(n)` wakeup.
#[test]
fn single_edge_repair_wakes_only_the_edit_neighborhood() {
    let g = "gnp:n=65536,deg=8,seed=3"
        .parse::<WorkloadSpec>()
        .unwrap()
        .build();
    let n = g.n();
    let report = registry::from_name("greedy")
        .unwrap()
        .run(&g, &RunConfig::seeded(0))
        .unwrap();
    assert!(report.is_mis());
    let mut dg = DeltaGraph::new(g);

    // Join two far-apart MIS nodes: the larger endpoint gets demoted and
    // its neighborhood may need repair.
    let mis_nodes: Vec<u32> = report
        .in_mis
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i as u32))
        .collect();
    let u = mis_nodes[0];
    let v = *mis_nodes
        .iter()
        .rev()
        .find(|&&w| !dg.has_edge(u, w))
        .expect("a non-adjacent MIS pair exists");
    let mut batch = EditBatch::new();
    batch.add_edge(u, v);
    let applied = dg.apply(&batch).unwrap();

    let plan = congest_sim::plan_repair(&dg, &applied, &report.in_mis).unwrap();
    // Membership-only witness set for the containment assertions below.
    #[allow(clippy::disallowed_types)]
    let mut two_hop = std::collections::HashSet::new();
    for s in [u, v] {
        two_hop.insert(s);
        for w in dg.neighbors(s) {
            two_hop.insert(w);
            for x in dg.neighbors(w) {
                two_hop.insert(x);
            }
        }
    }
    for &w in &plan.undecided {
        assert!(
            two_hop.contains(&w),
            "undecided node {w} outside the 2-hop neighborhood of the edit"
        );
    }
    assert!(
        plan.affected() <= two_hop.len() && plan.affected() < n / 100,
        "single-edge repair woke {} of {} nodes",
        plan.affected(),
        n
    );

    // End to end through the incremental trait: the repaired set
    // verifies on the edited topology.
    let out = incremental::from_name("inc-luby")
        .unwrap()
        .repair(&dg, &applied, &report.in_mis, &RunConfig::seeded(1))
        .unwrap();
    assert_eq!(out.affected, plan.affected());
    assert!(dg.check_mis(&out.in_mis).is_mis());
}

/// Repair metrics honor the awake contract: a non-trivial repair's
/// sub-run touches only `affected` nodes, so its accumulated awake work
/// is bounded by `awake_rounds × affected` — never `n`-scaled.
#[test]
fn repair_awake_work_scales_with_affected_not_n() {
    let spec: WorkloadSpec = "edits:base=gnp:n=8192,deg=8,seed=1;batches=8;ops=4"
        .parse()
        .unwrap();
    let g = spec.build();
    let report = run_churn_on(
        incremental::from_name("inc-alg1").unwrap(),
        g,
        spec.churn.unwrap(),
        &RunConfig::seeded(2),
    )
    .unwrap();
    assert!(report.is_mis());
    let stats = report.repair.unwrap();
    assert_eq!(stats.batches, 8);
    // Every repair's subgraph is the affected set; across the run the
    // total awake node-rounds cannot exceed rounds × the largest
    // affected set (and is typically far less).
    assert!(
        stats.total_awake <= stats.awake_rounds * stats.max_affected.max(1),
        "awake work {} exceeds rounds {} × max affected {}",
        stats.total_awake,
        stats.awake_rounds,
        stats.max_affected
    );
    assert!(
        (stats.max_affected as usize) < 8192 / 8,
        "a batch of 4 edits woke {} of 8192 nodes",
        stats.max_affected
    );
}

/// The planner decided node by node, as `plan_repair` once did: the
/// oracle for its bulk retained pass. `retained[v]` is
/// `was_mis(v) && alive(v) && !demoted(v)` for every id, including ids
/// past `in_mis` (nodes the batch added).
fn reference_plan(dg: &DeltaGraph, applied: &AppliedBatch, in_mis: &[bool]) -> RepairPlan {
    let was_mis = |v: NodeId| in_mis.get(v as usize).copied().unwrap_or(false);
    let mut demoted: Vec<NodeId> = applied
        .added_edges
        .iter()
        .filter(|&&(u, v)| was_mis(u) && was_mis(v) && dg.has_edge(u, v))
        .map(|&(u, v)| u.max(v))
        .collect();
    demoted.sort_unstable();
    demoted.dedup();
    let retained: Vec<bool> = (0..dg.n() as NodeId)
        .map(|v| was_mis(v) && dg.is_alive(v) && demoted.binary_search(&v).is_err())
        .collect();
    let mut candidates = applied.touched.clone();
    for &d in &demoted {
        candidates.push(d);
        candidates.extend(dg.neighbors(d));
    }
    candidates.sort_unstable();
    candidates.dedup();
    let undecided: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&v| {
            dg.is_alive(v)
                && !retained[v as usize]
                && !dg.neighbors(v).iter().any(|&w| retained[w as usize])
        })
        .collect();
    let mut sub = GraphBuilder::new(undecided.len());
    for (local, &v) in undecided.iter().enumerate() {
        for w in dg.neighbors(v).into_iter().filter(|&w| w > v) {
            if let Ok(wl) = undecided.binary_search(&w) {
                sub.add_edge(local as NodeId, wl as NodeId);
            }
        }
    }
    RepairPlan {
        retained,
        demoted,
        undecided,
        sub: sub.build(),
    }
}

/// How many batches of a stream exercised each part of the retained
/// pass: ids past the old bitmap, removed MIS nodes, demotions.
#[derive(Debug, Default)]
struct OracleCoverage {
    grown: usize,
    mis_removed: usize,
    demoted: usize,
}

/// Drives a `ChurnStream` over `base`, checking every batch's plan
/// against [`reference_plan`] and keeping the MIS valid by a greedy
/// sub-solve merged back through the plan.
fn check_planner_against_reference(base: &str, churn: ChurnSpec) -> OracleCoverage {
    let g = base.parse::<WorkloadSpec>().unwrap().build();
    let mut in_mis = greedy_mis(&g);
    let mut dg = DeltaGraph::new(g);
    let mut stream = ChurnStream::new(churn);
    let mut seen = OracleCoverage::default();
    for b in 0..churn.batches {
        let applied = stream.next_batch(&mut dg).unwrap();
        let plan = plan_repair(&dg, &applied, &in_mis).unwrap();
        let want = reference_plan(&dg, &applied, &in_mis);
        assert_eq!(plan.retained, want.retained, "{base}, batch {b}: retained");
        assert_eq!(plan.demoted, want.demoted, "{base}, batch {b}: demoted");
        assert_eq!(
            plan.undecided, want.undecided,
            "{base}, batch {b}: undecided"
        );
        assert_eq!(plan.sub, want.sub, "{base}, batch {b}: sub");
        seen.grown += usize::from(in_mis.len() < dg.n());
        let was_mis = |v: &NodeId| in_mis.get(*v as usize) == Some(&true);
        seen.mis_removed += usize::from(applied.removed_nodes.iter().any(was_mis));
        seen.demoted += usize::from(!plan.demoted.is_empty());
        in_mis = plan.merge(&greedy_mis(&plan.sub));
        assert!(dg.check_mis(&in_mis).is_mis(), "{base}, batch {b}: merge");
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random edit streams on gnp and regular bases: every batch's plan
    /// equals the per-node reference, field by field.
    #[test]
    fn planner_matches_the_per_node_reference(
        fam in 0u32..2,
        n in 32usize..160,
        batches in 4u32..24,
        ops in 1u32..10,
        seed in 0u64..500,
    ) {
        let base = match fam {
            0 => format!("gnp:n={n},deg=6,seed={seed}"),
            _ => format!("regular:n={n},d=4,seed={seed}"),
        };
        check_planner_against_reference(&base, ChurnSpec { batches, ops, seed });
    }
}

/// A fixed stream long enough to exercise every part of the retained
/// pass, so the oracle above cannot pass vacuously: batches that add
/// nodes (the old bitmap is shorter than the id space), that remove MIS
/// nodes (only the liveness mask drops them) and that demote (only the
/// fix-up clears them).
#[test]
fn planner_oracle_covers_growth_removal_and_demotion() {
    let churn = ChurnSpec {
        batches: 60,
        ops: 6,
        seed: 4,
    };
    for base in ["gnp:n=96,deg=6,seed=1", "regular:n=96,d=4,seed=1"] {
        let seen = check_planner_against_reference(base, churn);
        assert!(
            seen.grown > 0 && seen.mis_removed > 0 && seen.demoted > 0,
            "{base}: {seen:?}"
        );
    }
}
