//! Deterministic Borůvka-style cluster merging (Lemma 2.8).
//!
//! Starting from the Phase II clustering (many clusters of diameter
//! `O(log log n)` per shattered component), each iteration merges every
//! cluster with at least one other cluster, so `O(log log n)` iterations
//! leave one cluster — and one rooted spanning tree of depth `O(log n)` —
//! per component:
//!
//! 1. every cluster picks the incident edge to the **minimum-id neighbor
//!    cluster** (ties broken by global edge id, so reciprocal choices
//!    coincide on the same edge → the set `M`),
//! 2. clusters chosen by `>= 10` others are **high-indegree**: they drop
//!    their own pick and accept all incoming edges (`E_H`),
//! 3. the remaining low-indegree cluster graph `H_L` (degree `<= 10`) is
//!    colored with Linial's algorithm and a **maximal matching** `M_L` is
//!    built color class by color class,
//! 4. leftover unmatched clusters attach to a matched out-neighbor (`R`),
//! 5. merges `M`, `E_H`, `M_L`, `R` execute as sequential star-shaped
//!    re-rootings.
//!
//! Every communication step below runs as a real protocol on the
//! simulator (tree broadcast/convergecast at `O(1)` awake rounds per node,
//! single-round port exchanges), so the time/energy metrics are measured,
//! not estimated. The decisions that the paper computes at cluster roots
//! are mirrored by the orchestrator from the same information and
//! cross-checked against the protocol outputs where they surface.

use crate::cluster::coloring;
use crate::cluster::tree::{Broadcast, Convergecast, RerootDown, RerootUp, RerootVal};
use crate::cluster::ClusterForest;
use congest_sim::{
    Inbox, InitApi, Message, NodeId, Pipeline, Protocol, RecvApi, SendApi, SimError,
};

/// Coloring mode for the matching step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinialMode {
    /// A fixed number of Linial rounds (Algorithm 1 uses 2, giving
    /// `O(∆² log log n)` colors).
    Rounds(u32),
    /// Run Linial to its `O(1)`-color fixed point (`O(log* n)` rounds,
    /// Algorithm 2), optionally followed by Kuhn–Wattenhofer reduction to
    /// `high_indegree + 1` colors.
    FixedPoint {
        /// Apply the KW block reduction afterwards.
        kw: bool,
    },
}

/// Configuration of the merge loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConfig {
    /// Indegree threshold for "high" clusters (paper: 10).
    pub high_indegree: u32,
    /// Coloring mode.
    pub linial: LinialMode,
    /// Remap colors to a dense range before the color-class loop
    /// (simulation convenience; DESIGN.md §7).
    pub compact_colors: bool,
    /// Borůvka iterations to run.
    pub iterations: u32,
    /// Stop once no cluster has a foreign neighbor.
    pub early_stop: bool,
}

impl Default for MergeConfig {
    fn default() -> MergeConfig {
        MergeConfig {
            high_indegree: 10,
            linial: LinialMode::Rounds(2),
            compact_colors: true,
            iterations: 8,
            early_stop: true,
        }
    }
}

/// Statistics reported by [`merge_clusters`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Iterations actually executed.
    pub iterations_run: u32,
    /// Cluster count after each iteration.
    pub clusters_after: Vec<usize>,
    /// Maximum tree depth after the final iteration.
    pub final_max_depth: u32,
}

/// A list of `u32` values as a CONGEST message (length-prefixed).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct U32List(pub Vec<u32>);

impl Message for U32List {
    fn bits(&self) -> usize {
        8 + self.0.iter().map(Message::bits).sum::<usize>()
    }
}

/// One-round announcement of cluster ids to all neighbors.
#[derive(Debug)]
struct AnnounceIds<'a> {
    forest: &'a ClusterForest,
}

impl Protocol for AnnounceIds<'_> {
    type State = Vec<(NodeId, u32)>;
    type Msg = u32;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Self::State {
        if self.forest.participating[node as usize] {
            api.wake_at(0);
        }
        Vec::new()
    }

    fn send(&self, _state: &mut Self::State, api: &mut SendApi<'_, u32>) {
        api.broadcast(self.forest.cluster[api.node() as usize]);
    }

    fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
        state.extend(inbox.iter().map(|(src, &id)| (src, id)));
    }
}

/// One-round directed exchange: `sends[v]` lists `(dst, payload)` pairs;
/// `listen[v]` nodes wake to receive even if they send nothing.
#[derive(Debug)]
struct PortRound<'a, V: Message> {
    listen: &'a [bool],
    sends: &'a [Vec<(NodeId, V)>],
}

impl<V: Message> Protocol for PortRound<'_, V> {
    type State = Vec<(NodeId, V)>;
    type Msg = V;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Self::State {
        if self.listen[node as usize] || !self.sends[node as usize].is_empty() {
            api.wake_at(0);
        }
        Vec::new()
    }

    fn send(&self, _state: &mut Self::State, api: &mut SendApi<'_, V>) {
        for (dst, msg) in &self.sends[api.node() as usize] {
            api.send(*dst, msg.clone());
        }
    }

    fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, V>, _api: &mut RecvApi<'_>) {
        state.extend(inbox.iter().map(|(src, val)| (src, val.clone())));
    }
}

/// The chosen outgoing edge of a cluster: `(target cluster, edge key)`.
type ChosenEdge = (u32, (u32, u32));

/// Per-cluster knowledge assembled during one iteration (the information
/// the paper keeps at cluster roots).
#[derive(Debug, Clone)]
struct ClusterInfo {
    reciprocal: bool,
    is_high: bool,
    eh_leaf: bool,
    hl_in: Vec<u32>,
    hl_out: Option<u32>,
    color: u64,
}

/// Runs the Borůvka merge loop on `forest`, charging all communication to
/// `pipe`.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn merge_clusters(
    pipe: &mut Pipeline<'_, '_>,
    mut forest: ClusterForest,
    cfg: &MergeConfig,
) -> Result<(ClusterForest, MergeStats), SimError> {
    let mut stats = MergeStats::default();
    for _ in 0..cfg.iterations {
        let done = merge_iteration(pipe, &mut forest, cfg)?;
        stats.iterations_run += 1;
        stats.clusters_after.push(forest.cluster_count());
        if done && cfg.early_stop {
            break;
        }
    }
    stats.final_max_depth = forest.max_depth();
    Ok((forest, stats))
}

fn depth_cap(forest: &ClusterForest) -> u32 {
    forest.max_depth() + 1
}

/// Edge key normalization: `(min, max)` endpoint pair.
fn ekey(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.min(b), a.max(b))
}

fn merge_iteration(
    pipe: &mut Pipeline<'_, '_>,
    forest: &mut ClusterForest,
    cfg: &MergeConfig,
) -> Result<bool, SimError> {
    let n = forest.n();
    let g = pipe.graph();
    let active: Vec<bool> = forest.participating.clone();

    // ---- Step 1: exchange cluster ids (1 round, everyone awake). ----
    let heard = pipe.run_phase("merge:ids", &AnnounceIds { forest })?;

    // Per-node candidate: minimum foreign cluster, tie-broken by edge id.
    let mut candidate: Vec<Option<ChosenEdge>> = vec![None; n];
    for v in 0..n as u32 {
        if !active[v as usize] {
            continue;
        }
        let mine = forest.cluster[v as usize];
        candidate[v as usize] = heard[v as usize]
            .iter()
            .filter(|(_, c)| *c != mine)
            .map(|&(u, c)| (c, ekey(v, u)))
            .min();
    }

    // ---- Step 2+3: convergecast the minimum, broadcast the choice. ----
    let cap = depth_cap(forest);
    let cvc = pipe.run_phase(
        "merge:choose-cvc",
        &Convergecast {
            forest,
            active: &active,
            depth_cap: cap,
            input: &candidate,
            combine: |a: ChosenEdge, b: ChosenEdge| a.min(b),
        },
    )?;
    let mut root_choice: Vec<Option<ChosenEdge>> = vec![None; n];
    let mut chosen_by_cluster: std::collections::BTreeMap<u32, ChosenEdge> =
        std::collections::BTreeMap::new();
    for r in forest.roots() {
        root_choice[r as usize] = cvc[r as usize].acc;
        if let Some(ch) = cvc[r as usize].acc {
            chosen_by_cluster.insert(r, ch);
        }
    }
    if chosen_by_cluster.is_empty() {
        // Every cluster spans a full component: nothing to merge.
        return Ok(true);
    }
    let bc_choice = pipe.run_phase(
        "merge:choose-bc",
        &Broadcast {
            forest,
            active: &active,
            depth_cap: cap,
            input: &root_choice,
        },
    )?;

    // Port of each cluster: the node that owns the chosen edge endpoint.
    // (bc_choice[v] mirrors what each member heard from its root.)
    let port_of = |cluster: u32| -> Option<(NodeId, NodeId)> {
        chosen_by_cluster.get(&cluster).map(|&(_, (a, b))| {
            if forest.cluster[a as usize] == cluster && forest.participating[a as usize] {
                (a, b)
            } else {
                (b, a)
            }
        })
    };
    debug_assert!(forest.roots().iter().all(|&r| {
        bc_choice[r as usize]
            .value
            .unwrap_or(root_choice[r as usize].unwrap_or((0, (0, 0))))
            == root_choice[r as usize].unwrap_or((0, (0, 0)))
    }));

    // ---- Step 4: port announcement round (everyone listens). ----
    let mut sends_a: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n];
    for (&c, _) in chosen_by_cluster.iter() {
        if let Some((v, w)) = port_of(c) {
            sends_a[v as usize].push((w, c));
        }
    }
    let heard_a = pipe.run_phase(
        "merge:ports",
        &PortRound {
            listen: &active,
            sends: &sends_a,
        },
    )?;

    // Reciprocal (set M) detection + per-node incoming lists.
    let incoming: Vec<Vec<(NodeId, u32)>> = heard_a;
    let mut reciprocal: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for (&c, &(t, key)) in chosen_by_cluster.iter() {
        if let Some(&(t2, key2)) = chosen_by_cluster.get(&t) {
            if t2 == c && key2 == key {
                reciprocal.insert(c);
            }
        }
    }

    // ---- Step 5: indegree convergecast (count, m-flag). ----
    let mut deg_input: Vec<Option<(u32, bool)>> = vec![None; n];
    for v in 0..n as u32 {
        if !active[v as usize] {
            continue;
        }
        let c = forest.cluster[v as usize];
        let cnt = incoming[v as usize]
            .iter()
            .filter(|(_, src_c)| {
                // Exclude the reciprocal (M) edge: it is "set aside".
                !(reciprocal.contains(&c)
                    && reciprocal.contains(src_c)
                    && chosen_by_cluster.get(&c).map(|&(t, _)| t) == Some(*src_c))
            })
            .count() as u32;
        let m_flag = reciprocal.contains(&c) && port_of(c).is_some_and(|(p, _)| p == v);
        if cnt > 0 || m_flag {
            deg_input[v as usize] = Some((cnt, m_flag));
        }
    }
    let deg_cvc = pipe.run_phase(
        "merge:indegree-cvc",
        &Convergecast {
            forest,
            active: &active,
            depth_cap: cap,
            input: &deg_input,
            combine: |a: (u32, bool), b: (u32, bool)| (a.0 + b.0, a.1 | b.1),
        },
    )?;

    // Cluster flags from the convergecast results.
    let mut is_high: std::collections::BTreeMap<u32, bool> = std::collections::BTreeMap::new();
    for r in forest.roots() {
        let (indeg, _m) = deg_cvc[r as usize].acc.unwrap_or((0, false));
        is_high.insert(r, indeg >= cfg.high_indegree);
    }
    let mut plan_input: Vec<Option<(bool, bool)>> = vec![None; n];
    for r in forest.roots() {
        plan_input[r as usize] = Some((is_high[&r], reciprocal.contains(&r)));
    }
    pipe.run_phase(
        "merge:plan-bc",
        &Broadcast {
            forest,
            active: &active,
            depth_cap: cap,
            input: &plan_input,
        },
    )?;

    // ---- Step 6: flag exchange across chosen edges. ----
    let mut sends_b: Vec<Vec<(NodeId, (u32, u32))>> = vec![Vec::new(); n];
    let mut edge_listen = vec![false; n];
    let flags_of =
        |c: u32| -> u32 { u32::from(is_high[&c]) | (u32::from(reciprocal.contains(&c)) << 1) };
    for (&c, _) in chosen_by_cluster.iter() {
        if let Some((v, w)) = port_of(c) {
            sends_b[v as usize].push((w, (c, flags_of(c))));
            edge_listen[v as usize] = true;
            edge_listen[w as usize] = true;
        }
    }
    for v in 0..n {
        for &(src, _) in &incoming[v] {
            let mine = forest.cluster[v];
            sends_b[v].push((src, (mine, flags_of(mine))));
            edge_listen[src as usize] = true;
        }
    }
    // A node can be both a port towards w and the handler of w's incoming
    // choice (reciprocal edge): CONGEST allows one message per edge per
    // round, and the payload is identical, so merge duplicates.
    for sends in sends_b.iter_mut() {
        sends.sort_by_key(|(dst, _)| *dst);
        sends.dedup_by_key(|(dst, _)| *dst);
    }
    pipe.run_phase(
        "merge:flags",
        &PortRound {
            listen: &edge_listen,
            sends: &sends_b,
        },
    )?;

    // ---- Step 7: assemble per-cluster knowledge (HL adjacency). ----
    let mut info: std::collections::BTreeMap<u32, ClusterInfo> = std::collections::BTreeMap::new();
    for r in forest.roots() {
        let m = reciprocal.contains(&r);
        let high = is_high[&r];
        let out_target = chosen_by_cluster.get(&r).map(|&(t, _)| t);
        let eh_leaf = !high && !m && out_target.is_some_and(|t| is_high[&t]);
        let hl_out =
            (!high && !m && out_target.is_some_and(|t| !is_high[&t])).then(|| out_target.unwrap());
        info.insert(
            r,
            ClusterInfo {
                reciprocal: m,
                is_high: high,
                eh_leaf,
                hl_in: Vec::new(),
                hl_out,
                color: u64::from(r),
            },
        );
    }
    // hl_in: clusters whose chosen edge targets r, both low, not M.
    for (&c, &(t, _)) in chosen_by_cluster.iter() {
        if reciprocal.contains(&c) && reciprocal.contains(&t) {
            continue; // M edge
        }
        if !is_high[&c] && !is_high[&t] {
            if let Some(ci) = info.get_mut(&t) {
                ci.hl_in.push(c);
            }
        }
    }
    // Charge the HL-list convergecast (ports push their lists up).
    let mut hl_input: Vec<Option<U32List>> = vec![None; n];
    for v in 0..n {
        if !active[v] {
            continue;
        }
        let mine = forest.cluster[v];
        if is_high[&mine] {
            continue;
        }
        let ins: Vec<u32> = incoming[v]
            .iter()
            .filter(|(_, sc)| {
                !(is_high[sc] || (reciprocal.contains(sc) && reciprocal.contains(&mine)))
            })
            .map(|(_, sc)| *sc)
            .collect();
        if !ins.is_empty() {
            hl_input[v] = Some(U32List(ins));
        }
    }
    pipe.run_phase(
        "merge:hl-cvc",
        &Convergecast {
            forest,
            active: &active,
            depth_cap: cap,
            input: &hl_input,
            combine: |mut a: U32List, b: U32List| {
                a.0.extend(b.0);
                a
            },
        },
    )?;

    // ---- Step 8: color the low-indegree cluster graph H_L. ----
    let low_roots: Vec<u32> = info
        .iter()
        .filter(|(_, ci)| !ci.is_high)
        .map(|(&r, _)| r)
        .collect();
    let hl_delta = u64::from(cfg.high_indegree);
    let mut palette = n.max(2) as u64;
    let linial_rounds = match cfg.linial {
        LinialMode::Rounds(r) => r,
        LinialMode::FixedPoint { .. } => coloring::linial_rounds_to_fixed_point(palette, hl_delta),
    };
    let mut low_mask = vec![false; n];
    for v in 0..n {
        if active[v] && !is_high[&forest.cluster[v]] {
            low_mask[v] = true;
        }
    }
    // HL edge endpoints (for the port exchanges).
    let mut hl_ports: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n]; // (other node, other cluster)
    for (&c, &(t, (a, b))) in chosen_by_cluster.iter() {
        if reciprocal.contains(&c) && reciprocal.contains(&t) {
            continue;
        }
        if is_high[&c] || is_high[&t] {
            continue;
        }
        let (v, w) = if forest.cluster[a as usize] == c {
            (a, b)
        } else {
            (b, a)
        };
        hl_ports[v as usize].push((w, t));
        hl_ports[w as usize].push((v, c));
    }
    let hl_listen: Vec<bool> = (0..n).map(|v| !hl_ports[v].is_empty()).collect();

    for _ in 0..linial_rounds {
        run_h_round(pipe, forest, &low_mask, &hl_listen, &hl_ports, cap, &info)?;
        let next_palette = coloring::linial_plan(palette, hl_delta).out_palette;
        // Roots recolor with the full neighbor color list.
        let snapshot: std::collections::BTreeMap<u32, u64> =
            info.iter().map(|(&r, ci)| (r, ci.color)).collect();
        for &r in &low_roots {
            let ci = info.get(&r).unwrap();
            let mut nbrs: Vec<u64> = ci.hl_in.iter().map(|c| snapshot[c]).collect();
            if let Some(t) = ci.hl_out {
                nbrs.push(snapshot[&t]);
            }
            let new = coloring::linial_step(ci.color, &nbrs, palette, hl_delta);
            info.get_mut(&r).unwrap().color = new;
        }
        palette = next_palette;
        if next_palette >= palette && matches!(cfg.linial, LinialMode::FixedPoint { .. }) {
            break;
        }
    }
    if let LinialMode::FixedPoint { kw: true } = cfg.linial {
        let mut guard = 0;
        while palette > 2 * (hl_delta + 1) && guard < 16 {
            for s in 0..coloring::kw_pass_steps(palette, hl_delta) {
                run_h_round(pipe, forest, &low_mask, &hl_listen, &hl_ports, cap, &info)?;
                let snapshot: std::collections::BTreeMap<u32, u64> =
                    info.iter().map(|(&r, ci)| (r, ci.color)).collect();
                for &r in &low_roots {
                    let ci = info.get(&r).unwrap();
                    let mut nbrs: Vec<u64> = ci.hl_in.iter().map(|c| snapshot[c]).collect();
                    if let Some(t) = ci.hl_out {
                        nbrs.push(snapshot[&t]);
                    }
                    let new = coloring::kw_step(ci.color, &nbrs, hl_delta, s);
                    info.get_mut(&r).unwrap().color = new;
                }
            }
            for &r in &low_roots {
                let c = info[&r].color;
                info.get_mut(&r).unwrap().color = coloring::kw_compact(c, hl_delta);
            }
            palette = (palette / (2 * (hl_delta + 1))).max(1) * (hl_delta + 1) + (hl_delta + 1);
            guard += 1;
        }
    }

    // Optional compaction of the color space (simulation convenience).
    let colors_in_use: Vec<u64> = {
        let mut cs: Vec<u64> = low_roots.iter().map(|r| info[r].color).collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let turn_colors: Vec<u64> = if cfg.compact_colors {
        for &r in &low_roots {
            let c = info[&r].color;
            let dense = colors_in_use.binary_search(&c).unwrap() as u64;
            info.get_mut(&r).unwrap().color = dense;
        }
        (0..colors_in_use.len() as u64).collect()
    } else {
        colors_in_use.clone()
    };

    // Properness sanity check on H_L.
    for &r in &low_roots {
        let ci = &info[&r];
        for c in ci.hl_in.iter().chain(ci.hl_out.iter()) {
            debug_assert_ne!(info[&r].color, info[c].color, "improper H_L coloring");
        }
    }

    // ---- Step 9: maximal matching on H_L by color classes. ----
    let mut matched: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    let mut ml_pairs: Vec<(u32, u32)> = Vec::new(); // (leaf = edge source, center)
    for &turn in &turn_colors {
        let acting: Vec<u32> = low_roots
            .iter()
            .copied()
            .filter(|r| info[r].color == turn)
            .collect();
        if acting.is_empty() {
            continue;
        }
        // Charge: convergecast + broadcast within acting clusters, then
        // one port round to their H_L neighbors.
        let mut turn_mask = vec![false; n];
        for v in 0..n {
            if active[v]
                && info
                    .get(&forest.cluster[v])
                    .is_some_and(|ci| !ci.is_high && ci.color == turn)
            {
                turn_mask[v] = true;
            }
        }
        let status_input: Vec<Option<U32List>> = (0..n)
            .map(|v| {
                if turn_mask[v] && !hl_ports[v].is_empty() {
                    Some(U32List(hl_ports[v].iter().map(|&(_, c)| c).collect()))
                } else {
                    None
                }
            })
            .collect();
        pipe.run_phase(
            "merge:match-cvc",
            &Convergecast {
                forest,
                active: &turn_mask,
                depth_cap: cap,
                input: &status_input,
                combine: |mut a: U32List, b: U32List| {
                    a.0.extend(b.0);
                    a
                },
            },
        )?;
        // Root decisions (mirrored): unmatched acting clusters pick their
        // minimum unmatched incoming neighbor.
        let mut decisions: Vec<Option<(u32, u32)>> = vec![None; n];
        for &r in &acting {
            if matched.contains_key(&r) {
                continue;
            }
            let pick = info[&r]
                .hl_in
                .iter()
                .copied()
                .filter(|e| !matched.contains_key(e))
                .min();
            if let Some(e) = pick {
                matched.insert(r, e);
                matched.insert(e, r);
                ml_pairs.push((e, r));
                decisions[r as usize] = Some((1, e));
            } else {
                decisions[r as usize] = Some((0, u32::MAX));
            }
        }
        pipe.run_phase(
            "merge:match-bc",
            &Broadcast {
                forest,
                active: &turn_mask,
                depth_cap: cap,
                input: &decisions,
            },
        )?;
        // Port round: acting ports tell neighbors their match status.
        let mut sends_d: Vec<Vec<(NodeId, (u32, u32))>> = vec![Vec::new(); n];
        let mut listen_d = vec![false; n];
        for v in 0..n {
            if turn_mask[v] {
                for &(other, other_c) in &hl_ports[v] {
                    let mine = forest.cluster[v];
                    let m = u32::from(matched.contains_key(&mine));
                    let partner = matched.get(&mine).copied().unwrap_or(u32::MAX);
                    let chose_you = u32::from(partner == other_c);
                    sends_d[v].push((other, (m, chose_you)));
                    listen_d[other as usize] = true;
                }
            }
        }
        pipe.run_phase(
            "merge:match-ports",
            &PortRound {
                listen: &listen_d,
                sends: &sends_d,
            },
        )?;
    }

    // ---- Step 10: the leftover set R. ----
    let mut r_leaves: Vec<u32> = Vec::new();
    for &r in &low_roots {
        let ci = &info[&r];
        if !ci.reciprocal && !ci.eh_leaf && !matched.contains_key(&r) {
            if let Some(t) = ci.hl_out {
                debug_assert!(
                    matched.contains_key(&t) || info[&t].reciprocal || info[&t].eh_leaf,
                    "R target {t} has no incident merge edge (maximality broken)"
                );
                r_leaves.push(r);
            }
        }
    }

    // ---- Step 11: the four sequential star merges. ----
    // M: reciprocal pairs, leaf = larger id.
    let m_merges: Vec<(u32, NodeId, NodeId)> = reciprocal
        .iter()
        .filter(|&&c| {
            let t = chosen_by_cluster[&c].0;
            c > t
        })
        .filter_map(|&c| port_of(c).map(|(v, w)| (c, v, w)))
        .collect();
    // EH: low leaves whose out-target is high.
    let eh_merges: Vec<(u32, NodeId, NodeId)> = info
        .iter()
        .filter(|(_, ci)| ci.eh_leaf)
        .filter_map(|(&c, _)| port_of(c).map(|(v, w)| (c, v, w)))
        .collect();
    // ML: matched pairs, leaf = edge source.
    let ml_merges: Vec<(u32, NodeId, NodeId)> = ml_pairs
        .iter()
        .filter_map(|&(leaf, _)| port_of(leaf).map(|(v, w)| (leaf, v, w)))
        .collect();
    // R: unmatched leftovers via their out-edge.
    let r_merges: Vec<(u32, NodeId, NodeId)> = r_leaves
        .iter()
        .filter_map(|&c| port_of(c).map(|(v, w)| (c, v, w)))
        .collect();

    for (name, merges) in [
        ("merge:star-m", m_merges),
        ("merge:star-eh", eh_merges),
        ("merge:star-ml", ml_merges),
        ("merge:star-r", r_merges),
    ] {
        if !merges.is_empty() {
            merge_substep(pipe, forest, &active, name, &merges)?;
        }
    }
    debug_assert_eq!(forest.validate(g), Ok(()));
    Ok(false)
}

/// One simulated round of the cluster graph `H`: broadcast root state,
/// exchange across `H_L` edges, convergecast replies. Used for each
/// Linial/KW coloring round; the root-side recoloring itself is mirrored
/// by the caller.
fn run_h_round(
    pipe: &mut Pipeline<'_, '_>,
    forest: &ClusterForest,
    low_mask: &[bool],
    hl_listen: &[bool],
    hl_ports: &[Vec<(NodeId, u32)>],
    cap: u32,
    info: &std::collections::BTreeMap<u32, ClusterInfo>,
) -> Result<(), SimError> {
    let n = forest.n();
    let mut color_input: Vec<Option<u64>> = vec![None; n];
    for (&r, ci) in info.iter() {
        if !ci.is_high {
            color_input[r as usize] = Some(ci.color);
        }
    }
    pipe.run_phase(
        "merge:color-bc",
        &Broadcast {
            forest,
            active: low_mask,
            depth_cap: cap,
            input: &color_input,
        },
    )?;
    let mut sends: Vec<Vec<(NodeId, (u32, u64))>> = vec![Vec::new(); n];
    for v in 0..n {
        if low_mask[v] {
            for &(other, _) in &hl_ports[v] {
                let mine = forest.cluster[v];
                sends[v].push((other, (mine, info[&mine].color)));
            }
        }
    }
    pipe.run_phase(
        "merge:color-ports",
        &PortRound {
            listen: hl_listen,
            sends: &sends,
        },
    )?;
    let reply_input: Vec<Option<U32List>> = (0..n)
        .map(|v| {
            if low_mask[v] && !hl_ports[v].is_empty() {
                Some(U32List(hl_ports[v].iter().map(|&(_, c)| c).collect()))
            } else {
                None
            }
        })
        .collect();
    pipe.run_phase(
        "merge:color-cvc",
        &Convergecast {
            forest,
            active: low_mask,
            depth_cap: cap,
            input: &reply_input,
            combine: |mut a: U32List, b: U32List| {
                a.0.extend(b.0);
                a
            },
        },
    )?;
    Ok(())
}

/// Executes one star-merge sub-step: every `(leaf cluster, attach node v,
/// center-side node w)` triple re-roots the leaf's tree at `v` and hangs
/// it under `w`.
fn merge_substep(
    pipe: &mut Pipeline<'_, '_>,
    forest: &mut ClusterForest,
    active: &[bool],
    name: &str,
    merges: &[(u32, NodeId, NodeId)],
) -> Result<(), SimError> {
    let n = forest.n();
    // Attach request: leaf ports knock on the center-side node.
    let mut req_sends: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n];
    for &(leaf, v, w) in merges {
        req_sends[v as usize].push((w, leaf));
    }
    pipe.run_phase(
        &format!("{name}:req"),
        &PortRound {
            listen: active,
            sends: &req_sends,
        },
    )?;
    // Attach reply: the center-side node reports its (cluster, depth).
    let mut rep_sends: Vec<Vec<(NodeId, (u32, u32))>> = vec![Vec::new(); n];
    let mut rep_listen = vec![false; n];
    for &(_, v, w) in merges {
        rep_sends[w as usize].push((v, (forest.cluster[w as usize], forest.depth[w as usize])));
        rep_listen[v as usize] = true;
    }
    pipe.run_phase(
        &format!("{name}:rep"),
        &PortRound {
            listen: &rep_listen,
            sends: &rep_sends,
        },
    )?;

    // Re-root each leaf cluster at its attach node.
    let leaf_set: std::collections::BTreeSet<u32> = merges.iter().map(|&(l, _, _)| l).collect();
    let leaf_mask: Vec<bool> = (0..n)
        .map(|v| active[v] && leaf_set.contains(&forest.cluster[v]))
        .collect();
    let mut attach: Vec<Option<RerootVal>> = vec![None; n];
    let mut attach_parent: Vec<Option<NodeId>> = vec![None; n];
    for &(_, v, w) in merges {
        let x = forest.depth[w as usize] + 1; // new depth of v
        let s = x + forest.depth[v as usize];
        attach[v as usize] = Some((s, forest.cluster[w as usize]));
        attach_parent[v as usize] = Some(w);
    }
    let cap = depth_cap(forest);
    let up = pipe.run_phase(
        &format!("{name}:up"),
        &RerootUp {
            forest,
            active: &leaf_mask,
            depth_cap: cap,
            attach: &attach,
        },
    )?;
    let down = pipe.run_phase(
        &format!("{name}:down"),
        &RerootDown {
            forest,
            active: &leaf_mask,
            depth_cap: cap,
            up: &up,
        },
    )?;

    // Fold the new coordinates into the forest.
    for v in 0..n {
        if !leaf_mask[v] {
            continue;
        }
        let st = &down[v];
        let c = st.new_cluster.expect("leaf member missed the re-root wave");
        forest.cluster[v] = c;
        forest.depth[v] = st.new_depth;
        if attach[v].is_some() {
            forest.parent[v] = attach_parent[v];
        } else if up[v].path_val.is_some() {
            forest.parent[v] = up[v].from_child;
        }
        // Off-path nodes keep their parent.
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shatter::{forest_from_grow, ClusterGrow};
    use congest_sim::{run, SimConfig};
    use mis_graphs::{generators, props};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grown_forest(g: &mis_graphs::Graph, mask: &[bool], seed: u64) -> ClusterForest {
        let proto = ClusterGrow {
            participating: mask,
            radius: 3,
        };
        let res = run(g, &proto, &SimConfig::seeded(seed)).unwrap();
        forest_from_grow(mask, &res.states)
    }

    fn assert_one_cluster_per_component(g: &mis_graphs::Graph, mask: &[bool], f: &ClusterForest) {
        let comps = props::masked_components(g, mask);
        #[allow(clippy::disallowed_types)]
        // lint:allow(det-hash-collection, reason = "test-only component->cluster witness map; keyed lookups, never iterated")
        let mut cluster_of_comp = std::collections::HashMap::<u32, u32>::new();
        for (v, &in_mask) in mask.iter().enumerate() {
            if in_mask {
                let comp = comps.label[v];
                let c = f.cluster[v];
                let e = cluster_of_comp.entry(comp).or_insert(c);
                assert_eq!(*e, c, "component {comp} has clusters {e} and {c}");
            }
        }
    }

    #[test]
    fn merges_path_into_single_cluster() {
        let g = generators::path(40);
        let mask = vec![true; 40];
        let forest = grown_forest(&g, &mask, 1);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(2));
        let cfg = MergeConfig {
            iterations: 10,
            ..MergeConfig::default()
        };
        let (merged, stats) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        assert_eq!(merged.cluster_count(), 1);
        assert!(stats.iterations_run <= 10);
        assert_one_cluster_per_component(&g, &mask, &merged);
    }

    #[test]
    fn merges_each_component_separately() {
        let g = generators::disjoint_union(&[
            &generators::cycle(15),
            &generators::path(12),
            &generators::star(9),
            &generators::grid2d(4, 4),
        ]);
        let mask = vec![true; g.n()];
        let forest = grown_forest(&g, &mask, 3);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(4));
        let cfg = MergeConfig {
            iterations: 10,
            ..MergeConfig::default()
        };
        let (merged, _) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        assert_eq!(merged.cluster_count(), 4);
        assert_one_cluster_per_component(&g, &mask, &merged);
    }

    #[test]
    fn merges_respect_participation_mask() {
        let g = generators::grid2d(8, 8);
        let mut mask = vec![true; 64];
        for (v, m) in mask.iter_mut().enumerate() {
            if v % 5 == 0 {
                *m = false;
            }
        }
        let forest = grown_forest(&g, &mask, 5);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(6));
        let cfg = MergeConfig {
            iterations: 10,
            ..MergeConfig::default()
        };
        let (merged, _) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        assert_one_cluster_per_component(&g, &mask, &merged);
        for (v, &in_mask) in mask.iter().enumerate() {
            if !in_mask {
                assert_eq!(pipe.metrics().awake_rounds[v], 0, "masked node {v} woke");
            }
        }
    }

    #[test]
    fn merge_on_random_graph_with_fixed_point_coloring() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(300, 0.015, &mut rng);
        let mask = vec![true; 300];
        let forest = grown_forest(&g, &mask, 8);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(9));
        let cfg = MergeConfig {
            iterations: 12,
            linial: LinialMode::FixedPoint { kw: true },
            ..MergeConfig::default()
        };
        let (merged, _) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        assert_one_cluster_per_component(&g, &mask, &merged);
    }

    #[test]
    fn merge_literal_color_space_mode() {
        // compact_colors = false iterates the raw Linial palette — slower
        // but paper-literal; the outcome must be identical in structure.
        let g = generators::grid2d(6, 6);
        let mask = vec![true; 36];
        let forest = grown_forest(&g, &mask, 21);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(22));
        let cfg = MergeConfig {
            iterations: 8,
            compact_colors: false,
            ..MergeConfig::default()
        };
        let (merged, _) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        assert_one_cluster_per_component(&g, &mask, &merged);
    }

    #[test]
    fn cluster_count_halves_per_iteration() {
        let g = generators::path(64);
        let mask = vec![true; 64];
        let forest = grown_forest(&g, &mask, 10);
        let start = forest.cluster_count();
        if start < 2 {
            return; // degenerate clustering, nothing to check
        }
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(11));
        let cfg = MergeConfig {
            iterations: 1,
            early_stop: false,
            ..MergeConfig::default()
        };
        let (merged, _) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        assert!(
            merged.cluster_count() <= start.div_ceil(2),
            "one iteration: {start} -> {} clusters",
            merged.cluster_count()
        );
    }

    #[test]
    fn energy_per_node_is_small() {
        let g = generators::cycle(120);
        let mask = vec![true; 120];
        let forest = grown_forest(&g, &mask, 12);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(13));
        let cfg = MergeConfig {
            iterations: 10,
            ..MergeConfig::default()
        };
        let (merged, stats) = merge_clusters(&mut pipe, forest, &cfg).unwrap();
        merged.validate(&g).unwrap();
        // O(1) awake rounds per iteration; generous constant.
        let bound = 40 * u64::from(stats.iterations_run.max(1));
        assert!(
            pipe.metrics().max_awake() <= bound,
            "max awake {} > bound {bound}",
            pipe.metrics().max_awake()
        );
    }
}
