//! The local-moving phase of Louvain.

use txallo_graph::{fit_u32, par, DenseAccumulator, NodeId, WeightedGraph};

use crate::{LouvainConfig, GAIN_EPS};

/// Result of repeated local-moving sweeps on one level.
#[derive(Debug, Clone)]
pub struct LocalMoveOutcome {
    /// Community label per node of this level's graph.
    pub communities: Vec<u32>,
    /// Whether any node changed community (drives level termination).
    pub moved_any: bool,
    /// Number of sweeps executed.
    pub sweeps: usize,
}

/// Runs local-moving sweeps until a sweep makes no move (or limits hit).
///
/// Each node starts in its own singleton community. For node `v`, the gain
/// of moving the (isolated) node into community `c` is the standard Louvain
/// delta: `ΔQ = w(v→c)/m − γ·Σ_tot(c)·k_v/(2m²)`. The node joins the
/// neighboring community maximizing the gain; staying put wins ties, and
/// among equal-gain candidates the smallest community id wins (see
/// [`GAIN_EPS`] for the exact tie contract).
///
/// Link weights toward neighboring communities are gathered into a dense
/// [`DenseAccumulator`] indexed by community id — no hashing, no per-node
/// allocation; only the touched-list (the node's distinct neighboring
/// communities) is sorted to fix the deterministic candidate order.
///
/// `config.threads` only chooses *how* the gathers are computed:
/// `threads <= 1` runs the exact serial code path; larger counts run the
/// multi-core variant, which refreshes stale candidate caches in parallel
/// over canonical row ranges at each sweep boundary and then executes the
/// identical serial decision loop — bit-identical labels, sweep counts and
/// move trajectory at any thread count (pinned by the golden tests).
pub fn local_moving_pass(
    graph: &(impl WeightedGraph + Sync),
    config: &LouvainConfig,
) -> LocalMoveOutcome {
    if par::resolve_threads(config.threads) <= 1 {
        local_moving_serial(graph, config)
    } else {
        local_moving_parallel(graph, config)
    }
}

/// The serial local-moving pass — the `threads == 1` code path, byte for
/// byte the implementation that predates the multi-core sweep engine.
fn local_moving_serial(graph: &impl WeightedGraph, config: &LouvainConfig) -> LocalMoveOutcome {
    let n = graph.node_count();
    let m = graph.total_weight();
    let mut communities: Vec<u32> = (0..n as u32).collect();
    if n == 0 || m <= 0.0 {
        return LocalMoveOutcome {
            communities,
            moved_any: false,
            sweeps: 0,
        };
    }

    // Per-node strengths, gathered once — `k_v` is read on every candidate
    // evaluation of every sweep, so it lives in a flat array instead of
    // going through the graph accessor each time (same values bit-for-bit;
    // the initial Σ_tot per community is the same array copied, since every
    // node starts in its own singleton community).
    let strength: Vec<f64> = (0..n as NodeId).map(|v| graph.strength(v)).collect();
    // Σ_tot per community (strengths, self-loops twice).
    let mut sigma_tot: Vec<f64> = strength.clone();
    let mut moved_any = false;
    let mut sweeps = 0usize;

    // Workhorse scratch: weight from v to each neighboring community.
    let mut link = DenseAccumulator::new();

    // Incremental-sweep machinery (same scheme as the G-TxAllo
    // optimization phase): a node's decision depends only on (a) its
    // per-community link weights — which change when a *neighbor* moves —
    // and (b) `sigma_tot` of its candidate communities and its own. The
    // expensive gather (a) is cached per node and reused verbatim until a
    // neighbor moves; the gains (b) are recomputed against fresh
    // `sigma_tot` every visit. When both inputs are untouched since the
    // node's last evaluation the node is skipped outright — re-evaluating
    // would provably repeat the previous no-move. Evaluations are pure
    // (`sigma_tot` is only written when a move commits; the seed's
    // `-= k_v … += k_v` round-trip is gone because float subtraction does
    // not exactly invert addition), so all reuse is bit-exact.
    let mut move_stamp: u64 = 1;
    let mut last_eval: Vec<u64> = vec![0; n];
    let mut gathered_at: Vec<u64> = vec![0; n];
    let mut links_dirty: Vec<u64> = vec![1; n];
    let mut comm_stamp: Vec<u64> = vec![1; n];
    let mut cand_cache: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];

    for _ in 0..config.max_sweeps {
        sweeps += 1;
        let mut moved_this_sweep = false;

        for v in 0..n as NodeId {
            let vi = v as usize;
            let current = communities[vi];
            let links_fresh = links_dirty[vi] <= gathered_at[vi];
            if links_fresh {
                let seen = last_eval[vi];
                if comm_stamp[current as usize] <= seen
                    && cand_cache[vi]
                        .iter()
                        .all(|&(c, _)| comm_stamp[c as usize] <= seen)
                {
                    continue; // Inputs unchanged: evaluation would no-op.
                }
            } else {
                link.begin(n);
                graph.for_each_neighbor(v, |u, w| {
                    link.add(communities[u as usize], w);
                });
                // Deterministic candidate order: ascending community id.
                link.sort_touched();
                gathered_at[vi] = move_stamp;
                cand_cache[vi].clear();
                cand_cache[vi].extend(link.entries());
            }
            last_eval[vi] = move_stamp;

            let k_v = strength[vi];
            let cand = &cand_cache[vi];
            // Evaluate with v removed from its community.
            let sig_cur = sigma_tot[current as usize] - k_v;
            let w_current = cand
                .iter()
                .find(|&&(c, _)| c == current)
                .map_or(0.0, |&(_, w)| w);
            let gain_stay = w_current / m - config.resolution * sig_cur * k_v / (2.0 * m * m);

            let mut best_comm = current;
            let mut best_gain = gain_stay;
            for &(c, w_vc) in cand {
                if c == current {
                    continue;
                }
                let gain =
                    w_vc / m - config.resolution * sigma_tot[c as usize] * k_v / (2.0 * m * m);
                if gain > best_gain + GAIN_EPS {
                    best_gain = gain;
                    best_comm = c;
                }
            }

            if best_comm != current {
                sigma_tot[current as usize] = sig_cur;
                sigma_tot[best_comm as usize] += k_v;
                communities[vi] = best_comm;
                moved_this_sweep = true;
                moved_any = true;
                move_stamp += 1;
                comm_stamp[current as usize] = move_stamp;
                comm_stamp[best_comm as usize] = move_stamp;
                graph.for_each_neighbor(v, |u, _| {
                    links_dirty[u as usize] = move_stamp;
                });
            }
        }

        if !moved_this_sweep {
            break;
        }
    }

    LocalMoveOutcome {
        communities,
        moved_any,
        sweeps,
    }
}

/// The multi-core local-moving pass.
///
/// **Why this is bit-identical to the serial sweep.** A node's cached
/// candidate list is a pure function of its row and its neighbors'
/// labels; the serial pass already reuses it until a neighbor moves
/// (`links_dirty` vs `gathered_at`). The parallel variant exploits
/// exactly that: at each sweep boundary — when the labels are frozen —
/// every *stale* row's gather is refreshed concurrently, partitioned by
/// canonical row ranges ([`par::entry_balanced_split`]), each chunk
/// writing only its own cache window with its own accumulator. The
/// decision loop that follows is the serial one, unchanged: it visits
/// nodes in the same order, sees caches whose bits equal what a
/// visit-time gather would have produced (any cache invalidated by an
/// earlier in-sweep move is re-gathered serially at its turn, exactly as
/// before), and therefore commits the identical move sequence, float by
/// float. No gain, Σ_tot update or modularity fold ever crosses a chunk
/// boundary.
fn local_moving_parallel(
    graph: &(impl WeightedGraph + Sync),
    config: &LouvainConfig,
) -> LocalMoveOutcome {
    let n = graph.node_count();
    let m = graph.total_weight();
    let mut communities: Vec<u32> = (0..n as u32).collect();
    if n == 0 || m <= 0.0 {
        return LocalMoveOutcome {
            communities,
            moved_any: false,
            sweeps: 0,
        };
    }

    let strength: Vec<f64> = (0..n as NodeId).map(|v| graph.strength(v)).collect();
    let mut sigma_tot: Vec<f64> = strength.clone();
    let mut moved_any = false;
    let mut sweeps = 0usize;
    let mut link = DenseAccumulator::new();

    let mut move_stamp: u64 = 1;
    let mut last_eval: Vec<u64> = vec![0; n];
    let mut gathered_at: Vec<u64> = vec![0; n];
    let mut links_dirty: Vec<u64> = vec![1; n];
    let mut comm_stamp: Vec<u64> = vec![1; n];
    let mut cand_cache: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];

    // Canonical row ranges, balanced by degree (the graph trait has no
    // offsets array, so one O(n) prefix builds it).
    let threads = par::resolve_threads(config.threads).min(n);
    let mut deg_prefix: Vec<u32> = vec![0; n + 1];
    for v in 0..n {
        deg_prefix[v + 1] = deg_prefix[v] + graph.neighbor_count(v as NodeId) as u32;
    }
    let bounds = par::entry_balanced_split(&deg_prefix, threads);
    let mut pool: Vec<DenseAccumulator> = Vec::new();
    pool.resize_with(bounds.len() - 1, DenseAccumulator::default);

    for _ in 0..config.max_sweeps {
        sweeps += 1;

        // Refresh every stale gather against the sweep-boundary labels.
        {
            let communities = &communities;
            let links_dirty = &links_dirty;
            let gathered_at_r = &gathered_at;
            par::for_each_chunk_mut(&bounds, &mut cand_cache, &mut pool, |lo, caches, acc| {
                for (idx, cache) in caches.iter_mut().enumerate() {
                    let vi = lo + idx;
                    if links_dirty[vi] <= gathered_at_r[vi] {
                        continue;
                    }
                    acc.begin(n);
                    graph.for_each_neighbor(vi as NodeId, |u, w| {
                        acc.add(communities[u as usize], w);
                    });
                    acc.sort_touched();
                    cache.clear();
                    cache.extend(acc.entries());
                }
            });
        }
        for vi in 0..n {
            if links_dirty[vi] > gathered_at[vi] {
                gathered_at[vi] = move_stamp;
            }
        }

        let mut moved_this_sweep = false;
        for v in 0..n as NodeId {
            let vi = v as usize;
            let current = communities[vi];
            let links_fresh = links_dirty[vi] <= gathered_at[vi];
            if links_fresh {
                let seen = last_eval[vi];
                if comm_stamp[current as usize] <= seen
                    && cand_cache[vi]
                        .iter()
                        .all(|&(c, _)| comm_stamp[c as usize] <= seen)
                {
                    continue; // Inputs unchanged: evaluation would no-op.
                }
            } else {
                link.begin(n);
                graph.for_each_neighbor(v, |u, w| {
                    link.add(communities[u as usize], w);
                });
                link.sort_touched();
                gathered_at[vi] = move_stamp;
                cand_cache[vi].clear();
                cand_cache[vi].extend(link.entries());
            }
            last_eval[vi] = move_stamp;

            let k_v = strength[vi];
            let cand = &cand_cache[vi];
            let sig_cur = sigma_tot[current as usize] - k_v;
            let w_current = cand
                .iter()
                .find(|&&(c, _)| c == current)
                .map_or(0.0, |&(_, w)| w);
            let gain_stay = w_current / m - config.resolution * sig_cur * k_v / (2.0 * m * m);

            let mut best_comm = current;
            let mut best_gain = gain_stay;
            for &(c, w_vc) in cand {
                if c == current {
                    continue;
                }
                let gain =
                    w_vc / m - config.resolution * sigma_tot[c as usize] * k_v / (2.0 * m * m);
                if gain > best_gain + GAIN_EPS {
                    best_gain = gain;
                    best_comm = c;
                }
            }

            if best_comm != current {
                sigma_tot[current as usize] = sig_cur;
                sigma_tot[best_comm as usize] += k_v;
                communities[vi] = best_comm;
                moved_this_sweep = true;
                moved_any = true;
                move_stamp += 1;
                comm_stamp[current as usize] = move_stamp;
                comm_stamp[best_comm as usize] = move_stamp;
                graph.for_each_neighbor(v, |u, _| {
                    links_dirty[u as usize] = move_stamp;
                });
            }
        }

        if !moved_this_sweep {
            break;
        }
    }

    LocalMoveOutcome {
        communities,
        moved_any,
        sweeps,
    }
}

/// One community bucket of a condensed row: the weight toward `comm`,
/// plus the row positions (into the flat neighbor arrays) of the members
/// currently labelled `comm`, kept in ascending position order so a refold
/// replays the exact add sequence a fresh row gather would execute.
struct CondensedGroup {
    comm: u32,
    sum: f64,
    members: Vec<u32>,
}

/// Refolds a group's weight from scratch, in ascending member-position
/// order — bitwise the same sequence of `+=` a [`DenseAccumulator`] gather
/// over the full row would apply to this community's slot.
fn refold(group: &mut CondensedGroup, row_w: &[f64]) {
    let mut sum = 0.0;
    for &p in &group.members {
        sum += row_w[p as usize];
    }
    group.sum = sum;
}

/// Moves every entry for neighbor `v` in one condensed row from the bucket
/// of community `from` to the bucket of `to`, refolding only those two
/// buckets. A row that does not list `v` (asymmetric input) is untouched —
/// exactly what a full re-gather would compute for it.
fn relocate_member(
    groups: &mut Vec<CondensedGroup>,
    row_nbr: &[u32],
    row_w: &[f64],
    v: u32,
    from: u32,
    to: u32,
) {
    let Ok(ai) = groups.binary_search_by_key(&from, |g| g.comm) else {
        return;
    };
    let mut moved: Vec<u32> = Vec::new();
    groups[ai].members.retain(|&p| {
        if row_nbr[p as usize] == v {
            moved.push(p);
            false
        } else {
            true
        }
    });
    if moved.is_empty() {
        return;
    }
    if groups[ai].members.is_empty() {
        groups.remove(ai);
    } else {
        refold(&mut groups[ai], row_w);
    }
    match groups.binary_search_by_key(&to, |g| g.comm) {
        Ok(bi) => {
            // Merge the relocated positions back in ascending order.
            for p in moved {
                let at = groups[bi].members.partition_point(|&q| q < p);
                groups[bi].members.insert(at, p);
            }
            refold(&mut groups[bi], row_w);
        }
        Err(bi) => {
            let mut group = CondensedGroup {
                comm: to,
                sum: 0.0,
                members: moved,
            };
            refold(&mut group, row_w);
            groups.insert(bi, group);
        }
    }
}

/// Local moving with *condensed rows*: instead of re-gathering a node's
/// full row whenever any neighbor moved (the [`local_moving_pass`]
/// scheme), every row is kept pre-grouped by neighbor community across
/// sweeps. A committed move then relocates just the mover's entries inside
/// each adjacent row — O(affected bucket sizes), not O(degree) — and
/// refolds the two touched buckets in member order.
///
/// **Why this is bit-identical to the re-gather path.** A fresh gather
/// computes, for each community `c`, the fold of the row's weights whose
/// neighbor is labelled `c`, in row-walk order. The condensed invariant is
/// exactly that: each bucket holds the positions currently labelled with
/// its community, ascending, and its sum is the fold over them in that
/// order. Relocation preserves the invariant (positions move buckets when
/// their label changes; both touched buckets refold from scratch in
/// position order), so every candidate list the decision loop reads equals
/// the re-gathered one float for float — and the decision loop itself is
/// the serial one, unchanged.
///
/// Intended for the *aggregated* (deep) Louvain levels, where rows are
/// dense community-to-community strips that the stamp scheme re-gathers
/// many times per level; the pass is serial and thread-count independent,
/// so it slots under every `config.threads` without affecting bits.
pub fn local_moving_condensed(
    graph: &impl WeightedGraph,
    config: &LouvainConfig,
) -> LocalMoveOutcome {
    let n = graph.node_count();
    let m = graph.total_weight();
    let mut communities: Vec<u32> = (0..n as u32).collect();
    if n == 0 || m <= 0.0 {
        return LocalMoveOutcome {
            communities,
            moved_any: false,
            sweeps: 0,
        };
    }

    let strength: Vec<f64> = (0..n as NodeId).map(|v| graph.strength(v)).collect();
    let mut sigma_tot: Vec<f64> = strength.clone();
    let mut moved_any = false;
    let mut sweeps = 0usize;

    // Materialize the rows once: the relocation walk needs flat
    // position-indexed access, and deep-level graphs are small.
    let mut offsets: Vec<usize> = vec![0; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + graph.neighbor_count(v as NodeId);
    }
    let mut row_nbr: Vec<u32> = Vec::with_capacity(offsets[n]);
    let mut row_w: Vec<f64> = Vec::with_capacity(offsets[n]);
    for v in 0..n as NodeId {
        graph.for_each_neighbor(v, |u, w| {
            row_nbr.push(u);
            row_w.push(w);
        });
    }

    // Initial condensation under the identity labels. Sorting the
    // (community, position) pairs groups each bucket's members in
    // ascending position = row-walk order, matching the gather fold.
    let mut groups: Vec<Vec<CondensedGroup>> = (0..n)
        .map(|v| {
            let mut tagged: Vec<(u32, u32)> = (offsets[v]..offsets[v + 1])
                .map(|p| (communities[row_nbr[p] as usize], fit_u32(p)))
                .collect();
            tagged.sort_unstable();
            let mut gs: Vec<CondensedGroup> = Vec::new();
            for (c, p) in tagged {
                match gs.last_mut() {
                    Some(g) if g.comm == c => g.members.push(p),
                    _ => gs.push(CondensedGroup {
                        comm: c,
                        sum: 0.0,
                        members: vec![p],
                    }),
                }
            }
            for g in gs.iter_mut() {
                refold(g, &row_w);
            }
            gs
        })
        .collect();

    // Same incremental-skip machinery as the re-gather passes, minus the
    // links-dirty half: condensed rows are never stale, and any membership
    // change freshens the stamp of a community the row now lists.
    let mut move_stamp: u64 = 1;
    let mut last_eval: Vec<u64> = vec![0; n];
    let mut comm_stamp: Vec<u64> = vec![1; n];

    for _ in 0..config.max_sweeps {
        sweeps += 1;
        let mut moved_this_sweep = false;

        for v in 0..n as NodeId {
            let vi = v as usize;
            let current = communities[vi];
            let seen = last_eval[vi];
            if comm_stamp[current as usize] <= seen
                && groups[vi]
                    .iter()
                    .all(|g| comm_stamp[g.comm as usize] <= seen)
            {
                continue; // Inputs unchanged: evaluation would no-op.
            }
            last_eval[vi] = move_stamp;

            let k_v = strength[vi];
            let sig_cur = sigma_tot[current as usize] - k_v;
            let w_current = groups[vi]
                .iter()
                .find(|g| g.comm == current)
                .map_or(0.0, |g| g.sum);
            let gain_stay = w_current / m - config.resolution * sig_cur * k_v / (2.0 * m * m);

            let mut best_comm = current;
            let mut best_gain = gain_stay;
            for g in &groups[vi] {
                if g.comm == current {
                    continue;
                }
                let gain = g.sum / m
                    - config.resolution * sigma_tot[g.comm as usize] * k_v / (2.0 * m * m);
                if gain > best_gain + GAIN_EPS {
                    best_gain = gain;
                    best_comm = g.comm;
                }
            }

            if best_comm != current {
                sigma_tot[current as usize] = sig_cur;
                sigma_tot[best_comm as usize] += k_v;
                communities[vi] = best_comm;
                moved_this_sweep = true;
                moved_any = true;
                move_stamp += 1;
                comm_stamp[current as usize] = move_stamp;
                comm_stamp[best_comm as usize] = move_stamp;
                // Relocate v inside every adjacent condensed row (v's own
                // row too, when it carries a self-edge — a re-gather would
                // rebucket that entry the same way).
                for p in offsets[vi]..offsets[vi + 1] {
                    let x = row_nbr[p] as usize;
                    relocate_member(&mut groups[x], &row_nbr, &row_w, v, current, best_comm);
                }
            }
        }

        if !moved_this_sweep {
            break;
        }
    }

    LocalMoveOutcome {
        communities,
        moved_any,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txallo_graph::AdjacencyGraph;
    use txallo_model::FxHashMap;

    #[test]
    fn merges_a_triangle() {
        let g = AdjacencyGraph::from_edges(3, vec![(0u32, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let out = local_moving_pass(&g, &LouvainConfig::default());
        assert!(out.moved_any);
        assert_eq!(out.communities[0], out.communities[1]);
        assert_eq!(out.communities[1], out.communities[2]);
    }

    #[test]
    fn keeps_disconnected_nodes_apart() {
        let g = AdjacencyGraph::from_edges(4, vec![(0u32, 1, 1.0), (2, 3, 1.0)]);
        let out = local_moving_pass(&g, &LouvainConfig::default());
        assert_eq!(out.communities[0], out.communities[1]);
        assert_eq!(out.communities[2], out.communities[3]);
        assert_ne!(out.communities[0], out.communities[2]);
    }

    #[test]
    fn no_move_on_empty_graph() {
        let g = AdjacencyGraph::from_edges(0, Vec::new());
        let out = local_moving_pass(&g, &LouvainConfig::default());
        assert!(!out.moved_any);
        assert!(out.communities.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut edges = Vec::new();
        for a in 0..20u32 {
            edges.push((a, (a + 1) % 20, 1.0));
            edges.push((a, (a + 2) % 20, 0.5));
        }
        let g = AdjacencyGraph::from_edges(20, edges);
        let a = local_moving_pass(&g, &LouvainConfig::default());
        let b = local_moving_pass(&g, &LouvainConfig::default());
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.sweeps, b.sweeps);
    }

    /// Reference re-implementation of the seed's hash-map gather: collect
    /// per-community weights into a map, copy to a vec, sort by community,
    /// evaluate every node every sweep (no incremental skipping). The
    /// dense-scratch pass must produce byte-identical labels — this pins
    /// down both the dense gather and the exactness of the stamp-based
    /// node skipping.
    fn reference_local_moving(
        graph: &impl WeightedGraph,
        config: &LouvainConfig,
    ) -> LocalMoveOutcome {
        let n = graph.node_count();
        let m = graph.total_weight();
        let mut communities: Vec<u32> = (0..n as u32).collect();
        if n == 0 || m <= 0.0 {
            return LocalMoveOutcome {
                communities,
                moved_any: false,
                sweeps: 0,
            };
        }
        let mut sigma_tot: Vec<f64> = (0..n as NodeId).map(|v| graph.strength(v)).collect();
        let mut moved_any = false;
        let mut sweeps = 0usize;
        let mut link_weight: FxHashMap<u32, f64> = FxHashMap::default();
        for _ in 0..config.max_sweeps {
            sweeps += 1;
            let mut moved_this_sweep = false;
            for v in 0..n as NodeId {
                let k_v = graph.strength(v);
                let current = communities[v as usize];
                link_weight.clear();
                graph.for_each_neighbor(v, |u, w| {
                    *link_weight.entry(communities[u as usize]).or_insert(0.0) += w;
                });
                let sig_cur = sigma_tot[current as usize] - k_v;
                let w_current = link_weight.get(&current).copied().unwrap_or(0.0);
                let gain_stay = w_current / m - config.resolution * sig_cur * k_v / (2.0 * m * m);
                let mut best_comm = current;
                let mut best_gain = gain_stay;
                let mut candidates: Vec<(u32, f64)> =
                    link_weight.iter().map(|(&c, &w)| (c, w)).collect();
                candidates.sort_unstable_by_key(|&(c, _)| c);
                for (c, w_vc) in candidates {
                    if c == current {
                        continue;
                    }
                    let gain =
                        w_vc / m - config.resolution * sigma_tot[c as usize] * k_v / (2.0 * m * m);
                    if gain > best_gain + GAIN_EPS {
                        best_gain = gain;
                        best_comm = c;
                    }
                }
                if best_comm != current {
                    sigma_tot[current as usize] = sig_cur;
                    sigma_tot[best_comm as usize] += k_v;
                    communities[v as usize] = best_comm;
                    moved_this_sweep = true;
                    moved_any = true;
                }
            }
            if !moved_this_sweep {
                break;
            }
        }
        LocalMoveOutcome {
            communities,
            moved_any,
            sweeps,
        }
    }

    /// A messy graph: ring + chords + self-loops + heavy hubs.
    fn messy_graph() -> AdjacencyGraph {
        let mut edges = Vec::new();
        for a in 0..60u32 {
            edges.push((a, (a + 1) % 60, 1.0));
            edges.push((a, (a + 7) % 60, 0.25));
            if a % 5 == 0 {
                edges.push((a, a, 0.5));
                edges.push((a, (a + 30) % 60, 0.1));
            }
        }
        AdjacencyGraph::from_edges(60, edges)
    }

    #[test]
    fn dense_gather_matches_hashmap_reference_byte_for_byte() {
        let g = messy_graph();
        let config = LouvainConfig::default();
        let dense = local_moving_pass(&g, &config);
        let reference = reference_local_moving(&g, &config);
        assert_eq!(dense.communities, reference.communities);
        assert_eq!(dense.sweeps, reference.sweeps);
        assert_eq!(dense.moved_any, reference.moved_any);
    }

    /// A weighted mess with exercised self-loops and hubs, scrambled per
    /// seed so the condensed pass sees varied float folds and tie shapes.
    fn weighted_mess(seed: u64) -> AdjacencyGraph {
        let n = 48u32;
        let mut edges = Vec::new();
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for a in 0..n {
            edges.push((a, (a + 1) % n, 1.0 + (next() % 7) as f64 * 0.125));
            edges.push((a, (a + 5) % n, 0.25 + (next() % 5) as f64 * 0.0625));
            if a % 4 == 0 {
                edges.push((a, a, 0.5 + (next() % 3) as f64 * 0.25));
            }
            if a % 6 == 0 {
                edges.push((a, (a + n / 2) % n, 0.1));
            }
        }
        AdjacencyGraph::from_edges(n as usize, edges)
    }

    /// The condensed-row pass must replay the re-gather pass move for
    /// move: identical labels, sweep counts and convergence flags, with
    /// every gather bit reproduced by bucket relocation + refold instead
    /// of full-row re-gathers.
    #[test]
    fn condensed_pass_matches_regather_pass_byte_for_byte() {
        let config = LouvainConfig::default().with_threads(1);
        for seed in 0..5u64 {
            let g = weighted_mess(seed);
            let regather = local_moving_pass(&g, &config);
            let condensed = local_moving_condensed(&g, &config);
            assert_eq!(condensed.communities, regather.communities, "seed {seed}");
            assert_eq!(condensed.sweeps, regather.sweeps, "seed {seed}");
            assert_eq!(condensed.moved_any, regather.moved_any, "seed {seed}");
        }
        // And on the standing messy graph, against the hash-map reference.
        let g = messy_graph();
        let condensed = local_moving_condensed(&g, &config);
        let reference = reference_local_moving(&g, &config);
        assert_eq!(condensed.communities, reference.communities);
        assert_eq!(condensed.sweeps, reference.sweeps);
    }

    #[test]
    fn condensed_pass_degenerate_shapes() {
        let empty = AdjacencyGraph::from_edges(0, Vec::new());
        let out = local_moving_condensed(&empty, &LouvainConfig::default());
        assert!(!out.moved_any);
        assert!(out.communities.is_empty());

        // Isolated nodes only: zero total weight, nothing moves.
        let isolated = AdjacencyGraph::from_edges(3, Vec::new());
        let out = local_moving_condensed(&isolated, &LouvainConfig::default());
        assert!(!out.moved_any);
        assert_eq!(out.communities, vec![0, 1, 2]);
    }

    /// Golden thread-invariance test: the multi-core pass must reproduce
    /// the serial pass — and through it the seed's hash-map reference —
    /// byte for byte at every thread count, including counts far above
    /// the machine's core count and above the node count.
    #[test]
    fn parallel_pass_is_bit_identical_to_serial_and_reference() {
        let g = messy_graph();
        let serial_cfg = LouvainConfig::default().with_threads(1);
        let serial = local_moving_pass(&g, &serial_cfg);
        let reference = reference_local_moving(&g, &serial_cfg);
        assert_eq!(serial.communities, reference.communities);
        assert_eq!(serial.sweeps, reference.sweeps);
        for threads in [2usize, 3, 8, 61] {
            let cfg = LouvainConfig::default().with_threads(threads);
            let par = local_moving_pass(&g, &cfg);
            assert_eq!(par.communities, serial.communities, "{threads} threads");
            assert_eq!(par.sweeps, serial.sweeps, "{threads} threads");
            assert_eq!(par.moved_any, serial.moved_any, "{threads} threads");
        }
    }
}
