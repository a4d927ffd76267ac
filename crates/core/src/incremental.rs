//! The shared epoch-update sweep kernel behind A-TxAllo (Algorithm 2).
//!
//! Both A-TxAllo paths — the incremental delta-CSR snapshot and the
//! full-graph fallback — produce the same [`DeltaCsr`] row layout, so one
//! kernel serves both. It runs the two phases of Algorithm 2 over the
//! snapshot rows:
//!
//! 1. **Placement** (lines 1–8): brand-new accounts join the community
//!    with the best join gain (Eq. 6), ties toward the least-loaded
//!    community.
//! 2. **Optimization** (lines 9–17): sweep `V̂` until the total gain of a
//!    sweep drops below `ε`, moving each node to its best-gain community
//!    (Eq. 8).
//!
//! Phase 2 reuses the exact stamp-based skipping scheme proven out on the
//! G-TxAllo optimization sweep (see `gtxallo.rs`): a node's decision
//! depends on (a) its per-community link weights — which change only when
//! a *snapshot neighbor* moves, external neighbors being frozen for the
//! epoch — and (b) the accounting state of the communities it touches
//! (Lemma 1). Candidate lists are cached, in a flat row-ordered
//! [`CandidateCache`] arena, until a snapshot neighbor moves
//! (`DeltaCsr::local_of` identifies the propagation edges), and a node
//! whose candidates *and* touched communities are unchanged since its last
//! evaluation is skipped outright. All reuse is bit-exact: the trajectory
//! is identical to re-gathering every node every sweep, which the golden
//! tests assert against a cache-free reference.

use txallo_graph::{par, CandidateCache, DeltaCsr, DenseAccumulator};
use txallo_louvain::GAIN_EPS;

use crate::state::{gather_labels_blocked, CommunityState, UNASSIGNED};

/// Counters reported by one epoch sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpochSweepOutcome {
    /// Brand-new accounts placed in phase 1.
    pub new_nodes: usize,
    /// Optimization sweeps executed in phase 2.
    pub sweeps: usize,
    /// Total throughput gain accumulated in phase 2.
    pub total_gain: f64,
    /// Node moves committed across both phases.
    pub moves: usize,
}

/// Reusable buffers of the epoch sweep — the per-row stamp arrays, the
/// snapshot-local label mirror, the candidate cache and the dense gather
/// accumulators. A serving session carries one of these across epochs so
/// the per-epoch cost contains no buffer allocation at all once
/// capacities have warmed up. A warm scratch is observationally identical
/// to a fresh one: every array is re-initialized to the values a fresh
/// allocation would hold, only capacity survives.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    acc: DenseAccumulator,
    last_eval: Vec<u64>,
    gathered_at: Vec<u64>,
    links_dirty: Vec<u64>,
    comm_stamp: Vec<u64>,
    /// `local_labels[i]` mirrors `labels[snap.global_id(i)]` during phase
    /// 2, so the per-visit label read is sequential in sweep order.
    local_labels: Vec<u32>,
    /// Candidate lists, one slot of `min(row length, k)` entries per
    /// snapshot row, re-laid per sweep call.
    cands: CandidateCache,
    /// One accumulator per worker chunk of the multi-core pre-gather
    /// (empty until a sweep actually runs with `threads > 1`).
    pool: Vec<DenseAccumulator>,
}

impl SweepScratch {
    /// Re-initializes every buffer for a sweep over `snap`'s rows and `k`
    /// communities.
    fn reset(&mut self, snap: &DeltaCsr, k: usize) {
        let t = snap.len();
        reset_fill(&mut self.last_eval, t, 0);
        reset_fill(&mut self.gathered_at, t, 0);
        reset_fill(&mut self.links_dirty, t, 1);
        reset_fill(&mut self.comm_stamp, k, 1);
        self.local_labels.clear();
        // A row's candidates are distinct assigned labels of its
        // neighbors: at most one per neighbor and one per community.
        let offsets = snap.offsets();
        self.cands
            .layout(t, |i| ((offsets[i + 1] - offsets[i]) as usize).min(k));
    }

    /// Approximate resident bytes across every retained buffer
    /// (capacity-based), including the per-worker accumulator pool and the
    /// candidate arena.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let stamps = (self.last_eval.capacity()
            + self.gathered_at.capacity()
            + self.links_dirty.capacity()
            + self.comm_stamp.capacity())
            * size_of::<u64>();
        let mirror = self.local_labels.capacity() * size_of::<u32>();
        let pool = self.pool.iter().map(|a| a.approx_bytes()).sum::<usize>();
        self.acc.approx_bytes() + stamps + mirror + self.cands.approx_bytes() + pool
    }
}

/// `vec![value; len]` semantics over a retained buffer.
fn reset_fill(buf: &mut Vec<u64>, len: usize, value: u64) {
    buf.clear();
    buf.resize(len, value);
}

/// Gathers row `local`'s per-community link weights into `acc` (sorted
/// ascending on return), mirroring `CommunityState::gather_links` but over
/// snapshot rows: canonical neighbor order, weights toward [`UNASSIGNED`]
/// neighbors kept out of the candidate set. Runs the shared blocked
/// gather strip ([`gather_labels_blocked`]) — bit-identical to the scalar
/// loop.
#[inline]
fn gather_row(snap: &DeltaCsr, local: usize, labels: &[u32], k: usize, acc: &mut DenseAccumulator) {
    acc.begin(k);
    let (targets, weights) = snap.row(local);
    gather_labels_blocked(targets, weights, labels, |cu, w| {
        if cu != UNASSIGNED {
            acc.add(cu, w);
        }
    });
    acc.sort_touched();
}

/// Runs both phases of Algorithm 2 over `snap`, committing moves into
/// `labels` (global node-id space) and `state`.
///
/// `epsilon`/`max_sweeps` bound the phase-2 loop exactly as in the classic
/// implementation. `threads` only chooses *how* the candidate gathers are
/// computed: `<= 1` gathers each row at its turn, larger counts also
/// refresh every stale gather concurrently whenever the labels are frozen
/// (see [`pregather`]) — bit-identical labels, gains and sweep counts at
/// any count (pinned by the `parallel_invariance` suite).
pub(crate) fn epoch_sweep(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    epsilon: f64,
    max_sweeps: usize,
    scratch: &mut SweepScratch,
    threads: usize,
) -> EpochSweepOutcome {
    let t = snap.len();
    let k = state.community_count();
    scratch.reset(snap, k);
    let threads = par::resolve_threads(threads);
    let bounds =
        (threads > 1).then(|| par::entry_balanced_split(snap.offsets(), threads.min(t.max(1))));
    if let Some(bounds) = &bounds {
        if scratch.pool.len() < bounds.len() - 1 {
            scratch
                .pool
                .resize_with(bounds.len() - 1, DenseAccumulator::default);
        }
    }
    let mut out = EpochSweepOutcome::default();

    // ---- Phase 1 (lines 1–8): place brand-new nodes.
    match &bounds {
        None => place_serial(snap, labels, state, k, &mut scratch.acc, &mut out),
        Some(bounds) => place_pregathered(snap, labels, state, k, bounds, scratch, &mut out),
    }

    // ---- Phase 2 (lines 9–17): optimize over V̂ with stamp skipping.
    scratch
        .local_labels
        .extend((0..t).map(|i| labels[snap.global_id(i) as usize]));
    let mut move_stamp: u64 = 1; // bumped on every committed move
    loop {
        if let Some(bounds) = &bounds {
            // Refresh every stale gather against the sweep-boundary labels.
            let SweepScratch {
                gathered_at,
                links_dirty,
                cands,
                pool,
                ..
            } = &mut *scratch;
            let (ld, ga): (&[u64], &[u64]) = (links_dirty, gathered_at);
            pregather(snap, labels, k, bounds, cands, pool, |i| ld[i] > ga[i]);
            for i in 0..t {
                if links_dirty[i] > gathered_at[i] {
                    gathered_at[i] = move_stamp;
                }
            }
        }
        let delta = optimize_pass(snap, labels, state, k, scratch, &mut move_stamp, &mut out);
        out.sweeps += 1;
        if delta < epsilon || out.sweeps >= max_sweeps {
            break;
        }
    }

    out
}

/// Gathers every row `i` with `stale(i)` into its candidate slot against
/// the frozen `labels`, in parallel over the canonical row ranges
/// `bounds` ([`par::entry_balanced_split`] over [`DeltaCsr::offsets`]):
/// each chunk writes only its own window of the cache, with its own
/// accumulator.
///
/// **Why this keeps the sweep bit-identical to the serial one.** A row's
/// candidate gather is a pure function of (row, neighbor labels), and the
/// kernel already tracks exactly when that input changes: every committed
/// move dirties the snapshot rows adjacent to the mover (`links_dirty`),
/// and only snapshot rows ever change labels during an epoch. Refreshing
/// the stale gathers while the labels are frozen — once before the
/// placement loop, once at each phase-2 sweep boundary — therefore stores
/// exactly the lists a serial visit would gather. The decision loops that
/// follow are the serial ones: same visit order, same cached bits (a cache
/// invalidated by an earlier in-loop commit is re-gathered at its turn),
/// hence the same move sequence, float by float. No gain or accounting
/// update ever crosses a chunk boundary.
fn pregather(
    snap: &DeltaCsr,
    labels: &[u32],
    k: usize,
    bounds: &[usize],
    cands: &mut CandidateCache,
    pool: &mut [DenseAccumulator],
    stale: impl Fn(usize) -> bool + Sync,
) {
    let mut windows = cands.windows_mut(bounds);
    par::for_each_part_mut(&mut windows, pool, |window, acc| {
        for i in window.rows() {
            if stale(i) {
                gather_row(snap, i, labels, k, acc);
                window.store(i, acc);
            }
        }
    });
}

/// Phase 1, gathering each brand-new row at its turn.
fn place_serial(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    k: usize,
    acc: &mut DenseAccumulator,
    out: &mut EpochSweepOutcome,
) {
    for i in 0..snap.len() {
        let g = snap.global_id(i) as usize;
        if labels[g] != UNASSIGNED {
            continue;
        }
        out.new_nodes += 1;
        gather_row(snap, i, labels, k, acc);
        let (self_w, d_v) = (snap.self_loop(i), snap.incident_weight(i));
        let (q, w_vq) = state.best_join(self_w, d_v, acc.entries());
        state.apply_join(q, self_w, d_v, w_vq);
        labels[g] = q;
        out.moves += 1;
    }
}

/// Phase 1 over gathers refreshed in parallel against the pre-placement
/// labels ([`pregather`]); a row whose gather an earlier placement
/// invalidated re-gathers at its turn. Leaves the stamp arrays as phase 2
/// expects them: every row stale, nothing evaluated.
fn place_pregathered(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    k: usize,
    bounds: &[usize],
    scratch: &mut SweepScratch,
    out: &mut EpochSweepOutcome,
) {
    let t = snap.len();
    let SweepScratch {
        acc,
        gathered_at,
        links_dirty,
        cands,
        pool,
        ..
    } = scratch;
    {
        let labels_ro: &[u32] = labels;
        pregather(snap, labels_ro, k, bounds, cands, pool, |i| {
            labels_ro[snap.global_id(i) as usize] == UNASSIGNED
        });
    }
    let mut stamp: u64 = 1; // phase-1 local; reset before phase 2
    for i in 0..t {
        if labels[snap.global_id(i) as usize] == UNASSIGNED {
            gathered_at[i] = stamp;
        }
    }
    for i in 0..t {
        let g = snap.global_id(i) as usize;
        if labels[g] != UNASSIGNED {
            continue;
        }
        out.new_nodes += 1;
        if links_dirty[i] > gathered_at[i] {
            gather_row(snap, i, labels, k, acc);
            gathered_at[i] = stamp;
            cands.store(i, acc);
        }
        let (bucket, weight) = cands.get(i);
        let (self_w, d_v) = (snap.self_loop(i), snap.incident_weight(i));
        let (q, w_vq) = state.best_join(
            self_w,
            d_v,
            bucket.iter().copied().zip(weight.iter().copied()),
        );
        state.apply_join(q, self_w, d_v, w_vq);
        labels[g] = q;
        out.moves += 1;
        stamp += 1;
        let (targets, _) = snap.row(i);
        for &u in targets {
            if let Some(lt) = snap.local_of(u) {
                links_dirty[lt as usize] = stamp;
            }
        }
    }
    links_dirty.fill(1);
    gathered_at.fill(0);
}

/// One phase-2 sweep over the snapshot rows in order (lines 10–16),
/// returning the sweep's total gain.
///
/// A row's decision depends on (a) its cached candidates, valid until a
/// snapshot neighbor moves (`links_dirty` vs `gathered_at`), and (b) the
/// accounting state of its own and its candidate communities
/// (`comm_stamp` vs `last_eval`); a row whose inputs are all unchanged
/// since its last evaluation is skipped outright.
fn optimize_pass(
    snap: &DeltaCsr,
    labels: &mut [u32],
    state: &mut CommunityState,
    k: usize,
    scratch: &mut SweepScratch,
    move_stamp: &mut u64,
    out: &mut EpochSweepOutcome,
) -> f64 {
    let SweepScratch {
        acc,
        last_eval,
        gathered_at,
        links_dirty,
        comm_stamp,
        local_labels,
        cands,
        ..
    } = scratch;
    let mut delta = 0.0;
    for i in 0..snap.len() {
        let p = local_labels[i];
        if links_dirty[i] <= gathered_at[i] {
            let seen = last_eval[i];
            if comm_stamp[p as usize] <= seen
                && cands
                    .get(i)
                    .0
                    .iter()
                    .all(|&c| comm_stamp[c as usize] <= seen)
            {
                continue; // Inputs unchanged: evaluation would no-op.
            }
        } else {
            gather_row(snap, i, labels, k, acc);
            gathered_at[i] = *move_stamp;
            cands.store(i, acc);
        }
        last_eval[i] = *move_stamp;
        let (bucket, weight) = cands.get(i);
        if bucket.is_empty() || (bucket.len() == 1 && bucket[0] == p) {
            continue; // C_v = ∅ or v only touches its own community.
        }
        let self_w = snap.self_loop(i);
        let d_v = snap.incident_weight(i);
        let w_vp = bucket
            .iter()
            .position(|&c| c == p)
            .map_or(0.0, |j| weight[j]);
        let leave = state.leave_gain(p, self_w, d_v, w_vp);

        // Candidates are sorted ascending; a later candidate must beat
        // the best by > GAIN_EPS.
        let mut best: Option<(u32, f64, f64)> = None; // (q, gain, w_vq)
        for (&q, &w_vq) in bucket.iter().zip(weight) {
            if q == p {
                continue;
            }
            let gain = leave + state.join_gain(q, self_w, d_v, w_vq);
            match best {
                Some((_, bg, _)) if gain <= bg + GAIN_EPS => {}
                _ => best = Some((q, gain, w_vq)),
            }
        }
        if let Some((q, gain, w_vq)) = best {
            if gain > 0.0 {
                state.apply_leave(p, self_w, d_v, w_vp);
                state.apply_join(q, self_w, d_v, w_vq);
                labels[snap.global_id(i) as usize] = q;
                local_labels[i] = q;
                delta += gain;
                out.total_gain += gain;
                out.moves += 1;
                *move_stamp += 1;
                comm_stamp[p as usize] = *move_stamp;
                comm_stamp[q as usize] = *move_stamp;
                // Only snapshot members can move, so only they cache
                // link weights that just went stale. The `local_of`
                // lookup is paid per committed move, not per edge of
                // the snapshot build.
                let (targets, _) = snap.row(i);
                for &u in targets {
                    if let Some(lt) = snap.local_of(u) {
                        links_dirty[lt as usize] = *move_stamp;
                    }
                }
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TxAlloParams;
    use txallo_graph::{NodeId, TxGraph};
    use txallo_model::{AccountId, Transaction};

    /// The scratch's byte count covers the candidate arena by capacity and
    /// does not creep upward when epochs of one shape land different
    /// accounts on each row.
    #[test]
    fn scratch_bytes_count_the_arena_and_stay_flat() {
        // A circulant graph: every account has the same degree (6), so
        // any touched set of a given size yields the same slot layout.
        let n = 48u64;
        let mut g = TxGraph::new();
        for v in 0..n {
            for d in [1u64, 2, 5] {
                g.ingest_transaction(&Transaction::transfer(AccountId(v), AccountId((v + d) % n)));
            }
        }
        let k = 4;
        let params = TxAlloParams::for_graph(&g, k);
        let initial: Vec<u32> = (0..n as u32).map(|v| (v * 7 % 11) % k as u32).collect();
        let mut scratch = SweepScratch::default();
        let mut warm_bytes = None;
        for round in 0..8u32 {
            // Same size, rotated membership: each row holds a different
            // account every round.
            let touched: Vec<NodeId> = (0..16u32).map(|i| (3 * i + round) % n as u32).collect();
            let snap = DeltaCsr::snapshot_touched(&g, &touched);
            let mut labels = initial.clone();
            let mut state =
                CommunityState::from_labels(&g, &labels, k, params.eta, params.capacity);
            epoch_sweep(
                &snap,
                &mut labels,
                &mut state,
                params.epsilon,
                params.max_sweeps,
                &mut scratch,
                1,
            );
            let widths: usize = (0..snap.len()).map(|i| snap.row(i).0.len().min(k)).sum();
            assert_eq!(widths, 16 * k, "fixture: every slot is k wide");
            assert!(
                scratch.cands.approx_bytes() >= widths * 12 + (2 * snap.len() + 1) * 4,
                "the arena is counted by capacity"
            );
            assert!(scratch.approx_bytes() >= scratch.cands.approx_bytes() + 3 * 16 * 8);
            let bytes = scratch.approx_bytes();
            match warm_bytes {
                None => warm_bytes = Some(bytes),
                Some(first) => assert_eq!(bytes, first, "round {round}: scratch grew"),
            }
        }
    }
}
