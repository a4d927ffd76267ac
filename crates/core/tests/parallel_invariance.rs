//! Thread-count invariance suite for the multi-core sweep engine.
//!
//! The determinism contract's "Parallel reduction" rule (ARCHITECTURE.md)
//! says a thread count is a *performance* knob: partition by canonical
//! row ranges, merge by position, never let a float fold cross a chunk
//! boundary — so the allocation trajectory is bit-identical at every
//! count. This suite pins that promise the same way
//! `chunked_fill_matches_serial_fill` pins the chunked CSR build:
//! proptest-generated multi-epoch delta streams are replayed at 1, 2, 3
//! and 8 threads, and *everything observable* must come out
//! byte-for-byte equal to the serial run — labels, per-epoch counters,
//! accumulated gains (compared as raw bits), and the full
//! [`AllocationUpdate`] diffs of the streaming surface. One warm
//! [`AtxAlloSession`] is also carried across longer streams, so the sweep
//! scratch it reuses between epochs is pinned at every count too.

use proptest::prelude::*;
use txallo_core::{
    AdaptiveStream, Allocation, AtxAllo, AtxAlloSession, EpochKind, GTxAllo, StreamingAllocator,
    TxAlloParams,
};
use txallo_graph::TxGraph;
use txallo_model::{AccountId, Block, Transaction};

/// Thread counts under test: serial, even, odd, oversubscribed.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn build_graph(pairs: &[(u64, u64)]) -> TxGraph {
    let mut g = TxGraph::new();
    for &(a, b) in pairs {
        g.ingest_transaction(&Transaction::transfer(AccountId(a), AccountId(b)));
    }
    g
}

/// Every third entry becomes a 3-account transaction so edge weights
/// include non-dyadic rationals (1/3) — summation-order bugs between the
/// serial and chunked gathers cannot hide behind exactly-representable
/// sums.
fn block_of(height: u64, pairs: &[(u64, u64)]) -> Block {
    Block::new(
        height,
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                if i % 3 == 2 {
                    Transaction::new(vec![AccountId(a)], vec![AccountId(b), AccountId(a + b + 1)])
                        .expect("non-empty account sets")
                } else {
                    Transaction::transfer(AccountId(a), AccountId(b))
                }
            })
            .collect(),
    )
}

/// A generated case: base transfers, epoch blocks of transfers, shard `k`.
type DeltaStream = (Vec<(u64, u64)>, Vec<Vec<(u64, u64)>>, usize);

/// Strategy: a base batch plus 1–3 epoch blocks over a wider account
/// range, so every epoch mixes existing accounts with brand-new ones
/// (phase 1 and phase 2 of the epoch sweep both run).
fn stream_strategy() -> impl Strategy<Value = DeltaStream> {
    (
        prop::collection::vec((0u64..30, 0u64..30), 10..80),
        prop::collection::vec(prop::collection::vec((0u64..45, 0u64..45), 1..25), 1..4),
        1usize..5,
    )
}

/// Everything one epoch update exposes, with floats as raw bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EpochTrace {
    labels: Vec<u32>,
    new_nodes: usize,
    sweeps: usize,
    moves: usize,
    total_gain_bits: u64,
}

/// Replays the whole delta stream at `threads` workers, recording every
/// epoch of both snapshot routes plus the dispatching entry point.
fn replay(stream: &DeltaStream, threads: usize) -> Vec<(EpochTrace, EpochTrace)> {
    let (base, epochs, k) = stream;
    let mut g = build_graph(base);
    let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
    let mut prev = GTxAllo::new(params).allocate_graph(&g);
    let mut out = Vec::new();
    for (h, pairs) in epochs.iter().enumerate() {
        let touched = g.ingest_block(&block_of(h as u64, pairs));
        let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
        let atx = AtxAllo::new(params);
        let inc = atx.update_incremental(&g, &prev, &touched);
        let full = atx.update_full(&g, &prev, &touched);
        let trace_of = |o: &txallo_core::AtxAlloOutcome| EpochTrace {
            labels: o.allocation.labels().to_vec(),
            new_nodes: o.new_nodes,
            sweeps: o.sweeps,
            moves: o.moves,
            total_gain_bits: o.total_gain.to_bits(),
        };
        out.push((trace_of(&inc), trace_of(&full)));
        prev = inc.allocation;
    }
    out
}

/// Strategy for the warm-session replay: 6–8 epochs of 1–30 transfers
/// each, so the touched set grows and shrinks across one session's life.
fn long_stream_strategy() -> impl Strategy<Value = DeltaStream> {
    (
        prop::collection::vec((0u64..30, 0u64..30), 10..80),
        prop::collection::vec(prop::collection::vec((0u64..45, 0u64..45), 1..30), 6..9),
        1usize..5,
    )
}

/// Replays the delta stream through **one** [`AtxAlloSession`] at
/// `threads` workers, so its sweep scratch stays warm across epochs;
/// records labels, counters and the aggregates' raw bits per epoch.
fn replay_session(stream: &DeltaStream, threads: usize) -> Vec<(EpochTrace, Vec<u64>)> {
    let (base, epochs, k) = stream;
    let mut g = build_graph(base);
    let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
    let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
    let mut session = AtxAlloSession::new(&g, &prev, &params);
    let mut out = Vec::new();
    for (h, pairs) in epochs.iter().enumerate() {
        let block = block_of(h as u64, pairs);
        let touched = g.ingest_block(&block);
        session.apply_block(&g, &block);
        let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
        let o = session.update(&g, &touched, &params);
        let trace = EpochTrace {
            labels: session.labels().to_vec(),
            new_nodes: o.new_nodes,
            sweeps: o.sweeps,
            moves: o.moves,
            total_gain_bits: o.total_gain.to_bits(),
        };
        let aggregates = (0..*k as u32)
            .flat_map(|c| [session.state().intra(c), session.state().cut(c)])
            .map(f64::to_bits)
            .collect();
        out.push((trace, aggregates));
    }
    out
}

/// Replays the streaming surface ([`AdaptiveStream`]) at `threads`
/// workers: begin on the base graph, feed each epoch's block, close with
/// the scheduled kind — recording the rendered [`AllocationUpdate`] (its
/// `Debug` form covers kind, path, carry and every account move) and the
/// full mapping after each epoch.
fn replay_stream(stream: &DeltaStream, threads: usize) -> Vec<(String, Allocation)> {
    let (base, epochs, k) = stream;
    let mut g = build_graph(base);
    let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
    let mut alloc = AdaptiveStream::new(params.clone());
    let _ = alloc.begin(&g, &params);
    let mut out = Vec::new();
    for (h, pairs) in epochs.iter().enumerate() {
        let block = block_of(h as u64, pairs);
        g.ingest_block(&block);
        alloc.on_block(&g, &block);
        // Alternate adaptive and forced-global closes so both the epoch
        // sweep and the G-TxAllo re-solve (whose Louvain initialization
        // also runs at `threads`) are exercised.
        let kind = if h % 2 == 0 {
            EpochKind::Adaptive
        } else {
            EpochKind::Global
        };
        let update = alloc.end_epoch(&g, kind);
        out.push((format!("{update:?}"), alloc.allocation()));
    }
    out
}

/// [`replay_stream`] on the interned route: blocks enter through
/// [`TxGraph::ingest_block_nodes`] and the stream through
/// [`StreamingAllocator::on_block_nodes`], so a warm session folds each
/// block's clique-expansion deltas through the canonical reduction tree
/// at `threads` workers.
fn replay_stream_nodes(stream: &DeltaStream, threads: usize) -> Vec<(String, Allocation)> {
    let (base, epochs, k) = stream;
    let mut g = build_graph(base);
    let params = TxAlloParams::for_graph(&g, *k).with_threads(threads);
    let mut alloc = AdaptiveStream::new(params.clone());
    let _ = alloc.begin(&g, &params);
    let mut out = Vec::new();
    for (h, pairs) in epochs.iter().enumerate() {
        let block = block_of(h as u64, pairs);
        let nodes = g.ingest_block_nodes(&block);
        alloc.on_block_nodes(&g, &block, &nodes);
        let kind = if h % 2 == 0 {
            EpochKind::Adaptive
        } else {
            EpochKind::Global
        };
        let update = alloc.end_epoch(&g, kind);
        out.push((format!("{update:?}"), alloc.allocation()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The A-TxAllo epoch sweep — both snapshot routes, chained across
    /// epochs — is bit-identical at every thread count.
    #[test]
    fn epoch_sweep_is_bit_identical_at_every_thread_count(stream in stream_strategy()) {
        let serial = replay(&stream, THREADS[0]);
        for &t in &THREADS[1..] {
            let traced = replay(&stream, t);
            prop_assert_eq!(&traced, &serial, "{} threads diverged", t);
        }
    }

    /// One warm session carried across 6–8 epochs — its sweep scratch
    /// re-laid every epoch for a touched set that grows and shrinks — is
    /// bit-identical at every thread count, aggregates included.
    #[test]
    fn warm_session_is_bit_identical_at_every_thread_count(stream in long_stream_strategy()) {
        let serial = replay_session(&stream, THREADS[0]);
        for &t in &THREADS[1..] {
            let traced = replay_session(&stream, t);
            prop_assert_eq!(&traced, &serial, "{} threads diverged", t);
        }
    }

    /// The streaming surface emits identical [`AllocationUpdate`] diffs
    /// and mappings at every thread count, across adaptive *and*
    /// forced-global epoch closes.
    #[test]
    fn allocation_updates_are_identical_at_every_thread_count(stream in stream_strategy()) {
        let serial = replay_stream(&stream, THREADS[0]);
        for &t in &THREADS[1..] {
            let traced = replay_stream(&stream, t);
            prop_assert_eq!(traced.len(), serial.len());
            for (epoch, (got, want)) in traced.iter().zip(&serial).enumerate() {
                prop_assert_eq!(&got.0, &want.0, "{} threads, epoch {}: diffs", t, epoch);
                prop_assert_eq!(
                    got.1.labels(),
                    want.1.labels(),
                    "{} threads, epoch {}: mapping",
                    t,
                    epoch
                );
            }
        }
    }
    /// The interned ingestion surface: block folding through the
    /// canonical reduction tree must match the serial fold at every
    /// thread count, *and* match the re-hashing `on_block` route (the
    /// two ingestion surfaces are contractually identical).
    #[test]
    fn block_node_folding_is_identical_at_every_thread_count(stream in stream_strategy()) {
        let serial = replay_stream_nodes(&stream, THREADS[0]);
        let rehash = replay_stream(&stream, THREADS[0]);
        prop_assert_eq!(serial.len(), rehash.len());
        for (epoch, (a, b)) in serial.iter().zip(&rehash).enumerate() {
            prop_assert_eq!(&a.0, &b.0, "interned vs re-hash, epoch {}: diffs", epoch);
            prop_assert_eq!(a.1.labels(), b.1.labels(), "interned vs re-hash, epoch {}", epoch);
        }
        for &t in &THREADS[1..] {
            let traced = replay_stream_nodes(&stream, t);
            prop_assert_eq!(traced.len(), serial.len());
            for (epoch, (got, want)) in traced.iter().zip(&serial).enumerate() {
                prop_assert_eq!(&got.0, &want.0, "{} threads, epoch {}: diffs", t, epoch);
                prop_assert_eq!(
                    got.1.labels(),
                    want.1.labels(),
                    "{} threads, epoch {}: mapping",
                    t,
                    epoch
                );
            }
        }
    }
}

/// A block big enough to cross the ingestion chunk quantum (2048 work
/// units), fed through the public interned surface: the warm session's
/// clique-expansion fold genuinely splits into canonical chunks and
/// merges through the reduction tree, and must land on the serial bits.
#[test]
fn oversized_block_folds_identically_at_every_thread_count() {
    let base: Vec<(u64, u64)> = (0..60).map(|i| (i % 19, (i * 11) % 29)).collect();
    // ~2700 transfers + 1300 three-account txs: > 6600 work units,
    // several canonical chunks.
    let big: Vec<(u64, u64)> = (0..4000)
        .map(|i| ((i * 7) % 211, (i * 13 + 5) % 197))
        .collect();
    let run = |threads: usize| {
        let stream: DeltaStream = (base.clone(), vec![big.clone()], 4);
        replay_stream_nodes(&stream, threads)
    };
    let serial = run(1);
    for t in [2usize, 3, 8] {
        let traced = run(t);
        assert_eq!(traced.len(), serial.len());
        for (epoch, (got, want)) in traced.iter().zip(&serial).enumerate() {
            assert_eq!(got.0, want.0, "{t} threads, epoch {epoch}: diffs");
            assert_eq!(
                got.1.labels(),
                want.1.labels(),
                "{t} threads, epoch {epoch}"
            );
        }
    }
}

/// Zero resolves to "one per core" and must of course also be invariant —
/// one deterministic spot-check outside proptest.
#[test]
fn thread_count_zero_matches_serial() {
    let stream: DeltaStream = (
        (0..40).map(|i| (i % 17, (i * 7) % 23)).collect(),
        vec![(0..20).map(|i| (i % 31, (i * 5) % 37)).collect()],
        4,
    );
    assert_eq!(replay(&stream, 0), replay(&stream, 1));
}
