//! A-TxAllo — the adaptive allocation algorithm (Algorithm 2).

use txallo_graph::{NodeId, TxGraph};

use crate::allocation::Allocation;
use crate::params::TxAlloParams;
use crate::session::AtxAlloSession;

/// The adaptive TxAllo algorithm: starting from the previous allocation, it
/// (1) places the brand-new accounts of the freshly committed blocks and
/// (2) re-optimizes only the touched node set `V̂`, giving `O(|V̂|·k)`
/// running time — constant in chain length (§V-C).
///
/// The epoch sweep never runs on the mutable hash-map adjacency: the
/// touched-set neighborhood is frozen into a
/// [`DeltaCsr`](txallo_graph::DeltaCsr) snapshot first
/// and all sweeps iterate flat rows with stamp-based skipping (see
/// `crate::incremental`). Two snapshot routes exist — the incremental
/// delta build and the full-graph CSR fallback — chosen by
/// [`TxAlloParams::incremental_threshold`] on the touched fraction.
/// Both routes produce byte-identical allocations (golden-tested).
///
/// This type is the *stateless* entry point: each call rebuilds the
/// community aggregates from the whole graph (`O(n + m)`). A serving
/// system processing an epoch stream should hold an
/// [`AtxAlloSession`] instead, which carries the
/// aggregates across epochs; every method here simply opens a throwaway
/// session and runs one update through it.
#[derive(Debug, Clone)]
pub struct AtxAllo {
    params: TxAlloParams,
}

/// Which snapshot route an adaptive update took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePath {
    /// Delta-CSR snapshot of the touched neighborhood only
    /// ([`DeltaCsr::snapshot_touched`](txallo_graph::DeltaCsr::snapshot_touched)).
    Incremental,
    /// Whole graph frozen into a CSR, touched rows extracted
    /// ([`DeltaCsr::snapshot_full`](txallo_graph::DeltaCsr::snapshot_full)).
    Full,
}

/// Counters of one adaptive update, as a long-lived [`AtxAlloSession`]
/// reports them: the updated labels stay in the session
/// ([`AtxAlloSession::labels`]), so a serving epoch copies nothing `O(n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtxAlloCounters {
    /// How many brand-new accounts were placed (phase 1).
    pub new_nodes: usize,
    /// Optimization sweeps over `V̂` (phase 2).
    pub sweeps: usize,
    /// Total throughput gain accumulated in phase 2.
    pub total_gain: f64,
    /// Node moves committed across both phases.
    pub moves: usize,
    /// Which snapshot route the update took.
    pub path: UpdatePath,
}

/// Outcome of an adaptive update.
#[derive(Debug, Clone)]
pub struct AtxAlloOutcome {
    /// The updated account-shard mapping (covers every node of the graph).
    pub allocation: Allocation,
    /// How many brand-new accounts were placed (phase 1).
    pub new_nodes: usize,
    /// Optimization sweeps over `V̂` (phase 2).
    pub sweeps: usize,
    /// Total throughput gain accumulated in phase 2.
    pub total_gain: f64,
    /// Node moves committed across both phases.
    pub moves: usize,
    /// Which snapshot route produced this outcome.
    pub path: UpdatePath,
}

impl AtxAlloOutcome {
    /// Joins a throwaway session's counters with the labels moved out of it.
    fn from_session(session: AtxAlloSession, counters: AtxAlloCounters) -> Self {
        Self {
            allocation: session.into_allocation(),
            new_nodes: counters.new_nodes,
            sweeps: counters.sweeps,
            total_gain: counters.total_gain,
            moves: counters.moves,
            path: counters.path,
        }
    }
}

impl AtxAllo {
    /// Creates the adaptive allocator.
    pub fn new(params: TxAlloParams) -> Self {
        Self { params }
    }

    /// The hyper-parameters in use.
    pub fn params(&self) -> &TxAlloParams {
        &self.params
    }

    /// Updates `previous` after the graph has ingested new blocks.
    ///
    /// * `graph` — the transaction graph *after* ingestion;
    /// * `previous` — the allocation produced for the graph before
    ///   ingestion (its labels cover a prefix of the node ids, because the
    ///   interner only appends);
    /// * `touched` — the node set `V̂` returned by
    ///   [`TxGraph::ingest_block`] for the new blocks.
    ///
    /// Dispatches between [`AtxAllo::update_incremental`] and
    /// [`AtxAllo::update_full`] on the touched fraction
    /// `|V̂| / |V| ≤` [`TxAlloParams::incremental_threshold`]; the choice
    /// affects running time only, never the result.
    pub fn update(
        &self,
        graph: &TxGraph,
        previous: &Allocation,
        touched: &[NodeId],
    ) -> AtxAlloOutcome {
        let mut session = AtxAlloSession::new(graph, previous, &self.params);
        let counters = session.update(graph, touched, &self.params);
        AtxAlloOutcome::from_session(session, counters)
    }

    /// [`AtxAllo::update`] forced onto the incremental delta-CSR route:
    /// only `V̂` and its incident edges are snapshotted.
    pub fn update_incremental(
        &self,
        graph: &TxGraph,
        previous: &Allocation,
        touched: &[NodeId],
    ) -> AtxAlloOutcome {
        self.update_routed(graph, previous, touched, UpdatePath::Incremental)
    }

    /// [`AtxAllo::update`] forced onto the full-recompute route: the whole
    /// graph is frozen into a CSR in global id space (the same
    /// `CsrGraph::from_graph` machinery G-TxAllo snapshots with — no
    /// renumbering, because labels are indexed by global ids), and the
    /// touched rows are extracted and swept in canonical order.
    pub fn update_full(
        &self,
        graph: &TxGraph,
        previous: &Allocation,
        touched: &[NodeId],
    ) -> AtxAlloOutcome {
        self.update_routed(graph, previous, touched, UpdatePath::Full)
    }

    /// One update through a throwaway session on a forced route.
    fn update_routed(
        &self,
        graph: &TxGraph,
        previous: &Allocation,
        touched: &[NodeId],
        path: UpdatePath,
    ) -> AtxAlloOutcome {
        let mut session = AtxAlloSession::new(graph, previous, &self.params);
        let counters = session.update_with_route(graph, touched, &self.params, path);
        AtxAlloOutcome::from_session(session, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtxallo::GTxAllo;
    use txallo_graph::WeightedGraph;
    use txallo_model::{AccountId, Block, Transaction};

    fn base_graph() -> TxGraph {
        let mut g = TxGraph::new();
        // Two clusters: {0..5} and {10..15}.
        for base in [0u64, 10] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.ingest_transaction(&Transaction::transfer(
                        AccountId(base + i),
                        AccountId(base + j),
                    ));
                }
            }
        }
        g
    }

    #[test]
    fn new_account_joins_its_cluster() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);

        // New account 100 transacts heavily with cluster 0.
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(100), AccountId(1)),
                Transaction::transfer(AccountId(100), AccountId(2)),
            ],
        );
        let touched = g.ingest_block(&block);
        let out = AtxAllo::new(params).update(&g, &prev, &touched);
        assert_eq!(out.new_nodes, 1);
        let n100 = g.node_of(AccountId(100)).unwrap();
        let n0 = g.node_of(AccountId(0)).unwrap();
        assert_eq!(
            out.allocation.shard_of(n100),
            out.allocation.shard_of(n0),
            "account 100 must join cluster 0's shard"
        );
    }

    #[test]
    fn preserves_untouched_assignments() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![Transaction::transfer(AccountId(200), AccountId(201))],
        );
        let touched = g.ingest_block(&block);
        let out = AtxAllo::new(params).update(&g, &prev, &touched);
        // Every pre-existing node keeps its shard (none were touched).
        for v in 0..prev.len() as NodeId {
            assert_eq!(
                out.allocation.shard_of(v),
                prev.shard_of(v),
                "node {v} moved"
            );
        }
    }

    #[test]
    fn migrating_account_follows_its_new_partners() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let n0 = g.node_of(AccountId(0)).unwrap();
        let n10 = g.node_of(AccountId(10)).unwrap();
        assert_ne!(
            prev.shard_of(n0),
            prev.shard_of(n10),
            "clusters start apart"
        );

        // Account 0 now interacts overwhelmingly with cluster 1.
        let txs: Vec<Transaction> = (0..40)
            .map(|i| Transaction::transfer(AccountId(0), AccountId(10 + (i % 5))))
            .collect();
        let block = Block::new(0, txs);
        let touched = g.ingest_block(&block);
        let out = AtxAllo::new(params).update(&g, &prev, &touched);
        let n0_shard = out.allocation.shard_of(n0);
        assert_eq!(
            n0_shard,
            out.allocation.shard_of(n10),
            "account 0 must migrate"
        );
        assert!(out.total_gain > 0.0);
    }

    #[test]
    fn disconnected_new_account_is_still_placed() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![Transaction::transfer(AccountId(500), AccountId(500))],
        );
        let touched = g.ingest_block(&block);
        let out = AtxAllo::new(params).update(&g, &prev, &touched);
        let n = g.node_of(AccountId(500)).unwrap();
        assert!(out.allocation.shard_of(n).index() < 2);
        assert_eq!(out.allocation.len(), g.node_count());
    }

    #[test]
    fn is_deterministic() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(
            0,
            vec![
                Transaction::transfer(AccountId(100), AccountId(0)),
                Transaction::transfer(AccountId(101), AccountId(10)),
                Transaction::transfer(AccountId(100), AccountId(101)),
            ],
        );
        let touched = g.ingest_block(&block);
        let a = AtxAllo::new(params.clone()).update(&g, &prev, &touched);
        let b = AtxAllo::new(params).update(&g, &prev, &touched);
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn dispatch_follows_the_touched_fraction() {
        let mut g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let block = Block::new(0, vec![Transaction::transfer(AccountId(100), AccountId(0))]);
        let touched = g.ingest_block(&block); // 2 of 11 nodes
        let inc = AtxAllo::new(params.clone().with_incremental_threshold(1.0))
            .update(&g, &prev, &touched);
        assert_eq!(inc.path, UpdatePath::Incremental);
        let full = AtxAllo::new(params.with_incremental_threshold(0.0)).update(&g, &prev, &touched);
        assert_eq!(full.path, UpdatePath::Full);
        assert_eq!(
            inc.allocation, full.allocation,
            "route choice must not change the result"
        );
        assert_eq!(
            (inc.new_nodes, inc.sweeps, inc.moves),
            (full.new_nodes, full.sweeps, full.moves)
        );
    }

    #[test]
    fn empty_touched_set_is_a_noop() {
        let g = base_graph();
        let params = TxAlloParams::for_graph(&g, 2);
        let prev = GTxAllo::new(params.clone()).allocate_graph(&g);
        let out = AtxAllo::new(params).update(&g, &prev, &[]);
        assert_eq!(out.allocation, prev);
        assert_eq!(out.new_nodes, 0);
        assert_eq!(out.moves, 0);
    }
}
