//! The serving loop a validator runs, driven layer by layer through the
//! crates' public functions: ingest a block into the graph, fold it into
//! the allocator, close the epoch, apply the migrations.
//!
//! The order of calls is `ShardedChainSim::run_epoch`'s exactly (decay,
//! blocks, rehydrate-before-a-full-read, `end_epoch`, `apply_update`,
//! residency advance), so a replay here is bit-identical to the simulator
//! on the same configuration — the self-test pins that. What the simulator
//! does not do is time each call; this loop times every call from the
//! outside, into a [`Tracer`] when one is enabled.

use std::time::Instant;

use txallo_core::{
    Allocation, AllocationUpdate, AllocatorRegistry, AtxAlloSession, EpochKind, GTxAlloPlan,
    HybridSchedule, StreamingAllocator, TxAlloParams,
};
use txallo_graph::{ResidencyConfig, TxGraph, WeightedGraph};
use txallo_model::Block;

use crate::host::HostSpeed;
use crate::trace::Tracer;

/// What the loop serves with: the allocator's knobs and the graph's
/// residency and decay.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Number of shards `k`.
    pub shards: usize,
    /// Cross-shard workload `η`.
    pub eta: f64,
    /// Residency window in epochs (`0` keeps every row in core).
    pub window: u32,
    /// Per-epoch edge-weight decay (`1.0` = none).
    pub decay: f64,
    /// TxAllo's global-refresh policy.
    pub schedule: HybridSchedule,
    /// Worker threads of the allocator kernels.
    pub threads: usize,
}

/// Timings of one served epoch, in seconds, from the untraced clock.
#[derive(Debug, Clone, Default)]
pub struct EpochTimes {
    /// Per block: `ingest_block_nodes` + `on_block_nodes`.
    pub blocks: Vec<f64>,
    /// The boundary: rehydration before a global epoch, `end_epoch`,
    /// `apply_update`, the residency advance and, when another epoch
    /// follows, its decay fold.
    pub boundary: f64,
    /// The host-speed sample taken between the last block and the
    /// boundary, in milliseconds.
    pub pause_ms: f64,
}

/// Results of the global-solve stages re-run from outside the stream.
#[derive(Debug, Clone, Copy)]
pub struct StageRerun {
    /// Louvain aggregation levels of the initialization.
    pub levels: usize,
    /// Optimization sweeps of the re-run solve.
    pub sweeps: usize,
    /// Whether the stages reproduced the stream's labels exactly.
    pub reproduced: bool,
}

/// The layer-driven serving loop.
#[derive(Debug)]
pub struct LayerLoop {
    cfg: LoopConfig,
    graph: TxGraph,
    stream: Box<dyn StreamingAllocator>,
    allocation: Allocation,
    /// Epochs served since `begin`.
    epoch: u64,
}

impl LayerLoop {
    /// An empty graph and an un-begun TxAllo stream.
    pub fn new(cfg: LoopConfig) -> Self {
        let mut graph = TxGraph::new();
        if cfg.window > 0 {
            graph.enable_residency(&ResidencyConfig::in_memory(cfg.window));
        }
        let stream = AllocatorRegistry::builtin()
            .streaming("txallo", &Self::params_with(&cfg, &graph), cfg.schedule)
            .expect("txallo is a builtin allocator");
        Self {
            cfg,
            graph,
            stream,
            allocation: Allocation::new(Vec::new(), cfg.shards),
            epoch: 0,
        }
    }

    fn params_with(cfg: &LoopConfig, graph: &TxGraph) -> TxAlloParams {
        let params = TxAlloParams::for_graph(graph, cfg.shards)
            .with_eta(cfg.eta)
            .with_threads(cfg.threads);
        // Cold rows read as empty, so with residency the adaptive update
        // must take the touched-rows-only snapshot route (the simulator's
        // rule; results are identical on either route).
        if cfg.window > 0 {
            params.with_incremental_threshold(1.0)
        } else {
            params
        }
    }

    /// The parameters a solve over the current graph runs with.
    pub fn params(&self) -> TxAlloParams {
        Self::params_with(&self.cfg, &self.graph)
    }

    /// The accumulated graph.
    pub fn graph(&self) -> &TxGraph {
        &self.graph
    }

    /// The serving mapping (the `begin` allocation with every update
    /// applied).
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The allocation stream.
    pub fn stream(&self) -> &dyn StreamingAllocator {
        self.stream.as_ref()
    }

    /// Whether the next served epoch is a scheduled global re-solve.
    pub fn next_is_global(&self) -> bool {
        self.cfg.schedule.is_global_epoch(self.epoch)
    }

    /// Set-up, first half: ingests one history block. Returns the seconds
    /// the graph took.
    pub fn ingest_history(&mut self, block: &Block, tr: &mut Tracer) -> f64 {
        let start = Instant::now();
        let open = tr.enter("graph.ingest_history");
        self.graph.ingest_block(block);
        tr.exit(open);
        start.elapsed().as_secs_f64()
    }

    /// Set-up, second half: opens the stream on the history (the one
    /// global solve every serving mode pays). Returns its seconds. Call
    /// [`LayerLoop::fold_decay`] before serving the first epoch.
    pub fn begin(&mut self, tr: &mut Tracer) -> f64 {
        let params = self.params();
        let start = Instant::now();
        let open = tr.enter("core.begin");
        self.allocation = self.stream.begin(&self.graph, &params);
        tr.exit(open);
        self.epoch = 0;
        start.elapsed().as_secs_f64()
    }

    /// Folds one epoch's decay into the graph and the stream (a no-op
    /// without decay). The simulator decays at the start of every epoch;
    /// this loop does it at the end of the previous boundary, and once
    /// after `begin`.
    pub fn fold_decay(&mut self, tr: &mut Tracer) {
        let decay = self.cfg.decay;
        tr.time("graph.decay", || {
            if decay < 1.0 {
                self.graph.apply_decay(decay);
            }
        });
        tr.time("core.reweight", || {
            if decay < 1.0 {
                self.stream.on_reweight(decay);
            }
        });
    }

    /// Serves one epoch: every block through ingestion and the fold, a
    /// host-speed sample, then the boundary. With `more`, the boundary
    /// ends with the next epoch's decay fold. `rerun` is called between
    /// `apply_update` and the residency advance — while the graph is
    /// exactly what `end_epoch` read — and its time is not part of the
    /// boundary.
    pub fn serve_epoch(
        &mut self,
        blocks: &[Block],
        more: bool,
        tr: &mut Tracer,
        host: &mut HostSpeed,
        mut rerun: impl FnMut(&Self, &AllocationUpdate, &mut Tracer),
    ) -> (EpochTimes, AllocationUpdate) {
        let mut times = EpochTimes {
            blocks: Vec::with_capacity(blocks.len()),
            boundary: 0.0,
            pause_ms: 0.0,
        };
        for b in blocks {
            let start = Instant::now();
            let open = tr.enter("block");
            let nodes = tr.time("graph.ingest", || self.graph.ingest_block_nodes(b));
            tr.time("core.fold", || {
                self.stream.on_block_nodes(&self.graph, b, &nodes)
            });
            tr.exit(open);
            times.blocks.push(start.elapsed().as_secs_f64());
        }

        times.pause_ms = host.sample();
        let global = self.next_is_global();
        let start = Instant::now();
        let open = tr.enter("boundary");
        if global && self.graph.residency_enabled() {
            // The residency read invariant: a global re-solve reads every
            // row, so every row must be in core first.
            tr.time("graph.rehydrate", || self.graph.ensure_all_resident());
        }
        let solve = if global {
            "core.global"
        } else {
            "core.adaptive"
        };
        let update = tr.time(solve, || {
            self.stream.end_epoch(&self.graph, EpochKind::Scheduled)
        });
        tr.time("core.apply_update", || {
            self.allocation.apply_update(&update)
        });
        tr.exit(open);
        times.boundary += start.elapsed().as_secs_f64();
        self.epoch += 1;

        rerun(self, &update, tr);

        let start = Instant::now();
        let open = tr.enter("boundary");
        tr.time("graph.evict", || self.graph.advance_residency_epoch());
        if more {
            self.fold_decay(tr);
        }
        tr.exit(open);
        times.boundary += start.elapsed().as_secs_f64();
        (times, update)
    }

    /// Rehydrates every cold row (the read invariant before a whole-graph
    /// read such as an audit or a checkpoint).
    pub fn ensure_all_resident(&mut self) {
        self.graph.ensure_all_resident();
    }

    /// Re-runs the global solve's public stages on the current graph —
    /// plan (canonical order, relabelled CSR, Louvain), Louvain alone on
    /// the plan's CSR, the optimization, the session build — each in its
    /// own span, and checks the result against `labels`.
    ///
    /// # Panics
    /// Panics if a cold row would be read: call only while every row the
    /// solve reads is resident.
    pub fn rerun_global_stages(&self, labels: &[u32], tr: &mut Tracer) -> StageRerun {
        let graph = &self.graph;
        let params = self.params();
        assert!(
            graph.memory_footprint().cold_rows == 0,
            "a global solve reads every row"
        );
        let open = tr.enter("rerun");
        let plan = tr.time("core.plan", || GTxAlloPlan::new(graph, &params.louvain));
        let louvain = tr.time("louvain.solve", || {
            txallo_louvain::louvain_csr(plan.csr(), &params.louvain)
        });
        let outcome = tr.time("core.optimize", || plan.allocate(&params));
        let session = tr.time("core.session_build", || {
            AtxAlloSession::new(graph, &outcome.allocation, &params)
        });
        tr.exit(open);
        let reproduced = outcome.allocation.labels() == labels
            && louvain.communities == plan.init().communities
            && session.labels() == labels
            && graph.node_count() == labels.len();
        StageRerun {
            levels: louvain.levels,
            sweeps: outcome.sweeps,
            reproduced,
        }
    }
}
