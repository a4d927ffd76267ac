//! Out-of-core streaming replay benchmark: million-account epochs through
//! the full [`txallo_core::StreamingAllocator`] service loop without ever
//! materializing the ledger, with a §VI-B6-style per-phase time
//! decomposition and peak-resident-memory accounting.
//!
//! The loop mirrors `txallo_sim::ShardedChainSim::run_epoch` phase by
//! phase — synthesize, reweight, ingest, fold, update, score, evict — but
//! times each phase separately, which the driver deliberately does not.
//! The residency rules are the driver's exactly (incremental snapshot
//! route forced, rehydrate-all ahead of any full-graph read), so the run
//! is bit-identical to an in-core replay of the same workload.

use std::path::PathBuf;
use std::time::Instant;

use txallo_core::{AllocatorRegistry, EpochKind, HybridSchedule, TxAlloParams};
use txallo_graph::{MemoryFootprint, ResidencyConfig, TxGraph, WeightedGraph};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

/// Configuration of one streaming replay run.
#[derive(Debug, Clone)]
pub struct StreamBenchConfig {
    /// Initially existing accounts (births add more over the run).
    pub accounts: usize,
    /// Warm-up epochs (history before the service opens).
    pub warm_epochs: u64,
    /// Served epochs after warm-up.
    pub epochs: u64,
    /// Blocks per epoch.
    pub epoch_blocks: u64,
    /// Transactions per block.
    pub block_size: usize,
    /// Number of shards `k`.
    pub shards: usize,
    /// Residency window in epochs (0 = keep every row in core).
    pub window: u32,
    /// Spill cold rows to this file (created or truncated) instead of an
    /// in-memory log. Changes where cold bytes live, never an output.
    pub spill_file: Option<PathBuf>,
    /// Per-epoch edge-weight decay (1.0 = none).
    pub decay: f64,
    /// Global-refresh gap (0 = adaptive-only epochs; warm-up always runs
    /// one global solve either way).
    pub global_gap: u64,
    /// Workload seed.
    pub seed: u64,
}

impl StreamBenchConfig {
    /// A replay at `accounts` initial accounts with paper-shaped defaults:
    /// 1000-transaction blocks, 50-block epochs (so the default 60-epoch
    /// run replays 3.5M transactions), recency decay, k = 20.
    pub fn at_scale(accounts: usize) -> Self {
        Self {
            accounts,
            warm_epochs: 10,
            epochs: 60,
            epoch_blocks: 50,
            block_size: 1_000,
            shards: 20,
            window: 4,
            spill_file: None,
            decay: 0.9,
            global_gap: 0,
            seed: 42,
        }
    }
}

/// Wall-clock totals of each service-loop phase, in seconds, summed over
/// all served epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Synthesizing the epoch's blocks from the counter-based streams.
    pub generate: f64,
    /// Decay rescale of graph weights + session aggregates.
    pub reweight: f64,
    /// Graph ingestion (interning, slab row merges, rehydration).
    pub ingest: f64,
    /// Folding block deltas into the allocator's warm aggregates.
    pub fold: f64,
    /// Epoch-boundary allocation update (snapshot + sweep + diff).
    pub update: f64,
    /// Scoring the epoch under the updated mapping.
    pub score: f64,
    /// Residency epoch advance (eviction + spill serialization).
    pub evict: f64,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.generate
            + self.reweight
            + self.ingest
            + self.fold
            + self.update
            + self.score
            + self.evict
    }
}

/// Everything one replay run measured.
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    /// The configuration that produced it.
    pub config: StreamBenchConfig,
    /// Distinct accounts interned by the end (initial + births).
    pub distinct_accounts: usize,
    /// Transactions replayed (warm-up + served epochs).
    pub transactions: u64,
    /// Warm-up wall clock: history ingestion + the one global solve.
    pub warmup_seconds: f64,
    /// Per-phase totals over the served epochs.
    pub phases: PhaseTimes,
    /// Peak of (graph resident bytes + allocator state bytes) sampled at
    /// every epoch boundary.
    pub peak_resident_bytes: usize,
    /// Peak of the graph's resident bytes alone.
    pub peak_graph_bytes: usize,
    /// The footprint at the end of the run.
    pub final_footprint: MemoryFootprint,
    /// Allocator serving-state bytes at the end of the run.
    pub final_allocator_bytes: usize,
    /// Mean normalized throughput over the served epochs.
    pub avg_throughput: f64,
}

impl StreamBenchReport {
    /// The report as one hand-formatted JSON object (the BENCH snapshot
    /// embeds it verbatim).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let p = &self.phases;
        let f = &self.final_footprint;
        format!(
            "{{\"workload\": {{\"accounts\": {}, \"epochs\": {}, \"epoch_blocks\": {}, \
             \"block_size\": {}, \"k\": {}, \"window\": {}, \"decay\": {}, \"seed\": {}}}, \
             \"distinct_accounts\": {}, \"transactions\": {}, \
             \"warmup_seconds\": {:.3}, \
             \"phase_seconds\": {{\"generate\": {:.3}, \"reweight\": {:.3}, \"ingest\": {:.3}, \
             \"fold\": {:.3}, \"update\": {:.3}, \"score\": {:.3}, \"evict\": {:.3}, \
             \"total\": {:.3}}}, \
             \"peak_resident_mib\": {:.1}, \"peak_graph_mib\": {:.1}, \
             \"spilled_mib\": {:.1}, \"spill_bytes\": {}, \"evicted_rows\": {}, \
             \"restored_rows\": {}, \"final_cold_rows\": {}, \"final_resident_rows\": {}, \
             \"final_allocator_mib\": {:.1}, \"avg_throughput_times\": {:.3}, \
             \"avg_throughput_bits\": \"{:016x}\"}}",
            c.accounts,
            c.epochs,
            c.epoch_blocks,
            c.block_size,
            c.shards,
            c.window,
            c.decay,
            c.seed,
            self.distinct_accounts,
            self.transactions,
            self.warmup_seconds,
            p.generate,
            p.reweight,
            p.ingest,
            p.fold,
            p.update,
            p.score,
            p.evict,
            p.total(),
            self.peak_resident_bytes as f64 / MIB,
            self.peak_graph_bytes as f64 / MIB,
            f.spill_bytes as f64 / MIB,
            f.spill_bytes,
            f.evicted_rows,
            f.restored_rows,
            f.cold_rows,
            f.resident_rows,
            self.final_allocator_bytes as f64 / MIB,
            self.avg_throughput,
            self.avg_throughput.to_bits(),
        )
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Runs the out-of-core replay and returns its measurements.
pub fn run_stream_bench(cfg: &StreamBenchConfig) -> StreamBenchReport {
    let total_blocks = (cfg.warm_epochs + cfg.epochs) * cfg.epoch_blocks;
    let wl = WorkloadConfig {
        accounts: cfg.accounts,
        transactions: total_blocks as usize * cfg.block_size,
        block_size: cfg.block_size,
        groups: (cfg.accounts / 50).max(10),
        new_account_prob: 0.002,
        ..WorkloadConfig::default()
    };
    wl.validate();
    let workload = StreamingWorkload::new(wl, cfg.seed);

    let mut graph = TxGraph::new();
    if cfg.window > 0 {
        graph.enable_residency(&match &cfg.spill_file {
            Some(path) => ResidencyConfig::file(cfg.window, path),
            None => ResidencyConfig::in_memory(cfg.window),
        });
    }
    let schedule = if cfg.global_gap == 0 {
        HybridSchedule::AlwaysAdaptive
    } else {
        HybridSchedule::Hybrid {
            global_gap: cfg.global_gap,
        }
    };
    let params_for = |graph: &TxGraph, window: u32| {
        let p = TxAlloParams::for_graph(graph, cfg.shards)
            .with_threads(txallo_graph::par::threads_from_env());
        // Cold rows read as empty, so the adaptive update must take the
        // touched-rows-only snapshot route (the driver's rule).
        if window > 0 {
            p.with_incremental_threshold(1.0)
        } else {
            p
        }
    };
    let mut stream = AllocatorRegistry::builtin()
        .streaming("txallo", &params_for(&graph, cfg.window), schedule)
        .expect("txallo is registered");

    // Warm-up: stream the history in (one block alive at a time), then the
    // one global solve every serving mode pays.
    let warm_start = Instant::now();
    for b in workload.block_iter(0..cfg.warm_epochs * cfg.epoch_blocks) {
        graph.ingest_block(&b);
    }
    let mut allocation = stream.begin(&graph, &params_for(&graph, cfg.window));
    let warmup_seconds = warm_start.elapsed().as_secs_f64();

    let mut phases = PhaseTimes::default();
    let mut peak_resident = 0usize;
    let mut peak_graph = 0usize;
    let mut transactions = cfg.warm_epochs * cfg.epoch_blocks * cfg.block_size as u64;
    let mut throughput_sum = 0.0;

    for epoch in 0..cfg.epochs {
        let t = Instant::now();
        let blocks = workload.epoch_blocks(cfg.warm_epochs + epoch, cfg.epoch_blocks);
        phases.generate += t.elapsed().as_secs_f64();

        if cfg.decay < 1.0 {
            let t = Instant::now();
            graph.apply_decay(cfg.decay);
            stream.on_reweight(cfg.decay);
            phases.reweight += t.elapsed().as_secs_f64();
        }

        for b in &blocks {
            let t = Instant::now();
            let nodes = graph.ingest_block_nodes(b);
            phases.ingest += t.elapsed().as_secs_f64();
            let t = Instant::now();
            stream.on_block_nodes(&graph, b, &nodes);
            phases.fold += t.elapsed().as_secs_f64();
            transactions += b.len() as u64;
        }

        let t = Instant::now();
        if cfg.global_gap != 0 && schedule.is_global_epoch(epoch) {
            // The residency read invariant: a global re-solve reads every
            // row, so every row must be in core first.
            graph.ensure_all_resident();
        }
        let update = stream.end_epoch(&graph, EpochKind::Scheduled);
        allocation.apply_update(&update);
        phases.update += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let metrics = txallo_sim::epoch_metrics(&blocks, &graph, &allocation, cfg.shards, 2.0);
        throughput_sum += metrics.throughput_normalized;
        phases.score += t.elapsed().as_secs_f64();

        let t = Instant::now();
        graph.advance_residency_epoch();
        phases.evict += t.elapsed().as_secs_f64();

        let fp = graph.memory_footprint();
        peak_graph = peak_graph.max(fp.resident_bytes());
        peak_resident = peak_resident.max(fp.resident_bytes() + stream.state_bytes());
    }

    StreamBenchReport {
        config: cfg.clone(),
        distinct_accounts: graph.node_count(),
        transactions,
        warmup_seconds,
        phases,
        peak_resident_bytes: peak_resident,
        peak_graph_bytes: peak_graph,
        final_footprint: graph.memory_footprint(),
        final_allocator_bytes: stream.state_bytes(),
        avg_throughput: throughput_sum / cfg.epochs.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_reports_and_evicts() {
        let cfg = StreamBenchConfig {
            accounts: 3_000,
            warm_epochs: 2,
            epochs: 6,
            epoch_blocks: 5,
            block_size: 100,
            shards: 4,
            window: 1,
            spill_file: None,
            decay: 0.9,
            global_gap: 3,
            seed: 7,
        };
        let report = run_stream_bench(&cfg);
        // Zipf activity: not every configured account transacts in a short
        // run, but most of the head does (plus births past the initial
        // id space).
        assert!(report.distinct_accounts > 1_000);
        assert_eq!(report.transactions, 8 * 5 * 100);
        assert!(report.final_footprint.evicted_rows > 0, "window must evict");
        assert!(report.peak_resident_bytes >= report.peak_graph_bytes);
        assert!(report.avg_throughput > 1.0, "sharding must help");
        let json = report.to_json();
        assert!(json.contains("\"phase_seconds\""));
        assert!(json.contains("\"peak_resident_mib\""));
    }

    #[test]
    fn file_backed_spill_matches_the_in_memory_replay() {
        let memory = StreamBenchConfig {
            accounts: 3_000,
            warm_epochs: 2,
            epochs: 5,
            epoch_blocks: 4,
            block_size: 100,
            shards: 4,
            window: 1,
            spill_file: None,
            decay: 0.9,
            global_gap: 3,
            seed: 9,
        };
        let path =
            std::env::temp_dir().join(format!("txallo-stream-bench-{}.spill", std::process::id()));
        let file = StreamBenchConfig {
            spill_file: Some(path.clone()),
            ..memory.clone()
        };
        let (m, f) = (run_stream_bench(&memory), run_stream_bench(&file));
        let on_disk = std::fs::metadata(&path).map(|md| md.len());
        let _ = std::fs::remove_file(&path);
        let (mf, ff) = (&m.final_footprint, &f.final_footprint);
        assert!(mf.evicted_rows > 0, "window must evict");
        assert_eq!(m.avg_throughput.to_bits(), f.avg_throughput.to_bits());
        assert_eq!(
            (mf.evicted_rows, mf.restored_rows, mf.spill_bytes),
            (ff.evicted_rows, ff.restored_rows, ff.spill_bytes)
        );
        assert_eq!(on_disk.ok(), Some(ff.spill_bytes), "the log is on disk");
    }
}
