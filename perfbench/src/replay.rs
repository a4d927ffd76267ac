//! The layer-driven workloads: synthesize a ledger from the seed, set the
//! service up on its history, serve epochs through [`LayerLoop`], then
//! check the outputs and restart the service from checkpoints.

use std::time::Instant;

use txallo_core::checkpoint::{decode_checkpoint, encode_checkpoint};
use txallo_core::{
    AllocationUpdate, AllocatorRegistry, HybridSchedule, StateCarry, UpdateKind, UpdatePath,
};
use txallo_graph::{MemoryFootprint, WeightedGraph};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

use crate::host::{HostSpeed, Timings};
use crate::layer::{LayerLoop, LoopConfig, StageRerun};
use crate::output::Output;
use crate::probe::{self, Snapshot};
use crate::stats::{median, quantile, Digest};
use crate::trace::{Tracer, SETUP_EPOCH};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// History blocks between two host-speed samples during a set-up.
const SETUP_SAMPLE_BLOCKS: usize = 25;

/// The ledger and the run's size, which every workload has.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Initially existing accounts (births add more).
    pub accounts: usize,
    /// History blocks ingested during set-up.
    pub history_blocks: u64,
    /// Blocks per served epoch.
    pub epoch_blocks: u64,
    /// Transactions per block.
    pub block_size: usize,
    /// Served epochs before timing starts.
    pub warm_epochs: u64,
    /// Fewest timed epochs, whatever `--seconds` says.
    pub min_epochs: u64,
    /// Timed epochs per second of `--seconds`: about the rate the
    /// reference machine serves them at, so a run measures for about
    /// `--seconds` there.
    pub epochs_per_s: f64,
    /// Set-ups per run; `setup_s` is their median and the last one serves.
    pub setups: usize,
}

impl Shape {
    /// Timed epochs for a run of `seconds`.
    pub fn timed_epochs(&self, seconds: f64) -> u64 {
        ((seconds * self.epochs_per_s).round() as u64).max(self.min_epochs)
    }

    /// The seeded ledger generator, sized for `timed` timed epochs.
    pub fn workload(&self, seed: u64, timed: u64) -> StreamingWorkload {
        let blocks = self.history_blocks + (self.warm_epochs + timed) * self.epoch_blocks;
        let config = WorkloadConfig {
            accounts: self.accounts,
            transactions: blocks as usize * self.block_size,
            block_size: self.block_size,
            groups: (self.accounts / 50).max(10),
            new_account_prob: 0.002,
            ..WorkloadConfig::default()
        };
        StreamingWorkload::new(config, seed)
    }
}

/// A layer-driven workload.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Ledger and run size.
    pub shape: Shape,
    /// Allocator, residency and decay knobs.
    pub serve: LoopConfig,
    /// Checkpoint/resume cycles after timing.
    pub resume_cycles: usize,
}

/// What one served epoch did — all of it a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// Global re-solve or adaptive update.
    pub kind: UpdateKind,
    /// The adaptive update's snapshot route.
    pub path: Option<UpdatePath>,
    /// Accounts that changed shard.
    pub migrations: usize,
    /// Accounts placed for the first time.
    pub placements: usize,
    /// Moves in the update's diff.
    pub moves: usize,
    /// Distinct accounts the epoch's blocks touched.
    pub touched: usize,
    /// Transactions served.
    pub transactions: usize,
    /// Cross-shard transactions among them, under the updated mapping.
    pub cross_shard: usize,
    /// Normalized throughput of the epoch (exact bits).
    pub throughput_bits: u64,
}

impl EpochRecord {
    /// The record of `update`, with the epoch's score when it was scored.
    pub fn new(
        update: &AllocationUpdate,
        touched: usize,
        score: Option<&txallo_sim::EpochMetrics>,
    ) -> Self {
        Self {
            kind: update.kind,
            path: update.path,
            migrations: update.migrations(),
            placements: update.placements(),
            moves: update.moves.len(),
            touched,
            transactions: score.map_or(0, |m| m.transactions),
            cross_shard: score.map_or(0, |m| m.cross_shard),
            throughput_bits: score.map_or(0, |m| m.throughput_normalized.to_bits()),
        }
    }
}

/// Everything one replay measured, before checks.
#[derive(Debug)]
pub struct Replay {
    /// The service after the last timed epoch.
    pub serving: LayerLoop,
    /// Seconds of each set-up: history ingest plus `begin`.
    pub setup_s: Timings,
    /// Seconds per timed block.
    pub block_s: Timings,
    /// Seconds per timed boundary.
    pub boundary_s: Timings,
    /// The host-speed samples.
    pub host: HostSpeed,
    /// Every served epoch, warm-up ones first.
    pub records: Vec<EpochRecord>,
    /// Epoch ids of the timed epochs.
    pub timed: std::ops::Range<u64>,
    /// Peak of graph resident bytes plus allocator state bytes.
    pub peak_resident_bytes: usize,
    /// Graph footprint when timing started and ended.
    pub footprint: (MemoryFootprint, MemoryFootprint),
    /// Process and machine counters when timing started and ended.
    pub probes: (Snapshot, Snapshot),
    /// Wall seconds of the timed region.
    pub timed_wall_s: f64,
    /// Global-solve stage re-runs (traced runs only).
    pub reruns: Vec<StageRerun>,
    /// Checkpoint restarts made during the timed epochs.
    pub restarts: Restarts,
    /// The spans.
    pub tracer: Tracer,
}

/// Sets up, serves `warm_epochs` untimed and `timed` timed epochs.
pub fn replay(spec: &ReplaySpec, seed: u64, timed: u64, traced: bool) -> Replay {
    let mut tr = Tracer::new(traced);
    let workload = tr.time("workload.generate", || spec.shape.workload(seed, timed));
    let history = tr.time("workload.generate", || {
        workload.blocks(0..spec.shape.history_blocks)
    });

    let mut host = HostSpeed::default();
    let mut setup_s = Timings::default();
    let mut serving: Option<LayerLoop> = None;
    for _ in 0..spec.shape.setups.max(1) {
        // Drop the previous set-up first, so two never share memory.
        drop(serving.take());
        let mut fresh = LayerLoop::new(spec.serve);
        let mut secs = 0.0;
        // A set-up lasts about a second: sample the host speed along it,
        // between the timed calls, not only at its ends.
        let mut speed = vec![host.sample()];
        for (height, block) in history.iter().enumerate() {
            secs += fresh.ingest_history(block, &mut tr);
            if height % SETUP_SAMPLE_BLOCKS == SETUP_SAMPLE_BLOCKS - 1 {
                speed.push(host.sample());
            }
        }
        secs += fresh.begin(&mut tr);
        speed.push(host.sample());
        setup_s.push(secs, HostSpeed::factor(&speed));
        serving = Some(fresh);
    }
    let mut serving = serving.expect("at least one set-up");
    drop(history);

    let mut reruns = Vec::new();
    if traced {
        // The set-up's `begin` is a global solve too.
        let labels = serving.allocation().labels().to_vec();
        reruns.push(serving.rerun_global_stages(&labels, &mut tr));
    }
    serving.fold_decay(&mut tr);

    let total = spec.shape.warm_epochs + timed;
    let timed_ids = spec.shape.warm_epochs..total;
    let mut records = Vec::with_capacity(total as usize);
    let mut block_s = Timings::default();
    let mut boundary_s = Timings::default();
    let mut peak = resident_bytes(&serving);
    let mut touched = TouchedCounter::default();
    let mut footprint_start = MemoryFootprint::default();
    let mut probe_start = Snapshot::default();
    let mut timed_start = Instant::now();
    // Restarts are spread over the timed epochs, between them and outside
    // every timing, so their median spans the run. With residency they
    // wait until timing ends instead: an image needs every row resident,
    // and rehydrating mid-run would disturb the eviction being measured.
    let mut restarts = Restarts::default();
    let restart_every = (spec.serve.window == 0 && spec.resume_cycles > 0)
        .then(|| (timed / spec.resume_cycles as u64).max(1));

    for epoch in 0..total {
        if epoch == timed_ids.start {
            footprint_start = serving.graph().memory_footprint();
            probe_start = Snapshot::now();
            timed_start = Instant::now();
        }
        tr.set_epoch(epoch);
        let height = spec.shape.history_blocks + epoch * spec.shape.epoch_blocks;
        let blocks = tr.time("workload.generate", || {
            workload.blocks(height..height + spec.shape.epoch_blocks)
        });
        let before = host.sample();
        let (times, update) = serving.serve_epoch(
            &blocks,
            epoch + 1 < total,
            &mut tr,
            &mut host,
            |lp, update, tr| {
                if traced && update.kind == UpdateKind::Global {
                    let labels = lp.allocation().labels().to_vec();
                    reruns.push(lp.rerun_global_stages(&labels, tr));
                }
            },
        );
        let after = host.sample();
        if timed_ids.contains(&epoch) {
            let factor = HostSpeed::factor(&[before, times.pause_ms]);
            for &secs in &times.blocks {
                block_s.push(secs, factor);
            }
            boundary_s.push(times.boundary, HostSpeed::factor(&[times.pause_ms, after]));
        }
        peak = peak.max(resident_bytes(&serving));

        let metrics = tr.time("sim.score", || {
            txallo_sim::epoch_metrics(
                &blocks,
                serving.graph(),
                serving.allocation(),
                spec.serve.shards,
                spec.serve.eta,
            )
        });
        let distinct = if traced {
            touched.count(&blocks, serving.graph())
        } else {
            0
        };
        records.push(EpochRecord::new(&update, distinct, Some(&metrics)));
        if let Some(every) = restart_every {
            let due = timed_ids.contains(&epoch) && (epoch + 1 - timed_ids.start) % every == 0;
            if due && restarts.resume_ms.raw.len() < spec.resume_cycles {
                restarts.cycle(&serving, spec.serve.schedule, &mut host);
            }
        }
    }
    let timed_wall_s = timed_start.elapsed().as_secs_f64();
    let probe_end = Snapshot::now();
    let footprint_end = serving.graph().memory_footprint();

    Replay {
        serving,
        setup_s,
        block_s,
        boundary_s,
        host,
        records,
        timed: timed_ids,
        peak_resident_bytes: peak,
        footprint: (footprint_start, footprint_end),
        probes: (probe_start, probe_end),
        timed_wall_s,
        reruns,
        restarts,
        tracer: tr,
    }
}

fn resident_bytes(lp: &LayerLoop) -> usize {
    lp.graph().memory_footprint().resident_bytes() + lp.stream().state_bytes()
}

/// Distinct accounts per epoch, counted outside every timed region.
#[derive(Debug, Default)]
pub struct TouchedCounter {
    stamp: Vec<u64>,
    round: u64,
}

impl TouchedCounter {
    /// Distinct accounts `blocks` touch, all interned in `graph`.
    pub fn count(
        &mut self,
        blocks: &[txallo_model::Block],
        graph: &txallo_graph::TxGraph,
    ) -> usize {
        self.round += 1;
        self.stamp.resize(graph.node_count(), 0);
        let mut distinct = 0;
        for tx in blocks.iter().flat_map(|b| b.transactions()) {
            for account in tx.account_set() {
                let v = graph
                    .node_of(account)
                    .expect("served accounts are interned") as usize;
                if self.stamp[v] != self.round {
                    self.stamp[v] = self.round;
                    distinct += 1;
                }
            }
        }
        distinct
    }
}

impl Replay {
    /// The digest that must repeat across runs of one seed, at any
    /// thread count.
    pub fn digest(&self) -> Digest {
        records_digest(self.serving.allocation().labels(), &self.records)
    }

    fn timed_records(&self) -> &[EpochRecord] {
        &self.records[self.timed.start as usize..]
    }
}

/// The digest that must repeat across runs of one seed: final labels and
/// every epoch record. Memory is left out — worker scratch makes it
/// depend on the thread count — and checked across runs on its own.
pub fn records_digest(labels: &[u32], records: &[EpochRecord]) -> Digest {
    let mut d = Digest::default();
    d.labels(labels);
    for r in records {
        d.bytes(&[u8::from(r.kind == UpdateKind::Global)]);
        for v in [
            r.migrations,
            r.placements,
            r.moves,
            r.transactions,
            r.cross_shard,
        ] {
            d.bytes(&(v as u64).to_le_bytes());
        }
        d.bytes(&r.throughput_bits.to_le_bytes());
    }
    d
}

/// Checks the outputs, restarts the service from checkpoints, and reports
/// every metric: the end-to-end ones untraced, the per-layer ones traced.
pub fn finish(spec: &ReplaySpec, mut run: Replay, out: &mut Output) -> Digest {
    let traced = run.tracer.enabled();
    let digest = run.digest();
    let k = spec.serve.shards;
    // Every served block and every boundary is one operation.
    out.operations += run.records.len() as u64 * (spec.shape.epoch_blocks + 1);

    // Every interned account has a label in 0..k, and the applied diffs
    // reproduce the stream's own mapping.
    let labels = run.serving.allocation().labels();
    let nodes = run.serving.graph().node_count();
    let in_range = labels.len() == nodes && labels.iter().all(|&l| (l as usize) < k);
    out.check(
        "every account labelled in 0..k",
        in_range,
        format!("{} labels, {nodes} accounts", labels.len()),
    );
    let lossless = run.serving.stream().allocation().labels() == labels;
    out.check(
        "applied diffs match the stream",
        lossless,
        format!("{lossless}"),
    );

    // The maintained aggregates agree with a from-scratch recomputation.
    run.serving.ensure_all_resident();
    let graph = run.serving.graph();
    let tolerance = 1e-9 * graph.total_weight().max(1.0);
    let err = run.serving.stream().consistency_error(graph);
    out.check(
        "consistency_error within tolerance",
        err.is_some_and(|e| e <= tolerance),
        format!("{err:?} <= {tolerance:e}"),
    );
    if traced {
        let ok = run.reruns.iter().all(|r| r.reproduced);
        out.check(
            "global-solve stages reproduce the stream's labels",
            ok && !run.reruns.is_empty(),
            format!("{} re-runs", run.reruns.len()),
        );
    }

    if run.restarts.resume_ms.raw.is_empty() {
        for _ in 0..spec.resume_cycles {
            run.restarts
                .cycle(&run.serving, spec.serve.schedule, &mut run.host);
        }
    }
    let restarts = &run.restarts;
    let cycles = restarts.resume_ms.raw.len();
    out.operations += cycles as u64;
    out.check(
        "resumed service re-encodes to its image",
        restarts.identical == cycles && restarts.identical > 0,
        format!("{}/{cycles} byte-identical", restarts.identical),
    );

    let timed = run.timed_records();
    if !traced {
        end_to_end_metrics(
            &EndToEnd {
                block_s: &run.block_s,
                boundary_s: &run.boundary_s,
                setup_s: &run.setup_s,
                resume_ms: &restarts.resume_ms,
                peak_resident_bytes: run.peak_resident_bytes,
                records: timed,
            },
            out,
        );
        return digest;
    }

    layer_metrics(
        &LayerView {
            tracer: &run.tracer,
            timed: run.timed.clone(),
            records: timed,
            footprint: run.footprint,
            reruns: &run.reruns,
            state_bytes: run.serving.stream().state_bytes(),
        },
        out,
    );
    // No consensus substrate in a layer-driven replay.
    for (name, unit) in crate::chain::CONSENSUS_METRICS {
        out.metric(name, 0.0, unit);
    }
    out.metric(
        "chain.checkpoint_ms",
        median(&restarts.encode_ms).unwrap_or(f64::NAN),
        "ms",
    );
    out.metric(
        "chain.checkpoint_kib",
        restarts.image_bytes as f64 / 1024.0,
        "KiB",
    );
    process_metrics(
        &run.probes,
        run.timed_wall_s,
        &run.host,
        &run.tracer,
        run.timed.clone(),
        out,
    );
    digest
}

/// What the end-to-end metrics are computed from.
#[derive(Debug)]
pub struct EndToEnd<'a> {
    /// Seconds per timed block.
    pub block_s: &'a Timings,
    /// Seconds per timed boundary.
    pub boundary_s: &'a Timings,
    /// Seconds per set-up.
    pub setup_s: &'a Timings,
    /// Milliseconds per restart.
    pub resume_ms: &'a Timings,
    /// Peak resident bytes.
    pub peak_resident_bytes: usize,
    /// The timed epochs' records.
    pub records: &'a [EpochRecord],
}

/// The end-to-end metrics, from the untraced run: the timings scaled to
/// the reference host speed, then the deterministic metrics. The raw
/// timings go to the information line.
pub fn end_to_end_metrics(e: &EndToEnd<'_>, out: &mut Output) {
    timing_metrics(e, true, out);
    let mut raw = Output::default();
    timing_metrics(e, false, &mut raw);
    out.raw_timings = Some(raw.metrics_json());

    let epochs = e.records.len().max(1) as f64;
    let served_tx: usize = e.records.iter().map(|r| r.transactions).sum();
    let cross: usize = e.records.iter().map(|r| r.cross_shard).sum();
    out.metric(
        "peak_resident_mib",
        e.peak_resident_bytes as f64 / MIB,
        "MiB",
    );
    out.metric(
        "cross_shard_ratio",
        cross as f64 / served_tx.max(1) as f64,
        "ratio",
    );
    let throughput: f64 = e
        .records
        .iter()
        .map(|r| f64::from_bits(r.throughput_bits))
        .sum();
    out.metric("throughput_x", throughput / epochs, "x");
    let migrations: usize = e.records.iter().map(|r| r.migrations).sum();
    out.metric(
        "migrations_per_epoch",
        migrations as f64 / epochs,
        "accounts",
    );
}

/// The timing metrics, from the scaled or the raw timings.
fn timing_metrics(e: &EndToEnd<'_>, scaled: bool, out: &mut Output) {
    let q = |xs: &[f64], p: f64| quantile(xs, p).unwrap_or(f64::NAN);
    let served_tx: usize = e.records.iter().map(|r| r.transactions).sum();
    let block_s = e.block_s.get(scaled);
    let boundary_s = e.boundary_s.get(scaled);
    let busy_s: f64 = block_s.iter().sum::<f64>() + boundary_s.iter().sum::<f64>();
    let block_ms: Vec<f64> = block_s.iter().map(|s| s * 1e3).collect();
    let boundary_ms: Vec<f64> = boundary_s.iter().map(|s| s * 1e3).collect();
    out.metric("tx_per_s", served_tx as f64 / busy_s, "tx/s");
    out.metric("block_ms.p50", q(&block_ms, 0.5), "ms");
    out.metric("block_ms.p99", q(&block_ms, 0.99), "ms");
    out.metric("boundary_ms.p50", q(&boundary_ms, 0.5), "ms");
    out.metric("boundary_ms.p90", q(&boundary_ms, 0.9), "ms");
    out.metric(
        "setup_s",
        median(e.setup_s.get(scaled)).unwrap_or(f64::NAN),
        "s",
    );
    out.metric(
        "resume_ms",
        median(e.resume_ms.get(scaled)).unwrap_or(f64::NAN),
        "ms",
    );
}

/// What the per-layer metrics of a layer-driven loop are computed from.
#[derive(Debug)]
pub struct LayerView<'a> {
    /// The traced run's spans.
    pub tracer: &'a Tracer,
    /// Epoch ids of the timed epochs.
    pub timed: std::ops::Range<u64>,
    /// The timed epochs' records.
    pub records: &'a [EpochRecord],
    /// Graph footprint when timing started and ended.
    pub footprint: (MemoryFootprint, MemoryFootprint),
    /// Global-solve stage re-runs.
    pub reruns: &'a [StageRerun],
    /// Allocator state bytes when timing ended.
    pub state_bytes: usize,
}

/// The graph, core, louvain, workload and sim metrics of a traced loop.
pub fn layer_metrics(v: &LayerView<'_>, out: &mut Output) {
    let tr = v.tracer;
    let q = |xs: &[f64], p: f64| quantile(xs, p).unwrap_or(f64::NAN);
    let total = |name: &str| tr.durations(name, v.timed.clone()).iter().sum::<f64>();
    let ms = |name: &str, epochs: std::ops::RangeInclusive<u64>| -> Vec<f64> {
        tr.durations(name, epochs).iter().map(|s| s * 1e3).collect()
    };
    let timed_ms = |name: &str| ms(name, v.timed.start..=v.timed.end.saturating_sub(1));
    let all = 0..=SETUP_EPOCH;
    let epochs = v.records.len().max(1) as f64;
    let mean =
        |f: fn(&EpochRecord) -> usize| v.records.iter().map(f).sum::<usize>() as f64 / epochs;
    let (fp0, fp1) = v.footprint;

    out.metric("workload.generate_s", total("workload.generate"), "s");
    out.metric("graph.ingest_s", total("graph.ingest"), "s");
    out.metric(
        "graph.accounts",
        (fp1.resident_rows + fp1.cold_rows) as f64,
        "count",
    );
    out.metric(
        "graph.rows_restored",
        fp1.restored_rows.saturating_sub(fp0.restored_rows) as f64,
        "count",
    );
    out.metric("graph.evict_s", total("graph.evict"), "s");
    out.metric(
        "graph.rows_evicted",
        fp1.evicted_rows.saturating_sub(fp0.evicted_rows) as f64,
        "count",
    );
    out.metric("graph.spill_mib", fp1.spill_bytes as f64 / MIB, "MiB");
    out.metric(
        "graph.resident_mib",
        fp1.resident_bytes() as f64 / MIB,
        "MiB",
    );
    out.metric("graph.decay_s", total("graph.decay"), "s");
    out.metric("core.reweight_s", total("core.reweight"), "s");
    out.metric("core.fold_s", total("core.fold"), "s");
    let adaptive = timed_ms("core.adaptive");
    out.metric("core.adaptive_ms.p50", q(&adaptive, 0.5), "ms");
    out.metric("core.adaptive_ms.p90", q(&adaptive, 0.9), "ms");
    out.metric("core.touched_rows", mean(|r| r.touched), "rows/epoch");
    let adaptive_n = v
        .records
        .iter()
        .filter(|r| r.kind == UpdateKind::Adaptive)
        .count();
    let incremental = v
        .records
        .iter()
        .filter(|r| r.path == Some(UpdatePath::Incremental))
        .count();
    out.metric(
        "core.incremental_share",
        incremental as f64 / adaptive_n.max(1) as f64,
        "ratio",
    );
    out.metric("core.apply_update_s", total("core.apply_update"), "s");
    // Served global epochs when there are any; otherwise the serving
    // set-up's `begin`, the one global solve such a workload runs.
    let mut global = timed_ms("core.global");
    if global.is_empty() {
        global = ms("core.begin", SETUP_EPOCH..=SETUP_EPOCH);
        global.drain(..global.len().saturating_sub(1));
    }
    out.metric("core.global_ms.p50", q(&global, 0.5), "ms");
    out.metric("core.plan_ms", q(&ms("core.plan", all.clone()), 0.5), "ms");
    out.metric(
        "louvain.solve_ms",
        q(&ms("louvain.solve", all.clone()), 0.5),
        "ms",
    );
    let reruns = v.reruns.len().max(1) as f64;
    out.metric(
        "louvain.levels",
        v.reruns.iter().map(|r| r.levels).sum::<usize>() as f64 / reruns,
        "count",
    );
    out.metric(
        "core.optimize_ms",
        q(&ms("core.optimize", all.clone()), 0.5),
        "ms",
    );
    out.metric(
        "core.global_sweeps",
        v.reruns.iter().map(|r| r.sweeps).sum::<usize>() as f64 / reruns,
        "count",
    );
    out.metric(
        "core.session_build_ms",
        q(&ms("core.session_build", all), 0.5),
        "ms",
    );
    out.metric("core.state_mib", v.state_bytes as f64 / MIB, "MiB");
    out.metric("core.moves_per_epoch", mean(|r| r.moves), "accounts");
    out.metric(
        "core.placements_per_epoch",
        mean(|r| r.placements),
        "accounts",
    );
    out.metric("sim.score_s", total("sim.score"), "s");
}

/// The process metrics every traced run reports: CPU, run-queue wait,
/// steal, peak RSS and the tracing overhead over the timed region.
pub fn process_metrics(
    probes: &(Snapshot, Snapshot),
    wall_s: f64,
    host: &HostSpeed,
    tr: &Tracer,
    epochs: std::ops::Range<u64>,
    out: &mut Output,
) {
    let (a, b) = probes;
    let cpu = b.cpu_s - a.cpu_s;
    out.metric("process.cpu_per_wall", cpu / wall_s, "ratio");
    out.metric("process.rss_peak_mib", probe::rss_peak_mib(), "MiB");
    out.metric("process.cpu_s", cpu, "s");
    out.metric(
        "process.runqueue_wait_s",
        b.runqueue_wait_ns.saturating_sub(a.runqueue_wait_ns) as f64 * 1e-9,
        "s",
    );
    out.metric(
        "process.steal_ticks",
        b.steal_ticks.saturating_sub(a.steal_ticks) as f64,
        "count",
    );
    out.metric("process.host_kernel_ms", host.median_ms(), "ms");
    out.metric("bench.trace_overhead", tr.overhead(epochs, wall_s), "ratio");
}

/// Checkpoint restarts of a layer-driven service, timed from outside.
#[derive(Debug, Default)]
pub struct Restarts {
    encode_ms: Vec<f64>,
    resume_ms: Timings,
    identical: usize,
    image_bytes: usize,
}

impl Restarts {
    /// One cycle: encode the service's checkpoint image, restart a fresh
    /// stream from it — decode plus warm import, the timed part — and
    /// check that the restarted service re-encodes to the image byte for
    /// byte. The restarted copy is dropped; `lp` keeps serving. Every row
    /// of `lp` must be resident.
    fn cycle(&mut self, lp: &LayerLoop, schedule: HybridSchedule, host: &mut HostSpeed) {
        let state = lp
            .stream()
            .export_state()
            .expect("TxAllo streams checkpoint");
        let start = Instant::now();
        let image = encode_checkpoint(lp.graph(), &state, &[]);
        self.encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.image_bytes = image.len();

        let params = lp.params();
        let before = host.sample();
        let start = Instant::now();
        let resumed = decode_checkpoint(&image).ok().and_then(|cp| {
            let mut stream = AllocatorRegistry::builtin()
                .streaming("txallo", &params, schedule)
                .ok()?;
            let carry = stream.import_state(&cp.stream, &cp.graph, &params)?;
            Some((cp, stream, carry))
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.resume_ms
            .push(ms, HostSpeed::factor(&[before, host.sample()]));
        if let Some((cp, stream, carry)) = resumed {
            let again = stream
                .export_state()
                .map(|s| encode_checkpoint(&cp.graph, &s, &cp.consumer));
            if carry == StateCarry::Warm && again.as_deref() == Some(image.as_slice()) {
                self.identical += 1;
            }
        }
    }
}
