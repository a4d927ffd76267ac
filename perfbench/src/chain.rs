//! The `chain-faults` workload: [`ChainService`] — PBFT shards and Atomix
//! cross-shard commits under an active fault plan, with the health check
//! on — serving TxAllo under the paper's 20-epoch global gap.
//!
//! The allocator runs inside the service, so the untraced run can time
//! only `process_block` (a closing call is the epoch boundary) and
//! `ChainService::resume`. The traced run replays the same blocks through
//! a [`LayerLoop`] configured like the service's allocator, times its
//! layers from outside, and checks at every boundary that it labels every
//! account exactly as the service does.

use std::time::Instant;

use txallo_chain::{ChainService, ChainServiceConfig, EngineReport, FaultPlan};
use txallo_core::checkpoint::decode_checkpoint;
use txallo_core::{AllocatorRegistry, Degradation, HybridSchedule, TxAlloParams, UpdateKind};
use txallo_graph::{MemoryFootprint, WeightedGraph};
use txallo_model::Block;

use crate::host::{HostSpeed, Timings};
use crate::layer::{LayerLoop, LoopConfig, StageRerun};
use crate::output::Output;
use crate::probe::Snapshot;
use crate::replay::{
    end_to_end_metrics, layer_metrics, process_metrics, records_digest, EndToEnd, EpochRecord,
    LayerView, Shape, TouchedCounter,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{noise_json, RunOutcome};

/// Cross-shard workload `η` of the allocation objective.
const ETA: f64 = 2.0;

/// Absolute aggregate divergence the service's health check tolerates
/// (the repository's own health-check tests use the same value).
const HEALTH_TOLERANCE: f64 = 1e-6;

/// The chain workload.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Ledger and run size.
    pub shape: Shape,
    /// Number of shards `k`.
    pub shards: usize,
    /// TxAllo's global-refresh gap in epochs.
    pub global_gap: u64,
    /// Health-check period in epochs.
    pub health_interval: u64,
    /// Checkpoint/resume cycles, spread evenly over the timed epochs.
    pub resume_cycles: u64,
}

impl ChainSpec {
    fn schedule(&self) -> HybridSchedule {
        HybridSchedule::Hybrid {
            global_gap: self.global_gap,
        }
    }

    fn config(&self) -> ChainServiceConfig {
        ChainServiceConfig {
            epoch_blocks: self.shape.epoch_blocks as usize,
            schedule: self.schedule(),
            eta: ETA,
            threads: 1,
            ..ChainServiceConfig::new(self.shards)
        }
    }

    fn loop_config(&self) -> LoopConfig {
        LoopConfig {
            shards: self.shards,
            eta: ETA,
            window: 0,
            decay: 1.0,
            schedule: self.schedule(),
            threads: 1,
        }
    }

    /// The fault plan: drops, delays, duplicates and crashes, seeded from
    /// the workload seed.
    fn fault_plan(seed: u64) -> FaultPlan {
        FaultPlan::mixed(seed ^ 0x5EED_FA17)
    }

    /// Tolerance of the final consistency check: the aggregates'
    /// floating-point drift relative to the graph's total weight.
    fn tolerance(total_weight: f64) -> f64 {
        1e-9 * total_weight.max(1.0)
    }

    fn open(&self, seed: u64) -> ChainService {
        let mut service = ChainService::new(self.config());
        service.set_fault_plan(Self::fault_plan(seed));
        service.enable_health_check(self.health_interval, HEALTH_TOLERANCE);
        service
    }
}

/// The traced run's layer-driven twin of the service's allocator.
#[derive(Debug)]
struct Shadow {
    serving: LayerLoop,
    records: Vec<EpochRecord>,
    reruns: Vec<StageRerun>,
    agreed: usize,
    boundaries: usize,
    footprint: (MemoryFootprint, MemoryFootprint),
    touched: TouchedCounter,
}

/// Runs the workload.
pub fn run(spec: &ChainSpec, seed: u64, timed: u64, traced: bool, out: &mut Output) -> RunOutcome {
    let mut tr = Tracer::new(traced);
    let workload = tr.time("workload.generate", || spec.shape.workload(seed, timed));
    let history: Vec<Block> = tr.time("workload.generate", || {
        workload.blocks(0..spec.shape.history_blocks)
    });

    let mut host = HostSpeed::default();
    let mut setup_s = Timings::default();
    let mut service = None;
    for _ in 0..spec.shape.setups.max(1) {
        drop(service.take());
        let mut fresh = spec.open(seed);
        let before = host.sample();
        let start = Instant::now();
        let open = tr.enter("chain.warmup");
        fresh.warmup(&history);
        tr.exit(open);
        let secs = start.elapsed().as_secs_f64();
        setup_s.push(secs, HostSpeed::factor(&[before, host.sample()]));
        service = Some(fresh);
    }
    let mut service = service.expect("at least one set-up");

    let mut shadow = traced.then(|| {
        let mut serving = LayerLoop::new(spec.loop_config());
        for b in &history {
            serving.ingest_history(b, &mut tr);
        }
        serving.begin(&mut tr);
        let labels = serving.allocation().labels().to_vec();
        let rerun = serving.rerun_global_stages(&labels, &mut tr);
        serving.fold_decay(&mut tr);
        Shadow {
            agreed: usize::from(labels == service.allocation().labels()),
            boundaries: 1,
            serving,
            records: Vec::new(),
            reruns: vec![rerun],
            footprint: Default::default(),
            touched: TouchedCounter::default(),
        }
    });
    drop(history);

    let total = spec.shape.warm_epochs + timed;
    let timed_ids = spec.shape.warm_epochs..total;
    let k = spec.shards;
    let mut records = Vec::with_capacity(total as usize);
    let mut block_s = Timings::default();
    let mut boundary_s = Timings::default();
    let mut resume_ms = Timings::default();
    let mut checkpoint_ms = Vec::new();
    let mut image_bytes = 0usize;
    let mut resumed_identical = 0usize;
    let mut peak = 0usize;
    let mut report_start = EngineReport::default();
    let mut probe_start = Snapshot::default();
    let mut timed_start = Instant::now();
    let resume_every = (timed / spec.resume_cycles.max(1)).max(1);

    for epoch in 0..total {
        let is_timed = timed_ids.contains(&epoch);
        if epoch == timed_ids.start {
            report_start = service.report();
            probe_start = Snapshot::now();
            timed_start = Instant::now();
            if let Some(s) = shadow.as_mut() {
                s.footprint.0 = s.serving.graph().memory_footprint();
            }
        }
        tr.set_epoch(epoch);
        let height = spec.shape.history_blocks + epoch * spec.shape.epoch_blocks;
        let blocks = tr.time("workload.generate", || {
            workload.blocks(height..height + spec.shape.epoch_blocks)
        });
        let mut update = None;
        let mut epoch_blocks = Vec::with_capacity(blocks.len());
        let mut closing = 0.0;
        let before = host.sample();
        let mut pause = before;
        for (i, b) in blocks.iter().enumerate() {
            if i + 1 == blocks.len() {
                pause = host.sample();
            }
            let start = Instant::now();
            let open = tr.enter("chain.process_block");
            let closed = service.process_block(b);
            tr.exit(open);
            let secs = start.elapsed().as_secs_f64();
            match closed {
                Some(u) => {
                    closing = secs;
                    update = Some(u);
                }
                None => epoch_blocks.push(secs),
            }
        }
        let after = host.sample();
        let update = update.expect("an epoch's last block closes it");
        if is_timed {
            let factor = HostSpeed::factor(&[before, pause]);
            for secs in epoch_blocks {
                block_s.push(secs, factor);
            }
            boundary_s.push(closing, HostSpeed::factor(&[pause, after]));
        }
        peak = peak.max(service.graph().memory_footprint().resident_bytes());

        let metrics = tr.time("sim.score", || {
            txallo_sim::epoch_metrics(&blocks, service.graph(), service.allocation(), k, ETA)
        });
        records.push(EpochRecord::new(&update, 0, Some(&metrics)));

        if let Some(s) = shadow.as_mut() {
            shadow_epoch(
                s,
                &blocks,
                epoch + 1 < total,
                service.allocation().labels(),
                &mut tr,
            );
        }

        // Restart a copy of the validator from its checkpoint every few
        // epochs, check it, and drop it. Serving on with the restarted
        // copy would put its cold start into the next block's latency.
        if is_timed && (epoch - timed_ids.start + 1) % resume_every == 0 {
            let start = Instant::now();
            let open = tr.enter("chain.checkpoint");
            let image = service.checkpoint();
            tr.exit(open);
            checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let Ok(image) = image else {
                out.check("checkpoint at a boundary", false, format!("{image:?}"));
                break;
            };
            image_bytes = image.len();
            let before = host.sample();
            let start = Instant::now();
            let open = tr.enter("chain.resume");
            let resumed = ChainService::resume(spec.config(), &image);
            tr.exit(open);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            resume_ms.push(ms, HostSpeed::factor(&[before, host.sample()]));
            match resumed {
                Ok(fresh) => {
                    if fresh.checkpoint().ok().as_deref() == Some(image.as_slice()) {
                        resumed_identical += 1;
                    }
                }
                Err(e) => {
                    out.check("resume from checkpoint", false, e.to_string());
                    break;
                }
            }
        }
    }
    let timed_wall_s = timed_start.elapsed().as_secs_f64();
    let probes = (probe_start, Snapshot::now());
    let report = service.report();
    let cycles = resume_ms.raw.len();
    out.operations += records.len() as u64 * spec.shape.epoch_blocks + cycles as u64;

    // Output checks.
    let labels = service.allocation().labels();
    let nodes = service.graph().node_count();
    out.check(
        "every account labelled in 0..k",
        labels.len() == nodes && labels.iter().all(|&l| (l as usize) < k),
        format!("{} labels, {nodes} accounts", labels.len()),
    );
    out.check(
        "health check never degraded the service",
        service.degradation() == Degradation::None,
        service.degradation().to_string(),
    );
    out.check(
        "every resumed service re-checkpoints to its image",
        resumed_identical == cycles && cycles > 0,
        format!("{resumed_identical}/{cycles} byte-identical"),
    );
    let consistency = final_consistency(spec, &service);
    out.check(
        "consistency_error within tolerance",
        consistency.0,
        consistency.1,
    );
    if let Some(s) = &shadow {
        out.check(
            "layer-driven twin labels every account as the service does",
            s.agreed == s.boundaries,
            format!("{}/{} boundaries", s.agreed, s.boundaries),
        );
        out.check(
            "global-solve stages reproduce the stream's labels",
            s.reruns.iter().all(|r| r.reproduced),
            format!("{} re-runs", s.reruns.len()),
        );
    }

    let digest = records_digest(labels, &records);
    let timed_records = &records[timed_ids.start as usize..];
    let overhead = traced.then(|| tr.overhead(timed_ids.clone(), timed_wall_s));
    let noise = noise_json(&probes, timed_wall_s, &host, overhead);
    if !traced {
        end_to_end_metrics(
            &EndToEnd {
                block_s: &block_s,
                boundary_s: &boundary_s,
                setup_s: &setup_s,
                resume_ms: &resume_ms,
                peak_resident_bytes: peak,
                records: timed_records,
            },
            out,
        );
    } else {
        let s = shadow.as_mut().expect("traced runs keep a twin");
        s.footprint.1 = s.serving.graph().memory_footprint();
        let twin_timed = &s.records[timed_ids.start as usize..];
        layer_metrics(
            &LayerView {
                tracer: &tr,
                timed: timed_ids.clone(),
                records: twin_timed,
                footprint: s.footprint,
                reruns: &s.reruns,
                state_bytes: s.serving.stream().state_bytes(),
            },
            out,
        );
        chain_metrics(&report_start, &report, out);
        out.metric(
            "chain.checkpoint_ms",
            median(&checkpoint_ms).unwrap_or(f64::NAN),
            "ms",
        );
        out.metric("chain.checkpoint_kib", image_bytes as f64 / 1024.0, "KiB");
        process_metrics(&probes, timed_wall_s, &host, &tr, timed_ids, out);
    }
    RunOutcome {
        digest: digest.hex(),
        peak_resident_bytes: peak,
        size: timed,
        spans: traced.then(|| tr.to_jsonl()),
        noise,
    }
}

/// Serves one epoch through the twin and compares its labels with the
/// service's.
fn shadow_epoch(
    s: &mut Shadow,
    blocks: &[Block],
    more: bool,
    service_labels: &[u32],
    tr: &mut Tracer,
) {
    let mut reruns = Vec::new();
    // The twin's timings are not reported, so neither are its samples.
    let mut host = HostSpeed::default();
    let (_, update) = s
        .serving
        .serve_epoch(blocks, more, tr, &mut host, |lp, update, tr| {
            if update.kind == UpdateKind::Global {
                let labels = lp.allocation().labels().to_vec();
                reruns.push(lp.rerun_global_stages(&labels, tr));
            }
        });
    s.reruns.extend(reruns);
    s.boundaries += 1;
    if s.serving.allocation().labels() == service_labels {
        s.agreed += 1;
    }
    let touched = s.touched.count(blocks, s.serving.graph());
    s.records.push(EpochRecord::new(&update, touched, None));
}

/// Audits the service's maintained aggregates from outside: decode its
/// checkpoint, warm-import the stream state, recompute from the graph.
fn final_consistency(spec: &ChainSpec, service: &ChainService) -> (bool, String) {
    let image = match service.checkpoint() {
        Ok(image) => image,
        Err(e) => return (false, e.to_string()),
    };
    let cp = match decode_checkpoint(&image) {
        Ok(cp) => cp,
        Err(e) => return (false, e.to_string()),
    };
    let params = TxAlloParams::for_graph(&cp.graph, spec.shards)
        .with_eta(ETA)
        .with_threads(1);
    let Ok(mut stream) = AllocatorRegistry::builtin().streaming("txallo", &params, spec.schedule())
    else {
        return (false, "txallo stream".into());
    };
    if stream
        .import_state(&cp.stream, &cp.graph, &params)
        .is_none()
    {
        return (false, "stream state not importable".into());
    }
    let tolerance = ChainSpec::tolerance(cp.graph.total_weight());
    let err = stream.consistency_error(&cp.graph);
    (
        err.is_some_and(|e| e <= tolerance),
        format!("{err:?} <= {tolerance:e}"),
    )
}

/// The consensus metrics, with their units, in the order
/// [`chain_metrics`] reports them.
pub const CONSENSUS_METRICS: [(&str, &str); 7] = [
    ("chain.messages_per_tx", "messages"),
    ("chain.retries", "count"),
    ("chain.crash_outages", "count"),
    ("chain.measured_eta", "ratio"),
    ("chain.migration_messages", "count"),
    ("chain.migrations_aborted", "count"),
    ("chain.abort_ratio", "ratio"),
];

/// The consensus counters over the timed region.
fn chain_metrics(a: &EngineReport, b: &EngineReport, out: &mut Output) {
    let d = |f: fn(&EngineReport) -> u64| f(b).saturating_sub(f(a)) as f64;
    let committed = d(|r| r.intra_committed) + d(|r| r.cross_committed);
    let attempted = committed + d(|r| r.aborted);
    let values = [
        d(|r| r.total_messages) / attempted.max(1.0),
        d(|r| r.retries),
        d(|r| r.crash_outages),
        b.measured_eta(),
        d(|r| r.migration_messages),
        d(|r| r.migrations_aborted),
        d(|r| r.aborted) / attempted.max(1.0),
    ];
    for ((name, unit), value) in CONSENSUS_METRICS.into_iter().zip(values) {
        out.metric(name, value, unit);
    }
}
