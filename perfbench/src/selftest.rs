//! Small-scale self-test of the benchmark: the layer-driven loop is the
//! simulator's loop, tracing changes no result, the thread count changes
//! no result, and every workload's sizes meet the sample floors its
//! percentiles need.

use txallo_core::HybridSchedule;
use txallo_graph::ResidencyConfig;
use txallo_sim::{ShardedChainSim, SimConfig};

use crate::chain::{self, ChainSpec};
use crate::layer::LoopConfig;
use crate::output::Output;
use crate::replay::{replay, ReplaySpec, Shape};
use crate::workloads::{chain_spec, Workload};

/// A small replay with every mechanism on: residency, decay, hybrid
/// global refreshes.
fn small(window: u32, decay: f64, schedule: HybridSchedule, threads: usize) -> ReplaySpec {
    ReplaySpec {
        shape: Shape {
            accounts: 3_000,
            history_blocks: 30,
            epoch_blocks: 4,
            block_size: 200,
            warm_epochs: 2,
            min_epochs: 10,
            epochs_per_s: 0.0,
            setups: 2,
        },
        serve: LoopConfig {
            shards: 6,
            eta: 2.0,
            window,
            decay,
            schedule,
            threads,
        },
        resume_cycles: 2,
    }
}

#[test]
fn layer_loop_matches_the_simulator() {
    for spec in [
        small(1, 0.8, HybridSchedule::Hybrid { global_gap: 3 }, 1),
        small(0, 1.0, HybridSchedule::AlwaysAdaptive, 1),
    ] {
        let timed = spec.shape.timed_epochs(1.0);
        let run = replay(&spec, 11, timed, false);

        let serve = spec.serve;
        let mut sim = ShardedChainSim::new(SimConfig {
            shards: serve.shards,
            eta: serve.eta,
            epoch_blocks: spec.shape.epoch_blocks as usize,
            method: "txallo".into(),
            schedule: serve.schedule,
            decay_per_epoch: (serve.decay < 1.0).then_some(serve.decay),
            threads: serve.threads,
            residency: (serve.window > 0).then(|| ResidencyConfig::in_memory(serve.window)),
        });
        let workload = spec.shape.workload(11, timed);
        sim.warmup_streamed(workload.block_iter(0..spec.shape.history_blocks));
        let epochs = spec.shape.warm_epochs + timed;
        let reports = sim.run_stream_with(epochs, |e| {
            let start = spec.shape.history_blocks + e * spec.shape.epoch_blocks;
            workload.blocks(start..start + spec.shape.epoch_blocks)
        });

        assert_eq!(run.records.len(), reports.len());
        for (mine, theirs) in run.records.iter().zip(&reports) {
            let e = theirs.epoch;
            assert_eq!(mine.kind, theirs.update, "epoch {e}");
            assert_eq!(mine.path, theirs.update_path, "epoch {e}");
            assert_eq!(
                mine.migrations, theirs.metrics.migrated_accounts,
                "epoch {e}"
            );
            assert_eq!(mine.placements, theirs.new_accounts, "epoch {e}");
            assert_eq!(mine.cross_shard, theirs.metrics.cross_shard, "epoch {e}");
            assert_eq!(
                mine.throughput_bits,
                theirs.metrics.throughput_normalized.to_bits(),
                "epoch {e}"
            );
        }
        assert!(
            reports.iter().any(|r| r.metrics.migrated_accounts > 0),
            "the workload must migrate accounts"
        );
        assert_eq!(run.serving.allocation().labels(), sim.allocation().labels());
    }
}

#[test]
fn tracing_changes_no_result() {
    let spec = small(1, 0.8, HybridSchedule::Hybrid { global_gap: 3 }, 1);
    let timed = spec.shape.timed_epochs(1.0);
    let plain = replay(&spec, 5, timed, false);
    let traced = replay(&spec, 5, timed, true);
    assert_eq!(plain.digest().hex(), traced.digest().hex());
    assert!(plain.tracer.spans().is_empty());
    assert!(traced.tracer.spans().len() > 100);
    // The set-up's solve and every served global epoch were re-run from
    // their public stages, and each reproduced the stream's labels.
    let globals = traced
        .records
        .iter()
        .filter(|r| r.kind == txallo_core::UpdateKind::Global)
        .count();
    assert!(globals > 0);
    assert_eq!(traced.reruns.len(), globals + 1);
    assert!(traced.reruns.iter().all(|r| r.reproduced));
}

#[test]
fn thread_count_changes_no_result() {
    let hybrid = HybridSchedule::Hybrid { global_gap: 4 };
    let one = small(0, 1.0, hybrid, 1);
    let two = small(0, 1.0, hybrid, 2);
    let timed = one.shape.timed_epochs(1.0);
    let a = replay(&one, 3, timed, false);
    let b = replay(&two, 3, timed, false);
    assert_eq!(a.records, b.records);
    assert_eq!(a.digest().hex(), b.digest().hex());
}

#[test]
fn every_check_passes_at_small_scale() {
    // With residency the restarts wait until timing ends; without, they
    // are spread over the timed epochs.
    for spec in [
        small(1, 0.8, HybridSchedule::Hybrid { global_gap: 3 }, 1),
        small(0, 1.0, HybridSchedule::Hybrid { global_gap: 3 }, 2),
    ] {
        for traced in [false, true] {
            let mut out = Output::default();
            let run = replay(&spec, 9, spec.shape.timed_epochs(1.0), traced);
            crate::replay::finish(&spec, run, &mut out);
            assert_eq!(out.failed(), 0, "{}", out.checks_json());
            assert!(out.result_json().starts_with("{\"correct\": true"));
        }
    }
    let spec = ChainSpec {
        shape: Shape {
            accounts: 3_000,
            history_blocks: 40,
            epoch_blocks: 3,
            block_size: 200,
            warm_epochs: 2,
            min_epochs: 12,
            epochs_per_s: 0.0,
            setups: 2,
        },
        global_gap: 4,
        health_interval: 5,
        resume_cycles: 3,
        ..chain_spec()
    };
    for traced in [false, true] {
        let mut out = Output::default();
        chain::run(&spec, 9, spec.shape.timed_epochs(1.0), traced, &mut out);
        assert_eq!(out.failed(), 0, "{}", out.checks_json());
    }
}

/// p99 of `block_ms` needs 1000 blocks, p90 of `boundary_ms` 100
/// boundaries, `resume_ms` 10 restarts, and `setup_s` a median.
#[test]
fn workload_specs_meet_sample_floors() {
    for w in [Workload::ReplayEvict, Workload::HybridGlobal] {
        let spec = w.replay_spec().expect("layer-driven");
        assert!(spec.shape.min_epochs >= 100, "{}", w.name());
        assert!(
            spec.shape.min_epochs * spec.shape.epoch_blocks >= 1_000,
            "{}",
            w.name()
        );
        assert_eq!(spec.shape.block_size, 1_000, "{}", w.name());
        assert!(spec.shape.setups >= 3, "{}", w.name());
    }
    let spec = chain_spec();
    // The closing block of each epoch is a boundary sample, not a block
    // sample.
    assert!(spec.shape.min_epochs * (spec.shape.epoch_blocks - 1) >= 1_000);
    assert!(spec.shape.min_epochs >= 100);
    assert!(spec.resume_cycles >= 10 && spec.shape.min_epochs >= spec.resume_cycles);
    assert_eq!(spec.shape.block_size, 1_000);
    assert!(spec.shape.setups >= 3);
}
