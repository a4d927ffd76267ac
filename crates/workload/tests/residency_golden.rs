//! Golden pin of the residency layer's observable output on a seeded
//! streamed replay: the spill log's bytes and the per-epoch evicted and
//! restored row counts. The residency index may change shape; which rows
//! go cold, when, and the exact bytes and order they spill in may not.

use txallo_graph::{ResidencyConfig, TxGraph};
use txallo_workload::{StreamingWorkload, WorkloadConfig};

/// FNV-1a over the whole log: any changed, missing or reordered record
/// changes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the replay observed: spill length and digest, then the evicted
/// rows and the cumulative restored rows after every boundary.
type Observed = (usize, u64, Vec<usize>, Vec<u64>);

/// Replays 14 epochs of 6 blocks × 120 transactions over 5000 accounts
/// with decay 0.9 and a 2-epoch window into a file-backed spill. Epoch 8
/// reads every row back without writing it (a whole-graph reader), so
/// the run also covers rows that go cold again without fresh traffic.
fn replay(path: &std::path::Path) -> Observed {
    let config = WorkloadConfig {
        accounts: 5_000,
        transactions: 14 * 6 * 120,
        block_size: 120,
        groups: 100,
        new_account_prob: 0.002,
        ..WorkloadConfig::default()
    };
    let workload = StreamingWorkload::new(config, 11);
    let mut graph = TxGraph::new();
    graph.enable_residency(&ResidencyConfig::file(2, path));
    let (mut evicted, mut restored) = (Vec::new(), Vec::new());
    for epoch in 0..14 {
        graph.apply_decay(0.9);
        for block in workload.epoch_blocks(epoch, 6) {
            graph.ingest_block_nodes(&block);
        }
        if epoch == 8 {
            graph.ensure_all_resident();
        }
        evicted.push(graph.advance_residency_epoch());
        restored.push(graph.memory_footprint().restored_rows);
    }
    let log = std::fs::read(path).expect("spill file is readable");
    assert_eq!(log.len() as u64, graph.memory_footprint().spill_bytes);
    (log.len(), fnv1a(&log), evicted, restored)
}

#[test]
fn residency_spill_log_and_counts_are_pinned() {
    let path = std::env::temp_dir().join(format!(
        "txallo-residency-golden-{}.spill",
        std::process::id()
    ));
    let observed = replay(&path);
    let _ = std::fs::remove_file(&path);
    let golden: Observed = (
        191_064,
        636_360_419_540_221_051,
        vec![
            0, 0, 387, 423, 413, 438, 397, 389, 1878, 398, 398, 409, 401, 390,
        ],
        vec![
            0, 0, 0, 65, 186, 347, 544, 751, 2447, 2705, 2962, 3230, 3515, 3798,
        ],
    );
    assert_eq!(observed, golden);
}
