//! Cold-row eviction: bounded-memory graph residency for out-of-core
//! streaming replay.
//!
//! A long replay interns every account it ever sees, but an epoch only
//! *writes* the rows of accounts that transacted recently — the decay
//! window already encodes that recency. This module retires the adjacency
//! rows of accounts untouched for more than `window` completed epochs to
//! an append-only spill (in memory or on disk) and rehydrates them
//! **bitwise-transparently** when traffic returns, keeping resident slab
//! bytes `O(active set)` instead of `O(all accounts ever seen)`.
//!
//! ## The determinism story
//!
//! Eviction serializes the row's *merged* copy — the exact form the
//! snapshot builders read and [`checkpoint restore`] rebuilds from — and
//! records how many decay factors had been applied at eviction time.
//! Rehydration replays the missed factors **stepwise, in application
//! order** (one multiply per factor per entry, never a combined product:
//! `w·f₁·f₂ ≠ w·(f₁·f₂)` in floats), then lands the row fully merged via
//! [`SortedRunStore::restore_row`]. Both sides of a symmetric edge
//! therefore hold bit-identical weights whether one of them spent epochs
//! cold or not, and every future accumulation proceeds from identical
//! bits — the `with-eviction == without-eviction` proptests pin this.
//!
//! ## The residency read invariant
//!
//! Reads take `&self` and cannot rehydrate, so a cold row reads as
//! *empty* (`neighbor_count == 0`, no entries). Correctness rests on one
//! invariant: **a cold row is never read**. The write paths uphold it
//! internally — every ingestion touch rehydrates through
//! [`TxGraph::ensure_node`], and edge removal rehydrates both endpoints —
//! but whole-graph readers (a global G-TxAllo re-solve, a session
//! rebuild, a consistency audit, a checkpoint, dust pruning) must call
//! [`TxGraph::ensure_all_resident`] first. The simulator driver does so at
//! exactly those boundaries; per-node scalars (self-loops, incident
//! weight, `total_weight`) always stay resident, so epoch parameter
//! rescaling and metrics need no rehydration at all.
//!
//! ## The index and what a boundary costs
//!
//! Each node owns one 8-byte residency word: the epoch of its last write
//! while resident, a tag bit plus its spill-record offset while cold. The
//! residency test, a write stamp and finding a cold row's record are one
//! indexed load each, whatever the number of cold rows. A row enters a
//! per-epoch touch list on its first write in an epoch, and a row
//! rehydrated without a write enters a list of its own; an epoch
//! boundary examines only the touch list of the epoch that just fell out
//! of the window plus that second list. Boundary work is therefore
//! `O(rows that could have become due)` — the per-epoch traffic — and
//! independent of how many accounts the chain has ever seen (§V-C;
//! [`MemoryFootprint::boundary_examined_rows`] reports it).
//!
//! [`checkpoint restore`]: crate::TxGraph::from_checkpoint_parts
//! [`SortedRunStore::restore_row`]: crate::SortedRunStore::restore_row
//! [`TxGraph::ensure_node`]: crate::TxGraph
//! [`TxGraph::ensure_all_resident`]: crate::TxGraph::ensure_all_resident

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use crate::slab::SortedRunStore;
use crate::traits::{fit_u32, NodeId};

/// Where evicted rows spill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillTarget {
    /// An in-memory byte log — bounds the *slab* (the structure whose
    /// per-entry overhead and compaction passes scale with residency)
    /// while keeping everything in RAM; the right choice for tests and
    /// mid-size runs.
    Memory,
    /// An append-only file — true out-of-core operation for replays whose
    /// cold history exceeds RAM. Created (truncated) on enable.
    File(PathBuf),
}

/// Configuration of the residency layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyConfig {
    /// Evict a row once its account has gone more than this many completed
    /// epochs without a write. Must be ≥ 1 (an account's row always
    /// survives the epoch it transacted in plus `window` full epochs).
    pub window: u32,
    /// Where evicted rows go.
    pub spill: SpillTarget,
}

impl ResidencyConfig {
    /// In-memory spill with the given eviction window.
    pub fn in_memory(window: u32) -> Self {
        Self {
            window,
            spill: SpillTarget::Memory,
        }
    }

    /// File-backed spill with the given eviction window.
    pub fn file(window: u32, path: impl Into<PathBuf>) -> Self {
        Self {
            window,
            spill: SpillTarget::File(path.into()),
        }
    }
}

/// The append-only spill log. Records are self-describing: an 8-byte
/// header (`len: u32` entry count, `scale_mark: u32` decay-tape position
/// at eviction time) followed by `len × 4` id bytes and `len × 8` weight
/// bytes, all little-endian. Keeping the per-row metadata in the record
/// means a cold row's residency word holds its offset and nothing else —
/// the header rides the rehydration read the row pays anyway. Re-evicting
/// a row appends a fresh record; superseded ranges are dead log space,
/// acceptable for a replay log (the log grows with eviction *traffic*,
/// not with live state).
#[derive(Debug)]
enum Spill {
    Memory(Vec<u8>),
    File { file: fs::File, len: u64 },
}

impl Spill {
    fn open(target: &SpillTarget) -> Self {
        match target {
            SpillTarget::Memory => Spill::Memory(Vec::new()),
            SpillTarget::File(path) => {
                let file = fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(path)
                    .expect("open residency spill file"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                Spill::File { file, len: 0 }
            }
        }
    }

    /// Appends `bytes`, returning their offset.
    fn append(&mut self, bytes: &[u8]) -> u64 {
        match self {
            Spill::Memory(buf) => {
                let off = buf.len() as u64;
                buf.extend_from_slice(bytes);
                off
            }
            Spill::File { file, len } => {
                let off = *len;
                file.seek(SeekFrom::Start(off)).expect("seek spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                file.write_all(bytes).expect("write spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                *len += bytes.len() as u64;
                off
            }
        }
    }

    fn read_at(&mut self, offset: u64, out: &mut [u8]) {
        match self {
            Spill::Memory(buf) => {
                let s = offset as usize;
                out.copy_from_slice(&buf[s..s + out.len()]);
            }
            Spill::File { file, .. } => {
                file.seek(SeekFrom::Start(offset)).expect("seek spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                file.read_exact(out).expect("read spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
            }
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Spill::Memory(buf) => buf.len() as u64,
            Spill::File { len, .. } => *len,
        }
    }
}

impl Clone for Spill {
    /// Cloning a file-backed spill materializes it in memory: the log is
    /// self-contained, and sharing one append-only file between two
    /// diverging graphs would corrupt both. Clones of residency-enabled
    /// graphs are a test/checkpoint convenience, not a hot path.
    fn clone(&self) -> Self {
        match self {
            Spill::Memory(buf) => Spill::Memory(buf.clone()),
            Spill::File { file, len } => {
                let mut buf = vec![0u8; *len as usize];
                let mut f = file;
                f.seek(SeekFrom::Start(0)).expect("seek spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                f.read_exact(&mut buf).expect("read spill"); // txallo-lint: allow(lib-unwrap) — spill I/O failure leaves no consistent half-spilled state to roll back; aborting is the residency contract
                Spill::Memory(buf)
            }
        }
    }
}

/// Tag bit of a cold row's residency word; the low 63 bits hold the
/// row's spill-record offset.
const COLD: u64 = 1 << 63;

/// The residency word of a row rehydrated without a write: it reads as
/// "last written at epoch 0". Cold rows exist only from epoch
/// `window + 1` on, so such a row is already due at the next boundary —
/// the same verdict its real, older write stamp would give.
const UNWRITTEN: u64 = 0;

/// Per-graph residency state (owned by `TxGraph` when enabled).
///
/// The index is one dense `u64` word per node. A resident row's word is
/// the epoch of its last write; a cold row's word is the [`COLD`] tag
/// plus the offset of its spill record (entry count and decay-tape mark
/// live in the record's header, read back with the row). Every access —
/// the residency test, a write stamp, finding a cold row's record — is
/// one indexed load.
///
/// Boundaries do not scan the node range. A row can only become due at
/// the boundary that closes epoch `e + window + 1`, where `e` is the
/// epoch of its last write, or — when rehydrated without a write — at
/// the very next boundary. A ring of `window + 2` per-epoch touch lists
/// (a row enters an epoch's list on its first write in that epoch) plus
/// the list of rows rehydrated without a write hold exactly those
/// candidates, so a boundary examines only the rows written in one past
/// epoch plus the ones read back since the last boundary. The
/// candidates that pass the eviction predicate are evicted in ascending
/// node order, so the spill log's record order does not depend on the
/// order traffic arrived in.
#[derive(Debug, Clone)]
pub(crate) struct Residency {
    window: u32,
    /// Completed epochs since residency was enabled; writes in the open
    /// epoch are stamped with it.
    epoch: u32,
    /// One residency word per node (see the type docs).
    words: Vec<u64>,
    /// Touch lists, slot `e % (window + 2)` holding the rows first written
    /// in epoch `e`. A slot is freed when its epoch falls due, so its
    /// capacity never outlives one window.
    touched: Vec<Vec<NodeId>>,
    /// Rows rehydrated without a write since the last boundary.
    unwritten: Vec<NodeId>,
    /// Every decay factor applied since enable, in order — the replay
    /// tape for cold rows (8 bytes per decay epoch).
    scale_log: Vec<f64>,
    spill: Spill,
    cold_rows: usize,
    evicted_total: u64,
    restored_total: u64,
    /// Candidate rows the most recent boundary examined.
    examined_last: usize,
    // Serialization scratch, reused across evictions/rehydrations.
    buf: Vec<u8>,
    ids_scratch: Vec<NodeId>,
    ws_scratch: Vec<f64>,
}

impl Residency {
    /// Opens the index over `nodes` existing rows, all counting as
    /// written in epoch 0.
    pub(crate) fn new(config: &ResidencyConfig, nodes: usize) -> Self {
        assert!(config.window >= 1, "eviction window must be ≥ 1 epoch");
        let mut touched = vec![Vec::new(); config.window as usize + 2];
        touched[0] = (0..fit_u32(nodes)).collect();
        Self {
            window: config.window,
            epoch: 0,
            words: vec![0; nodes],
            touched,
            unwritten: Vec::new(),
            scale_log: Vec::new(),
            spill: Spill::open(&config.spill),
            cold_rows: 0,
            evicted_total: 0,
            restored_total: 0,
            examined_last: 0,
            buf: Vec::new(),
            ids_scratch: Vec::new(),
            ws_scratch: Vec::new(),
        }
    }

    /// The touch list of epoch `e`.
    fn touch_list(&mut self, e: u32) -> &mut Vec<NodeId> {
        let slot = e as usize % self.touched.len();
        &mut self.touched[slot]
    }

    /// Registers a brand-new node (resident, written now).
    pub(crate) fn push_node(&mut self) {
        let v = fit_u32(self.words.len());
        self.words.push(u64::from(self.epoch));
        self.touch_list(self.epoch).push(v);
    }

    /// Records a write to `v`'s row, rehydrating it first when cold. The
    /// first write of an epoch enters the row into that epoch's touch
    /// list; later ones cost one compare.
    #[inline]
    pub(crate) fn on_write(&mut self, adjacency: &mut SortedRunStore, v: NodeId) {
        let word = self.words[v as usize];
        let now = u64::from(self.epoch);
        if word == now {
            return;
        }
        if word & COLD != 0 {
            self.restore(adjacency, v, word & !COLD);
        }
        self.words[v as usize] = now;
        self.touch_list(self.epoch).push(v);
    }

    pub(crate) fn cold_rows(&self) -> usize {
        self.cold_rows
    }

    pub(crate) fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    pub(crate) fn restored_total(&self) -> u64 {
        self.restored_total
    }

    pub(crate) fn examined_last(&self) -> usize {
        self.examined_last
    }

    pub(crate) fn spill_bytes(&self) -> u64 {
        self.spill.bytes()
    }

    /// Records a decay factor every cold row still owes.
    pub(crate) fn on_scale(&mut self, factor: f64) {
        self.scale_log.push(factor);
    }

    /// Brings `v`'s row back into the slab without counting a write: the
    /// row is due again at the next boundary unless written first. No-op
    /// when already resident.
    pub(crate) fn rehydrate(&mut self, adjacency: &mut SortedRunStore, v: NodeId) {
        let word = self.words[v as usize];
        if word & COLD == 0 {
            return;
        }
        self.restore(adjacency, v, word & !COLD);
        self.words[v as usize] = UNWRITTEN;
        self.unwritten.push(v);
    }

    /// Rehydrates every cold row (see [`Residency::rehydrate`]), stopping
    /// as soon as none is left.
    pub(crate) fn rehydrate_all(&mut self, adjacency: &mut SortedRunStore) {
        for v in 0..self.words.len() {
            if self.cold_rows == 0 {
                break;
            }
            self.rehydrate(adjacency, v as NodeId);
        }
    }

    /// Reads the spill record at `offset` back into `v`'s (empty) row,
    /// bitwise-transparently. The caller rewrites `v`'s word.
    fn restore(&mut self, adjacency: &mut SortedRunStore, v: NodeId, offset: u64) {
        let mut header = [0u8; 8];
        self.spill.read_at(offset, &mut header);
        let n = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize; // txallo-lint: allow(lib-unwrap) — a 4-byte slice of an 8-byte array converts infallibly
        let scale_mark = u32::from_le_bytes(header[4..].try_into().unwrap()) as usize; // txallo-lint: allow(lib-unwrap) — a 4-byte slice of an 8-byte array converts infallibly
        self.buf.resize(n * 12, 0);
        self.spill.read_at(offset + 8, &mut self.buf);
        self.ids_scratch.clear();
        self.ws_scratch.clear();
        for c in self.buf[..n * 4].chunks_exact(4) {
            self.ids_scratch
                .push(NodeId::from_le_bytes(c.try_into().unwrap())); // txallo-lint: allow(lib-unwrap) — chunks_exact(4) yields exactly 4 bytes per chunk, so the array conversion is infallible
        }
        for c in self.buf[n * 4..].chunks_exact(8) {
            self.ws_scratch
                .push(f64::from_le_bytes(c.try_into().unwrap())); // txallo-lint: allow(lib-unwrap) — chunks_exact(8) yields exactly 8 bytes per chunk, so the array conversion is infallible
        }
        // Replay the decay factors the row missed while cold — stepwise,
        // in application order, matching the in-place multiplies its
        // resident twin received (a combined product would not be
        // bit-identical).
        for &f in &self.scale_log[scale_mark..] {
            for w in &mut self.ws_scratch {
                *w *= f;
            }
        }
        adjacency.restore_row(v as usize, &self.ids_scratch, &self.ws_scratch);
        self.cold_rows -= 1;
        self.restored_total += 1;
    }

    /// Marks an epoch boundary: evicts every resident, non-empty row whose
    /// account has gone more than `window` completed epochs without a
    /// write, in ascending node order. Only the rows last written exactly
    /// `window + 1` epochs ago and the rows rehydrated without a write
    /// since the last boundary are examined — no other row can be due.
    /// Returns the number of rows evicted.
    pub(crate) fn advance_epoch(&mut self, adjacency: &mut SortedRunStore) -> usize {
        self.epoch += 1;
        let mut due = match self.epoch.checked_sub(self.window + 1) {
            Some(e) => std::mem::take(self.touch_list(e)),
            None => Vec::new(),
        };
        due.extend_from_slice(&self.unwritten);
        self.unwritten = Vec::new();
        self.examined_last = due.len();
        let (epoch, window, words) = (self.epoch, self.window, &self.words);
        due.retain(|&v| {
            let word = words[v as usize];
            word & COLD == 0 && epoch - word as u32 > window && adjacency.row_len(v as usize) != 0
        });
        // The lists are disjoint — a row last written in the due epoch
        // cannot have been cold since — so sorting alone fixes the spill
        // record order.
        due.sort_unstable();
        debug_assert!(due.windows(2).all(|p| p[0] < p[1]), "duplicate candidate");
        for &v in &due {
            self.evict(adjacency, v);
        }
        due.len()
    }

    /// Serializes `v`'s merged row to the spill and leaves its word cold.
    fn evict(&mut self, adjacency: &mut SortedRunStore, v: NodeId) {
        self.ids_scratch.clear();
        self.ws_scratch.clear();
        let n = adjacency.evict_row(v as usize, &mut self.ids_scratch, &mut self.ws_scratch);
        self.buf.clear();
        self.buf.extend_from_slice(&fit_u32(n).to_le_bytes());
        self.buf
            .extend_from_slice(&fit_u32(self.scale_log.len()).to_le_bytes());
        for id in &self.ids_scratch {
            self.buf.extend_from_slice(&id.to_le_bytes());
        }
        for w in &self.ws_scratch {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
        let offset = self.spill.append(&self.buf);
        assert_eq!(offset & COLD, 0, "spill offset overflows the tag bit");
        self.words[v as usize] = COLD | offset;
        self.cold_rows += 1;
        self.evicted_total += 1;
    }

    /// Resident bytes of the residency index itself (per-node words, the
    /// touch lists, the decay tape and scratch) — reported so the
    /// accounting surface can't hide its own overhead.
    pub(crate) fn index_bytes(&self) -> usize {
        self.words.capacity() * 8
            + self.touched.capacity() * std::mem::size_of::<Vec<NodeId>>()
            + self.touched.iter().map(|l| l.capacity() * 4).sum::<usize>()
            + self.unwritten.capacity() * 4
            + self.scale_log.capacity() * 8
            + self.buf.capacity()
            + self.ids_scratch.capacity() * 4
            + self.ws_scratch.capacity() * 8
    }
}

/// A point-in-time memory accounting of a [`TxGraph`](crate::TxGraph) —
/// the surface every BENCH snapshot reports, and what the streaming-replay
/// smoke test asserts its resident-bytes ceiling against.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryFootprint {
    /// Allocated slab arena bytes (entry storage + row metadata +
    /// fingerprints + merge scratch, by vector capacity).
    pub slab_arena_bytes: usize,
    /// Live `(id, weight)` entries across resident rows.
    pub slab_live_entries: usize,
    /// Per-node scalar vectors (self-loops, incident weights).
    pub node_scalar_bytes: usize,
    /// Account interner (id vector + hash map estimate).
    pub interner_bytes: usize,
    /// Residency bookkeeping (one word per node, the per-epoch touch
    /// lists, the decay tape and scratch), zero when residency is
    /// disabled.
    pub residency_index_bytes: usize,
    /// Bytes in the spill log (not resident when file-backed).
    pub spill_bytes: u64,
    /// Rows currently resident in the slab.
    pub resident_rows: usize,
    /// Rows currently evicted to the spill.
    pub cold_rows: usize,
    /// Cumulative rows evicted since residency was enabled.
    pub evicted_rows: u64,
    /// Cumulative rows rehydrated since residency was enabled.
    pub restored_rows: u64,
    /// Candidate rows the most recent residency boundary examined: the
    /// rows last written `window + 1` epochs earlier plus those
    /// rehydrated without a write since the boundary before. A pure
    /// function of the input, independent of how many accounts went cold
    /// earlier (§V-C).
    pub boundary_examined_rows: usize,
}

impl MemoryFootprint {
    /// Live slab entry bytes — the `O(active set)` quantity the eviction
    /// layer bounds (12 bytes per entry: u32 id + f64 weight).
    pub fn slab_live_bytes(&self) -> usize {
        self.slab_live_entries * 12
    }

    /// Total resident bytes of the graph: slab arena, scalars, interner
    /// and residency index (the spill is excluded — it is the part that
    /// left residency).
    pub fn resident_bytes(&self) -> usize {
        self.slab_arena_bytes
            + self.node_scalar_bytes
            + self.interner_bytes
            + self.residency_index_bytes
    }
}
