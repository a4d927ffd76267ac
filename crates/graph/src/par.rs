//! Deterministic fan-out primitives — the thread-pool/partition layer
//! behind every multi-core sweep in the workspace.
//!
//! ## The house pattern
//!
//! The chunked CSR fill ([`crate::CsrGraph`]) proved the only parallelism
//! this codebase permits: **fixed chunk partition + position-identical
//! reduction**. Work is split by *canonical row ranges* decided up front
//! from the data alone (never from thread timing), each chunk writes a
//! disjoint slice of the output, and the merge is by position — so the
//! result is bit-identical to the serial pass at any thread count. This
//! module extracts that idiom so the sweep kernels (the A-TxAllo epoch
//! sweep, Louvain local moving) can reuse it instead of re-deriving the
//! `split_at_mut` plumbing:
//!
//! * [`entry_balanced_split`] — the `row_split` canonical-range rule:
//!   contiguous row ranges balanced by entry count, computed from a CSR
//!   offsets array.
//! * [`for_each_chunk_mut`] — scoped-thread execution over those ranges,
//!   each chunk owning a disjoint `&mut` window of one per-row output
//!   slice plus its own scratch instance; [`for_each_part_mut`] is the
//!   same execution over windows the caller split itself.
//! * [`threads_from_env`] — the `TXALLO_THREADS` override backing the
//!   default of every thread-count knob ([`TxAlloParams::threads`],
//!   [`LouvainConfig::threads`]); unset means `1`, the exact serial
//!   code path.
//!
//! ## The canonical reduction tree
//!
//! The second idiom this module offers is **canonical chunking + fixed
//! tree merge**, for kernels that must *combine* per-chunk results
//! rather than write disjoint windows (Louvain aggregation, METIS
//! refinement bookkeeping, epoch ingestion folding):
//!
//! * [`canonical_chunk_count`] — the chunk count as a pure function of
//!   the input size (a work quantum and a data-derived cap), never of
//!   the thread count, so the chunk *shape* is an invariant of the data.
//! * [`fold_chunks`] — computes one partial result per canonical chunk
//!   (any number of workers, one chunk per worker slot, results
//!   reassembled by chunk index), so the partials themselves are
//!   independent of scheduling.
//! * [`reduce_tree`] — combines the partials in a fixed binary-tree
//!   order: adjacent pairs `(0,1) (2,3) …` per round, odd tail carried.
//!   The tree shape depends only on the chunk count — which depends
//!   only on the data — so the combine order is a pure function of the
//!   input.
//!
//! The combine operation handed to [`reduce_tree`] must be **exact**
//! under the tree's reassociation: elementwise integer adds, counter
//! sums, order-preserving concatenation, max/min under a total order.
//! Floating-point *summation* does not qualify wherever a serial code
//! path is pinned bitwise (reassociation changes bits): kernels keep
//! float folds either per-slot (each accumulator slot's contributions
//! concatenated in chunk order — the serial order — then folded
//! serially) or in serial caller code over the chunk-ordered partials.
//! That discipline is what keeps `threads = 1` the *exact* serial code
//! path while every other thread count reproduces it bit-for-bit.
//!
//! What this module deliberately does **not** offer: work stealing,
//! atomics, or any reduction whose float summation order depends on
//! scheduling — that is the determinism contract's "Parallel reduction"
//! rule (ARCHITECTURE.md).
//!
//! [`TxAlloParams::threads`]: https://docs.rs/txallo-core
//! [`LouvainConfig::threads`]: https://docs.rs/txallo-louvain

/// Thread-count default shared by every sweep knob: the `TXALLO_THREADS`
/// environment variable, parsed as `usize`. Unset, empty or unparsable
/// values mean `1` (the serial path); `0` means "one per available core".
///
/// The returned count only ever changes *how* a sweep is computed, never
/// its result — the partition layer guarantees bit-identical output at
/// any thread count — so reading an environment variable here does not
/// violate determinism.
pub fn threads_from_env() -> usize {
    match std::env::var("TXALLO_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => resolve_threads(n),
            Err(_) => 1,
        },
        Err(_) => 1,
    }
}

/// Resolves a requested thread count: `0` means "one per available core",
/// anything else is taken literally (`1` = serial).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Canonical row-range boundaries `[0, b₁, …, n]` with roughly equal
/// entry counts per chunk, computed from a CSR `offsets` array
/// (`offsets.len() == n + 1`, `offsets[n]` = total entries).
///
/// This is the `row_split` rule of the chunked CSR fill, extracted: the
/// split depends only on the offsets (data), never on scheduling, so the
/// same input always partitions the same way. Degenerate requests
/// (`chunks < 2`, fewer rows than chunks) collapse to the single serial
/// range `[0, n]`.
///
/// ```
/// use txallo_graph::par::entry_balanced_split;
/// // 4 rows with entry counts 5, 1, 5, 1.
/// let offsets = [0u32, 5, 6, 11, 12];
/// assert_eq!(entry_balanced_split(&offsets, 2), vec![0, 2, 4]);
/// assert_eq!(entry_balanced_split(&offsets, 1), vec![0, 4]);
/// ```
pub fn entry_balanced_split(offsets: &[u32], chunks: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    if chunks < 2 || n < chunks {
        return vec![0, n];
    }
    let entries = offsets[n] as usize;
    let per = entries.div_ceil(chunks).max(1);
    let mut bounds = vec![0usize];
    let mut next = per;
    for v in 0..n {
        if offsets[v + 1] as usize >= next && v + 1 < n {
            bounds.push(v + 1);
            next = offsets[v + 1] as usize + per;
        }
    }
    bounds.push(n);
    bounds
}

/// Runs `f(lo, chunk, scratch)` for every chunk of `bounds`
/// (as produced by [`entry_balanced_split`]): chunk `c` covers rows
/// `bounds[c]..bounds[c + 1]`, receives the matching disjoint `&mut`
/// window of `data` (so `chunk[i]` is row `lo + i`) and exclusive use of
/// `scratch[c]`.
///
/// A single chunk runs inline on the calling thread — no spawn at all —
/// which is what makes `threads == 1` the exact serial code path of
/// every caller. Multiple chunks run under [`std::thread::scope`], one
/// thread per chunk; because every chunk writes only its own window and
/// the windows are assigned by position, the combined `data` is
/// bit-identical to a serial left-to-right pass regardless of which
/// chunk finishes first.
///
/// # Panics
/// Panics when `scratch` has fewer instances than chunks or `bounds`
/// does not cover `data`.
pub fn for_each_chunk_mut<T, S, F>(bounds: &[usize], data: &mut [T], scratch: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert_eq!(*bounds.last().expect("non-empty bounds"), data.len()); // txallo-lint: allow(lib-unwrap) — callers pass `[0, …, n]`; an empty bounds slice is a program bug worth stopping on
    let mut rest: &mut [T] = data;
    let mut windows = Vec::with_capacity(bounds.len() - 1);
    for pair in bounds.windows(2) {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(pair[1] - pair[0]);
        rest = tail;
        windows.push((pair[0], chunk));
    }
    for_each_part_mut(&mut windows, scratch, |(lo, chunk), s| f(*lo, chunk, s));
}

/// Runs `f(part, scratch)` for every element of `parts`, each with
/// exclusive use of the matching `scratch` instance — the execution half
/// of [`for_each_chunk_mut`], for callers whose disjoint per-chunk
/// windows are not plain sub-slices of one array (e.g. the slots of a
/// [`crate::CandidateCache`], split by
/// [`crate::CandidateCache::windows_mut`]).
///
/// A single part runs inline on the calling thread; several run under
/// [`std::thread::scope`], one thread per part. Each part is written only
/// by its own thread, so the result is independent of which part
/// finishes first.
///
/// # Panics
/// Panics when `scratch` has fewer instances than `parts`.
pub fn for_each_part_mut<T, S, F>(parts: &mut [T], scratch: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut T, &mut S) + Sync,
{
    assert!(
        scratch.len() >= parts.len(),
        "one scratch instance per chunk"
    );
    if let [part] = parts {
        f(part, &mut scratch[0]);
        return;
    }
    std::thread::scope(|scope| {
        for (part, s) in parts.iter_mut().zip(scratch.iter_mut()) {
            let f = &f;
            scope.spawn(move || f(part, s));
        }
    });
}

/// Canonical chunk count for a reduction over `entries` work items: one
/// chunk per `quantum` items, clamped to `1..=max_chunks`. Both `quantum`
/// (a fixed work-granularity constant) and `max_chunks` (typically a
/// scratch-memory budget derived from the data, e.g. "histograms of `C`
/// communities must fit a fixed byte budget") are functions of the data —
/// **never of the thread count** — so the chunk shape, and with it every
/// partial-result boundary, is an invariant of the input.
///
/// ```
/// use txallo_graph::par::canonical_chunk_count;
/// assert_eq!(canonical_chunk_count(10_000, 4096, 64), 2);
/// assert_eq!(canonical_chunk_count(5, 4096, 64), 1);
/// assert_eq!(canonical_chunk_count(usize::MAX, 1, 8), 8);
/// ```
pub fn canonical_chunk_count(entries: usize, quantum: usize, max_chunks: usize) -> usize {
    (entries / quantum.max(1)).clamp(1, max_chunks.max(1))
}

/// Computes one partial result per canonical chunk of `bounds` (as
/// produced by [`entry_balanced_split`]): chunk `c` covers
/// `bounds[c]..bounds[c + 1]` and yields `f(c, lo, hi)`. Returns the
/// partials **in chunk order**, regardless of which worker computed
/// which chunk or in what order they finished.
///
/// `threads <= 1` (after [`resolve_threads`]) runs the chunks inline on
/// the calling thread, left to right — the exact serial code path.
/// More workers split the chunk list into contiguous runs, one per
/// worker; since each partial is a pure function of its chunk range and
/// lands in its own slot, the returned vector is bit-identical at every
/// worker count. Callers combine the partials with [`reduce_tree`] (or
/// serially in chunk order, for float folds pinned against a serial
/// path).
///
/// # Panics
/// Panics when `bounds` is empty.
pub fn fold_chunks<R, F>(threads: usize, bounds: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    assert!(!bounds.is_empty(), "bounds must cover at least `[0, n]`");
    let chunks = bounds.len() - 1;
    let workers = resolve_threads(threads).min(chunks);
    if workers <= 1 {
        return bounds
            .windows(2)
            .enumerate()
            .map(|(c, pair)| f(c, pair[0], pair[1]))
            .collect();
    }
    let mut out: Vec<Option<R>> = (0..chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut out;
        let mut start = 0usize;
        for w in 0..workers {
            let end = ((w + 1) * chunks) / workers;
            let (window, tail) = rest.split_at_mut(end - start);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in window.iter_mut().enumerate() {
                    let c = start + i;
                    *slot = Some(f(c, bounds[c], bounds[c + 1]));
                }
            });
            start = end;
        }
    });
    out.into_iter()
        .map(|r| r.expect("scope joined every worker, so every chunk slot was filled")) // txallo-lint: allow(lib-unwrap) — the worker windows partition 0..chunks exactly, and thread::scope joins before returning
        .collect()
}

/// Combines `parts` in a **fixed binary-tree order**: each round merges
/// adjacent pairs `(0,1) (2,3) …` with `combine(left, right)`, carrying
/// an odd tail unchanged, until one value remains. Returns `None` for an
/// empty input.
///
/// The tree shape depends only on `parts.len()` — with
/// [`canonical_chunk_count`] chunking, a pure function of the data — so
/// the combine order never varies with the thread count. `combine` must
/// be **exact** under this reassociation (elementwise integer adds,
/// order-preserving concatenation, max/min under a total order, …);
/// floating-point summation does not qualify wherever a serial path is
/// pinned bitwise — keep float folds per-slot or serial over the
/// chunk-ordered partials instead (see the module docs).
///
/// ```
/// use txallo_graph::par::reduce_tree;
/// // Concatenation is order-preserving: the tree yields chunk order.
/// let parts = vec![vec![1], vec![2, 3], vec![4]];
/// assert_eq!(
///     reduce_tree(parts, |mut a, mut b| { a.append(&mut b); a }),
///     Some(vec![1, 2, 3, 4]),
/// );
/// assert_eq!(reduce_tree(Vec::<u32>::new(), |a, _| a), None);
/// ```
pub fn reduce_tree<R>(mut parts: Vec<R>, mut combine: impl FnMut(R, R) -> R) -> Option<R> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(left) = it.next() {
            match it.next() {
                Some(right) => next.push(combine(left, right)),
                None => next.push(left),
            }
        }
        parts = next;
    }
    parts.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_rows_and_balances_entries() {
        let offsets: Vec<u32> = vec![0, 50, 50, 60, 200, 210, 220, 400, 410, 420, 500];
        for chunks in [2usize, 3, 4] {
            let bounds = entry_balanced_split(&offsets, chunks);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), 10);
            assert!(
                bounds.windows(2).all(|p| p[0] < p[1]),
                "strictly increasing"
            );
        }
        assert_eq!(entry_balanced_split(&offsets, 1), vec![0, 10]);
        assert_eq!(entry_balanced_split(&[0], 4), vec![0, 0], "empty");
        assert_eq!(
            entry_balanced_split(&[0, 1, 2], 5),
            vec![0, 2],
            "fewer rows than chunks"
        );
    }

    #[test]
    fn split_is_deterministic() {
        let offsets: Vec<u32> = (0..=257u32).map(|i| i * 3).collect();
        assert_eq!(
            entry_balanced_split(&offsets, 4),
            entry_balanced_split(&offsets, 4)
        );
    }

    #[test]
    fn chunked_run_matches_serial_run() {
        // Each row's output is a pure function of its index; the chunked
        // pass must reproduce the serial array exactly, with every chunk
        // seeing its own scratch.
        let offsets: Vec<u32> = (0..=100u32).map(|i| i * i / 4).collect();
        let mut serial = vec![0u64; 100];
        for (i, slot) in serial.iter_mut().enumerate() {
            *slot = (i as u64) * 17 + 3;
        }
        for chunks in [1usize, 2, 3, 5, 8] {
            let bounds = entry_balanced_split(&offsets, chunks);
            let mut data = vec![0u64; 100];
            let mut scratch = vec![0usize; bounds.len() - 1];
            for_each_chunk_mut(&bounds, &mut data, &mut scratch, |lo, chunk, used| {
                for (idx, slot) in chunk.iter_mut().enumerate() {
                    *slot = ((lo + idx) as u64) * 17 + 3;
                }
                *used += chunk.len();
            });
            assert_eq!(data, serial, "{chunks} chunks");
            assert_eq!(
                scratch.iter().sum::<usize>(),
                100,
                "chunks partition the rows"
            );
        }
    }

    #[test]
    fn fold_chunks_is_worker_count_invariant() {
        // Partials are pure functions of the chunk range; every worker
        // count must return the identical chunk-ordered vector.
        let bounds: Vec<usize> = vec![0, 7, 13, 20, 21, 40];
        let serial = fold_chunks(1, &bounds, |c, lo, hi| (c, lo, hi, (lo..hi).sum::<usize>()));
        for threads in [2usize, 3, 5, 8, 64] {
            let par = fold_chunks(threads, &bounds, |c, lo, hi| {
                (c, lo, hi, (lo..hi).sum::<usize>())
            });
            assert_eq!(par, serial, "{threads} workers");
        }
        assert_eq!(serial.len(), 5);
        assert_eq!(serial[3], (3, 20, 21, 20));
    }

    #[test]
    fn fold_chunks_handles_degenerate_bounds() {
        assert!(fold_chunks(4, &[0], |_, _, _| 0u32).is_empty(), "no chunks");
        assert_eq!(fold_chunks(4, &[0, 0], |c, lo, hi| (c, lo, hi)).len(), 1);
    }

    #[test]
    fn reduce_tree_shape_is_fixed_by_part_count() {
        // Parenthesize the combine to observe the tree: 5 parts must
        // always merge as (((01)(23))4) — adjacent pairs, odd tail
        // carried, regardless of anything but the part count.
        let parts: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let merged = reduce_tree(parts, |a, b| format!("({a}{b})"));
        assert_eq!(merged.as_deref(), Some("(((01)(23))4)"));
        assert_eq!(reduce_tree(Vec::<String>::new(), |a, _| a), None);
        assert_eq!(
            reduce_tree(vec![9u64], |a, b| a + b),
            Some(9),
            "single part passes through untouched"
        );
    }

    #[test]
    fn reduce_tree_elementwise_histogram_merge_matches_serial() {
        // The aggregation kernel's use case: per-chunk integer degree
        // histograms merged elementwise. Integer adds are exact under
        // any association, so the tree must equal a serial left fold.
        let parts: Vec<Vec<u32>> = (0..7)
            .map(|c| (0..16).map(|i| (c * 31 + i * 7) % 13).collect())
            .collect();
        let serial = parts.iter().skip(1).fold(parts[0].clone(), |mut acc, p| {
            for (a, b) in acc.iter_mut().zip(p) {
                *a += b;
            }
            acc
        });
        let tree = reduce_tree(parts, |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        assert_eq!(tree, Some(serial));
    }

    #[test]
    fn canonical_chunk_count_is_clamped_and_data_driven() {
        assert_eq!(canonical_chunk_count(0, 4096, 64), 1);
        assert_eq!(canonical_chunk_count(4096 * 3, 4096, 64), 3);
        assert_eq!(canonical_chunk_count(1 << 30, 4096, 16), 16);
        assert_eq!(canonical_chunk_count(100, 0, 0), 1, "degenerate caps");
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1, "0 resolves to the core count");
    }
}
