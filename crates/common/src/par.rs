//! Deterministic chunked parallelism.
//!
//! Callers parallelize a buffer by splitting it into contiguous, disjoint
//! `&mut` chunks (one or more elements each); every chunk is processed by
//! exactly one thread. Chunk boundaries depend only on the data geometry —
//! never on the thread count or on scheduling — and within a chunk work
//! runs in the same order as the sequential path, so the buffer contents
//! are bit-identical whether the work runs on one thread or sixteen.
//! Per-chunk results are returned in chunk order so any fold over them is
//! deterministic too.
//!
//! [`map_chunks`] spawns scoped workers per call, so it suits coarse
//! fan-outs such as the sharded microsimulator's per-tick corridor step.
//! Fine-grained loops (a DP layer, an SGD mini-batch) run sequentially;
//! their callers parallelize across whole trips instead, where one spawn
//! pays for milliseconds of work.

use std::num::NonZeroUsize;

/// Resolves a configured worker count: `0` means one worker per available
/// core, anything else is taken literally (minimum 1).
pub fn effective_threads(configured: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter), applies `f` to each, and returns the per-chunk
/// results **in chunk order**. `f` receives the offset of its chunk's
/// first element within `data`.
///
/// With `threads > 1` chunks are spread round-robin over scoped worker
/// threads; each chunk is still a disjoint `&mut` slice processed by
/// exactly one thread, so the writes are race-free by construction and
/// the output is independent of the thread count.
///
/// # Panics
///
/// Panics if `chunk_len == 0` or a worker thread panics.
pub fn map_chunks<T, R, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    if threads <= 1 || n_chunks <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, chunk)| f(ci * chunk_len, chunk))
            .collect();
    }

    let workers = threads.min(n_chunks);
    // Static round-robin assignment: no runtime scheduling, so which thread
    // owns which chunk is fixed up front (only timing varies across runs).
    let mut buckets: Vec<Vec<(usize, usize, &mut [T])>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[ci % workers].push((ci, ci * chunk_len, chunk));
    }

    let mut results: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(ci, offset, chunk)| (ci, f(offset, chunk)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (ci, r) in handle.join().expect("worker thread panicked") {
                results[ci] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn chunk_results_are_ordered_and_complete() {
        for threads in [1, 2, 5, 16] {
            let mut data: Vec<u64> = (0..103).collect();
            let sums = map_chunks(&mut data, 10, threads, |offset, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1;
                }
                (offset, chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.len(), 11);
            // Offsets come back in chunk order regardless of thread count.
            assert!(sums.windows(2).all(|w| w[0].0 < w[1].0));
            let total: u64 = sums.iter().map(|(_, s)| s).sum();
            assert_eq!(total, (1..=103).sum::<u64>());
            assert_eq!(data[0], 1);
            assert_eq!(data[102], 103);
        }
    }

    #[test]
    fn identical_output_across_thread_counts() {
        let baseline = {
            let mut data = vec![0u64; 97];
            map_chunks(&mut data, 7, 1, |offset, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = (offset + k) as u64 * 3 + 1;
                }
                chunk.len()
            });
            data
        };
        for threads in [2, 3, 8] {
            let mut data = vec![0u64; 97];
            map_chunks(&mut data, 7, threads, |offset, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = (offset + k) as u64 * 3 + 1;
                }
                chunk.len()
            });
            assert_eq!(data, baseline);
        }
    }
}
