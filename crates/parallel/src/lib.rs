//! Minimal scoped-thread work partitioning for the dense kernels.
//!
//! The TCCA pipeline is an **offline** batch computation: every hot kernel (the
//! blocked GEMM behind every dense product and the covariance-tensor build, whose
//! Khatri–Rao operand is packed inside it; MTTKRP; the mode-`n` Gram of the HOSVD
//! initializations) is a loop over disjoint blocks of an output buffer. This crate
//! provides exactly that shape of parallelism — split a mutable slice into
//! fixed-size chunks and hand contiguous runs of chunks to scoped threads —
//! with no queues, no work stealing and no persistent pool. `std::thread::scope` keeps
//! everything borrow-checked; spawning a handful of OS threads per multi-millisecond
//! kernel call is noise compared to the kernel itself.
//!
//! ## Determinism
//!
//! Each chunk is computed independently by a pure closure, and every kernel in this
//! workspace fixes each output element's accumulation order (the reduction index
//! always ascends) *independently of where chunk boundaries fall*. That — not the
//! boundary placement, which callers may derive from the thread count for load
//! balance — is the invariant that makes results **bit-identical** across thread
//! counts, including the serial fallback. A kernel whose per-chunk result depended on
//! boundary placement (e.g. a chunk-local reduction combined afterwards) would NOT be
//! deterministic under this scheme. The property tests in
//! `crates/linalg/tests/properties.rs` and `crates/tensor/tests/properties.rs` pin
//! this down.
//!
//! ## Thread-count policy
//!
//! [`max_threads`] reads the `TCCA_NUM_THREADS` environment variable once per process
//! (values `0` or unparsable fall back to the detected parallelism) and otherwise uses
//! [`std::thread::available_parallelism`]. [`threads_for_work`] applies the serial
//! fallback: below [`SERIAL_WORK_THRESHOLD`] estimated flops, spawning threads costs
//! more than it saves and the caller gets `1`.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod pool;

pub use pool::Pool;

use std::sync::OnceLock;

/// Environment variable overriding the detected thread count (read once per process).
pub const ENV_NUM_THREADS: &str = "TCCA_NUM_THREADS";

/// Estimated flop count below which kernels run serially: at ~1 flop/ns, 256k flops is
/// a few hundred microseconds — the regime where thread spawn/join overhead dominates.
pub const SERIAL_WORK_THRESHOLD: usize = 1 << 18;

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

/// The maximum number of worker threads kernels may use.
///
/// `TCCA_NUM_THREADS` (if set to a positive integer) wins; otherwise
/// [`std::thread::available_parallelism`] decides. Always at least 1.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var(ENV_NUM_THREADS) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Thread count to use for a kernel performing roughly `flops` floating-point
/// operations: 1 below [`SERIAL_WORK_THRESHOLD`], otherwise [`max_threads`] capped so
/// every thread keeps at least a threshold's worth of work.
pub fn threads_for_work(flops: usize) -> usize {
    if flops < SERIAL_WORK_THRESHOLD {
        1
    } else {
        max_threads().min((flops / SERIAL_WORK_THRESHOLD).max(1))
    }
}

/// Split `data` into chunks of `chunk_len` elements (the last chunk may be shorter) and
/// run `f(chunk_index, chunk)` on every chunk, distributing contiguous runs of chunks
/// over at most `threads` scoped threads.
///
/// With `threads <= 1` (or a single chunk) this degenerates to a plain serial loop with
/// zero thread overhead. Chunk indices are global and independent of `threads`, so `f`
/// can recover absolute positions (e.g. output row numbers) from the index alone.
///
/// # Panics
/// Panics if `chunk_len == 0` while `data` is non-empty.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "for_each_chunk_mut: chunk_len must be > 0");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.clamp(1, n_chunks);
    if threads == 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // Balanced static partition: the first `rem` threads take `q + 1` chunks each.
    let q = n_chunks / threads;
    let rem = n_chunks % threads;
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        let mut chunk_base = 0usize;
        for t in 0..threads {
            let take_chunks = q + usize::from(t < rem);
            if take_chunks == 0 {
                break;
            }
            let take_elems = (take_chunks * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take_elems);
            rest = tail;
            let base = chunk_base;
            chunk_base += take_chunks;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_visit_every_chunk_once() {
        for threads in [1usize, 2, 3, 8, 64] {
            let mut data = vec![0u32; 103];
            for_each_chunk_mut(&mut data, 10, threads, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + idx as u32;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(
                    *v,
                    1 + (i / 10) as u32,
                    "element {i} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn chunk_indices_are_global() {
        let mut data = vec![0usize; 40];
        for_each_chunk_mut(&mut data, 4, 5, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 4);
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut data: Vec<f64> = Vec::new();
        for_each_chunk_mut(&mut data, 8, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn threads_for_work_scales_down_small_problems() {
        assert_eq!(threads_for_work(0), 1);
        assert_eq!(threads_for_work(SERIAL_WORK_THRESHOLD - 1), 1);
        assert!(threads_for_work(usize::MAX / 2) >= 1);
        assert!(threads_for_work(SERIAL_WORK_THRESHOLD) <= max_threads());
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
