//! Minimal scoped fork-join execution used by the parallel algorithms in
//! this crate.
//!
//! The distributed runtime (`pgxd`) has a full task manager modelled on
//! PGX.D; the algorithms here only need "run these closures on up to `w`
//! threads and wait", so a thin wrapper over [`std::thread::scope`] keeps
//! `pgxd-algos` dependency-free and the call sites readable.

/// Splits `len` items into `parts` contiguous chunks as evenly as possible
/// (the first `len % parts` chunks get one extra item) and returns the
/// chunk boundaries as `parts + 1` offsets.
///
/// This is the "divide equally among worker threads" rule of §IV step 1.
pub fn even_chunk_bounds(len: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "cannot split into zero chunks");
    let base = len / parts;
    let extra = len % parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    let mut offset = 0;
    bounds.push(0);
    for i in 0..parts {
        offset += base + usize::from(i < extra);
        bounds.push(offset);
    }
    bounds
}

/// Below this many items per worker, extra threads cost more than they
/// save; parallel entry points clamp their worker counts so each worker
/// gets at least this many items.
pub const MIN_ITEMS_PER_WORKER: usize = 4096;

/// Runs `f(worker_index, chunk)` on up to `workers` scoped threads, one per
/// even chunk of `data`. With `workers <= 1` (or a single chunk) runs
/// inline on the caller thread — parallel algorithms degrade gracefully to
/// their sequential form.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = workers.max(1).min(data.len().max(1));
    if workers == 1 {
        f(0, data);
        return;
    }
    let bounds = even_chunk_bounds(data.len(), workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut consumed = 0;
        for w in 0..workers {
            let take = bounds[w + 1] - bounds[w];
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            consumed += take;
            let f = &f;
            scope.spawn(move || f(w, chunk));
        }
        debug_assert_eq!(consumed, bounds[workers]);
    });
}

/// Classic binary fork-join: runs `a` and `b` potentially in parallel and
/// waits for both.
pub fn join2<A, B>(parallel: bool, a: A, b: B)
where
    A: FnOnce() + Send,
    B: FnOnce() + Send,
{
    if parallel {
        std::thread::scope(|scope| {
            scope.spawn(a);
            b();
        });
    } else {
        a();
        b();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn even_chunks_cover_exactly() {
        for len in [0usize, 1, 2, 7, 10, 100, 101] {
            for parts in [1usize, 2, 3, 8] {
                let b = even_chunk_bounds(len, parts);
                assert_eq!(b.len(), parts + 1);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), len);
                for w in b.windows(2) {
                    assert!(w[0] <= w[1]);
                    // chunk sizes differ by at most one
                    assert!(w[1] - w[0] <= len / parts + 1);
                }
            }
        }
    }

    #[test]
    fn even_chunks_first_get_extra() {
        let b = even_chunk_bounds(10, 4); // 3,3,2,2
        assert_eq!(b, vec![0, 3, 6, 8, 10]);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_element() {
        let mut v: Vec<u64> = (0..1000).collect();
        for_each_chunk_mut(&mut v, 4, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn for_each_chunk_mut_single_worker_inline() {
        let mut v = vec![1u32, 2, 3];
        for_each_chunk_mut(&mut v, 1, |w, chunk| {
            assert_eq!(w, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn for_each_chunk_mut_empty_slice() {
        let mut v: Vec<u32> = vec![];
        for_each_chunk_mut(&mut v, 4, |_, chunk| assert!(chunk.is_empty()));
    }

    #[test]
    fn for_each_chunk_more_workers_than_items() {
        let mut v = vec![5u8, 6];
        let seen = AtomicUsize::new(0);
        for_each_chunk_mut(&mut v, 16, |_, chunk| {
            seen.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn join2_both_run() {
        let counter = AtomicUsize::new(0);
        join2(
            true,
            || {
                counter.fetch_add(1, Ordering::Relaxed);
            },
            || {
                counter.fetch_add(10, Ordering::Relaxed);
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 11);
        join2(
            false,
            || {
                counter.fetch_add(100, Ordering::Relaxed);
            },
            || {
                counter.fetch_add(1000, Ordering::Relaxed);
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 1111);
    }
}
