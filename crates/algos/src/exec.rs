//! Minimal scoped fork-join execution used by the parallel algorithms in
//! this crate.
//!
//! The distributed runtime (`pgxd`) has a full task manager modelled on
//! PGX.D; the algorithms here only need "run these two closures and
//! wait", so a thin wrapper over [`std::thread::scope`] keeps `pgxd-algos`
//! dependency-free and the call sites readable.

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
