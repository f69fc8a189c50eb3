//! Small, deterministic exercises of the exchange pipeline's unsafe code
//! — the uninitialised output every chunk is decoded into and its
//! `set_len`, and the untyped entry's two slice views (a `u64` range
//! as keys, any other range as constant-image elements) — sized so `cargo
//! miri test -p pgxd --test miri_exchange` finishes in minutes. Each
//! exchange runs four ways: `u64` keys and `(u64, u32)` pairs (an image
//! and a rest column) through the typed `exchange`, and `u64` keys and
//! `(u32, u64)` pairs (no `Wire` impl) through the untyped
//! `exchange_by_offsets`. CI runs exactly that command; the same tests
//! also run natively in the normal test sweep.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::{MachineCtx, Wire};

/// Machine `id`'s `i`-th element, as a `u64` key or as a pair.
trait Element: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    fn make(id: u64, i: u64) -> Self;
}

impl Element for u64 {
    fn make(id: u64, i: u64) -> Self {
        id * 100 + i
    }
}

impl Element for (u64, u32) {
    fn make(id: u64, i: u64) -> Self {
        (id * 100 + i, i as u32)
    }
}

impl Element for (u32, u64) {
    fn make(id: u64, i: u64) -> Self {
        (i as u32, id * 100 + i)
    }
}

/// One exchange of `data`: the typed core, or the untyped entry.
type Exchange<T> = fn(&mut MachineCtx, &[T], &[usize]) -> (Vec<T>, Vec<usize>);

fn typed<T: Wire>(ctx: &mut MachineCtx, data: &[T], offsets: &[usize]) -> (Vec<T>, Vec<usize>) {
    ctx.exchange(data, offsets)
}

fn untyped<T: Copy + Send + Sync + 'static>(
    ctx: &mut MachineCtx,
    data: &[T],
    offsets: &[usize],
) -> (Vec<T>, Vec<usize>) {
    ctx.exchange_by_offsets(data, offsets)
}

/// Nine elements per machine, three to each of three machines, exchanged
/// twice.
fn three_by_three<T: Element>(config: ClusterConfig, exchange: Exchange<T>) {
    let p = 3;
    let report = Cluster::new(config).run(|ctx| {
        let id = ctx.id() as u64;
        let data: Vec<T> = (0..9).map(|i| T::make(id, i)).collect();
        let offsets = vec![0usize, 3, 6, 9];
        let _ = exchange(ctx, &data, &offsets);
        exchange(ctx, &data, &offsets)
    });
    for (m, (out, bounds)) in report.results.iter().enumerate() {
        assert_eq!(bounds, &vec![0, 3, 6, 9]);
        let expect: Vec<T> = (0..p as u64)
            .flat_map(|src| (0..3).map(move |i| T::make(src, m as u64 * 3 + i)))
            .collect();
        assert_eq!(out, &expect, "machine {m}");
    }
}

/// [`three_by_three`] through both entries, with keys and with pairs.
fn three_by_three_every_way(config: impl Fn() -> ClusterConfig) {
    three_by_three::<u64>(config(), typed);
    three_by_three::<(u64, u32)>(config(), typed);
    three_by_three::<u64>(config(), untyped);
    three_by_three::<(u32, u64)>(config(), untyped);
}

#[test]
fn small_exchange_places_every_element_exactly_once() {
    // 3 machines, 2 workers, 16-byte buffers (one element per chunk):
    // enough to drive worker-side sends, flush/finish, and the
    // decode into uninitialised slots with a handful of elements.
    three_by_three_every_way(|| {
        ClusterConfig::new(3)
            .buffer_bytes(16)
            .workers_per_machine(2)
    });
}

#[test]
fn one_buffer_exchange_flushed_by_the_machine_thread() {
    // The same nine elements under the default 256 KiB buffer: every
    // stream fits one chunk, so the machine thread flushes its own sends
    // and then receives — the other route through the same unsafe blocks
    // (the two cases around this one only ever send from worker threads).
    three_by_three_every_way(|| ClusterConfig::new(3).workers_per_machine(2));
}

/// Machines 0 and 2 send their four elements to machine 1, which sends its
/// four to machine 0, through 8-byte buffers.
fn lopsided<T: Element>(exchange: Exchange<T>) {
    let p = 3;
    let cluster = Cluster::new(ClusterConfig::new(p).buffer_bytes(8).workers_per_machine(1));
    let report = cluster.run(|ctx| {
        let data: Vec<T> = (0..4).map(|i| T::make(ctx.id() as u64, i)).collect();
        let dst = (ctx.id() + 1) % 2;
        let mut offsets = vec![0usize; p + 1];
        for (j, slot) in offsets.iter_mut().enumerate() {
            *slot = if j > dst { data.len() } else { 0 };
        }
        exchange(ctx, &data, &offsets)
    });
    let from = |id: u64| (0..4).map(move |i| T::make(id, i));
    assert_eq!(report.results[0].0, from(1).collect::<Vec<T>>());
    assert_eq!(
        report.results[1].0,
        from(0).chain(from(2)).collect::<Vec<T>>()
    );
    // Machine 2 receives nothing at all (zero-length output buffer).
    assert!(report.results[2].0.is_empty());
}

#[test]
fn exchange_with_empty_and_lopsided_ranges() {
    // Some machines send nothing to some destinations (empty chunk paths),
    // machine 2 receives nothing at all (zero-length uninitialised output).
    lopsided::<u64>(typed);
    lopsided::<(u64, u32)>(typed);
    lopsided::<u64>(untyped);
    lopsided::<(u32, u64)>(untyped);
}
