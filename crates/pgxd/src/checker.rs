//! Debug-mode protocol checker: a per-fabric ledger that turns rare
//! communication races into deterministic panics.
//!
//! The paper's correctness story rests on invariants the type system
//! cannot see: every packet sent is eventually received by a matching
//! tag (§IV-B/§IV-C collective sequence discipline), and the precomputed
//! write offsets of [`exchange`](crate::machine::MachineCtx::exchange)
//! tiling each destination buffer exactly once (§IV-C). A violation of
//! either shows up — if at all — as a rare hang or a corrupted output
//! permutation. This module makes each one a loud panic with machine/tag
//! context, at the moment the fabric can first prove it happened: a
//! [`barrier`] or fabric teardown.
//!
//! One [`ProtocolChecker`] is shared by every machine of a fabric (created
//! inside `CommManager::fabric_with` around the run's control plane, whose
//! abort flag stands the quiescence checks down). The hooks are compiled to no-ops unless `debug_assertions`
//! or the `checker` feature is on — release benchmarks pay nothing,
//! `cargo test` and the CI debug jobs get the full ledger.
//!
//! Quiescence checks run between *two* barrier waits (see
//! [`MachineCtx::barrier`]): after the first wait every machine is parked
//! inside barrier code, so no send or receive can race the ledger scan;
//! the verdict is computed from shared state, so either every machine
//! passes or every machine panics — a failed check can never deadlock the
//! fabric by killing only one member.
//!
//! [`barrier`]: crate::machine::MachineCtx::barrier
//! [`MachineCtx::barrier`]: crate::machine::MachineCtx::barrier

use crate::comm::Tag;
use crate::fault::ClusterBarrier;
use crate::sync::Mutex;
use crate::trace::{violation, EventKind, MachineTrace, LANE_MAIN};
use std::collections::HashMap;
// A std Arc, not the loom one from crate::sync: plain shared ownership of
// non-loom-modeled state, handed around as std::sync::Arc.
use std::sync::Arc;

/// Whether the checker hooks are compiled in. `const`, so the hot-path
/// call sites fold to nothing in release builds without the `checker`
/// feature.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "checker"));

#[derive(Default)]
struct Ledger {
    /// Outstanding packets: `(src, dst, tag) → count` of sent-but-not-yet-
    /// received packets. Entries are removed when the count reaches zero so
    /// the map stays bounded by the number of *in-flight* packets, not the
    /// number ever sent.
    in_flight: HashMap<(usize, usize, Tag), usize>,
}

/// Fabric-wide ledger of sends and receives. All hooks are cheap (one
/// mutex, one hash op) and compiled out entirely when [`ENABLED`] is false.
pub struct ProtocolChecker {
    machines: usize,
    ledger: Mutex<Ledger>,
    /// Each machine's trace sink, indexed by machine id (empty when the
    /// run is untraced): every verdict below is emitted as an
    /// [`EventKind::Checker`] instant *before* the panic, so the violation
    /// is visible in the exported timeline at the moment the fabric proved
    /// it.
    traces: Vec<Arc<MachineTrace>>,
    /// The run's control plane. Once it is aborted (a machine failed or a
    /// step timed out) the quiescence checks stand down, because a run
    /// that died mid-exchange legitimately strands packets. The stranded
    /// state is still reported — as
    /// [`RunError::residual`](crate::fault::RunError) via
    /// [`ProtocolChecker::residual`] — instead of panicking over it.
    control: Arc<ClusterBarrier>,
}

/// Checker-ledger debris counted after an aborted run: what the fabric
/// still held when the surviving machines tore down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidualReport {
    /// Packets sent but never consumed.
    pub in_flight_packets: usize,
}

impl ProtocolChecker {
    /// A checker for an untraced fabric of `machines` machines.
    pub fn new(machines: usize) -> Self {
        Self::with_traces(machines, Vec::new())
    }

    /// A checker for a fabric of `machines` machines whose verdicts land
    /// in `traces`, one sink per machine in machine order (empty when the
    /// run is untraced), under a control plane of its own that is never
    /// aborted.
    pub fn with_traces(machines: usize, traces: Vec<Arc<MachineTrace>>) -> Self {
        let control = Arc::new(ClusterBarrier::new(machines, None));
        Self::with_control(machines, traces, control)
    }

    /// [`with_traces`](ProtocolChecker::with_traces) under the run's
    /// control plane: what [`CommManager::fabric_with`] builds.
    ///
    /// [`CommManager::fabric_with`]: crate::comm::CommManager::fabric_with
    pub(crate) fn with_control(
        machines: usize,
        traces: Vec<Arc<MachineTrace>>,
        control: Arc<ClusterBarrier>,
    ) -> Self {
        ProtocolChecker {
            machines,
            ledger: Mutex::new(Ledger::default()),
            traces,
            control,
        }
    }

    /// Counts the packets a failed run left unconsumed. Meaningful after
    /// teardown of an aborted run; zero for a clean one.
    pub fn residual(&self) -> ResidualReport {
        ResidualReport {
            in_flight_packets: self.ledger.lock().in_flight.values().sum(),
        }
    }

    /// Number of machines on the fabric this checker watches.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Emits a [`violation`] code as a checker instant on `machine`'s
    /// timeline (every machine's when the verdict is fabric-wide). The
    /// sink outlives the panic that follows, so
    /// [`TraceCollector::collect`](crate::trace::TraceCollector::collect)
    /// after a caught unwind shows the event.
    fn trace_violation(&self, machine: Option<usize>, code: u64) {
        let sinks = match machine {
            Some(m) => self.traces.get(m..=m).unwrap_or_default(),
            None => &self.traces,
        };
        for t in sinks {
            t.instant(LANE_MAIN, EventKind::Checker, code, 0);
        }
    }

    /// Records a packet entering the fabric.
    pub fn packet_sent(&self, src: usize, dst: usize, tag: Tag) {
        if !ENABLED {
            return;
        }
        *self
            .ledger
            .lock()
            .in_flight
            .entry((src, dst, tag))
            .or_insert(0) += 1;
    }

    /// Records a packet being consumed by its receiver. Panics if no
    /// matching send was recorded — that is the tag-mismatch diagnostic
    /// (a packet surfacing under a tag nobody sent to this machine).
    pub fn packet_delivered(&self, src: usize, dst: usize, tag: Tag) {
        if !ENABLED {
            return;
        }
        let mut ledger = self.ledger.lock();
        let remaining = ledger.in_flight.get_mut(&(src, dst, tag)).map(|n| {
            *n -= 1;
            *n
        });
        match remaining {
            Some(0) => {
                ledger.in_flight.remove(&(src, dst, tag));
            }
            Some(_) => {}
            None => {
                drop(ledger);
                self.trace_violation(Some(dst), violation::PHANTOM_DELIVERY);
                panic!(
                    "protocol checker: machine {dst} received a packet from machine {src} \
                     with tag {tag:?} that was never sent (tag mismatch or duplicate delivery)"
                );
            }
        }
    }

    /// Verifies the fabric is quiescent: no packet sent but unreceived.
    /// Called with every machine parked (between the two waits of
    /// [`MachineCtx::barrier`](crate::machine::MachineCtx::barrier)) or at
    /// fabric teardown. `context` names the call site for the diagnostic;
    /// `machine` is the reporting machine, if the check is machine-local.
    ///
    /// The verdict depends only on the shared ledger, so concurrent
    /// callers all agree.
    pub fn check_quiescent(&self, context: &str, machine: Option<usize>) {
        if !ENABLED {
            return;
        }
        if self.control.is_aborted() {
            // The run died mid-protocol; stranded state is expected and
            // reported through residual() instead.
            return;
        }
        let ledger = self.ledger.lock();
        if ledger.in_flight.is_empty() {
            return;
        }
        let mut undelivered: Vec<_> = ledger
            .in_flight
            .iter()
            .map(|(&(src, dst, tag), &n)| (src, dst, tag, n))
            .collect();
        drop(ledger);
        undelivered.sort();
        let listing: Vec<String> = undelivered
            .iter()
            .map(|(src, dst, tag, n)| format!("{n}× {src}→{dst} tag {tag:?}"))
            .collect();
        let who = match machine {
            Some(m) => format!("machine {m}"),
            None => "fabric".to_string(),
        };
        self.trace_violation(machine, violation::UNDELIVERED_PACKETS);
        panic!(
            "protocol checker: undelivered packet(s) at {context} ({who}): [{}]",
            listing.join(", ")
        );
    }

    /// A ledger for one machine's side of an offset exchange: records the
    /// `(offset, len)` spans written into a destination buffer and, at
    /// [`finish`](OffsetLedger::finish), verifies they tile `[0, total)`
    /// exactly once.
    pub fn offset_ledger(&self, machine: usize, tag: Tag, total: usize) -> OffsetLedger {
        OffsetLedger {
            machine,
            tag,
            total,
            spans: Vec::new(),
            enabled: ENABLED,
            trace: self.traces.get(machine).cloned(),
        }
    }
}

/// Collects the `(offset, len)` spans one machine writes into its
/// assembled output during
/// [`exchange`](crate::machine::MachineCtx::exchange),
/// then proves they tile the destination exactly once (§IV-C: the
/// precomputed write offsets must be disjoint and complete).
///
/// Machine-local — no locking; the receive loop owns it.
pub struct OffsetLedger {
    machine: usize,
    tag: Tag,
    total: usize,
    spans: Vec<(usize, usize)>,
    enabled: bool,
    /// The owning machine's trace sink: tiling verdicts are emitted as
    /// checker instants before the panic.
    trace: Option<Arc<MachineTrace>>,
}

impl OffsetLedger {
    /// A standalone ledger (tests); production code gets one from
    /// [`ProtocolChecker::offset_ledger`].
    pub fn new(machine: usize, tag: Tag, total: usize) -> Self {
        OffsetLedger {
            machine,
            tag,
            total,
            spans: Vec::new(),
            enabled: ENABLED,
            trace: None,
        }
    }

    /// Emits `code` on the owning machine's timeline, if traced.
    fn trace_violation(&self, code: u64) {
        if let Some(t) = &self.trace {
            t.instant(LANE_MAIN, EventKind::Checker, code, 0);
        }
    }

    /// Records one span written at element offset `offset`, `len` elements
    /// long. Empty spans are ignored (an empty chunk writes nothing).
    pub fn record(&mut self, offset: usize, len: usize) {
        if !self.enabled || len == 0 {
            return;
        }
        self.spans.push((offset, len));
    }

    /// Verifies the recorded spans tile `[0, total)` exactly once. Panics
    /// with machine/tag context on an overlap or a gap.
    pub fn finish(mut self) {
        if !self.enabled {
            return;
        }
        self.spans.sort_unstable();
        let mut expected = 0usize;
        for &(offset, len) in &self.spans {
            if offset < expected {
                self.trace_violation(violation::OFFSET_OVERLAP);
                panic!(
                    "protocol checker: overlapping offset range on machine {} tag {:?}: \
                     span [{offset}, {}) overlaps previously written [.., {expected})",
                    self.machine,
                    self.tag,
                    offset + len,
                );
            }
            if offset > expected {
                self.trace_violation(violation::OFFSET_GAP);
                panic!(
                    "protocol checker: gap in offset ranges on machine {} tag {:?}: \
                     [{expected}, {offset}) never written",
                    self.machine, self.tag,
                );
            }
            expected = offset + len;
        }
        if expected != self.total {
            self.trace_violation(violation::OFFSET_GAP);
            panic!(
                "protocol checker: gap in offset ranges on machine {} tag {:?}: \
                 [{expected}, {}) never written",
                self.machine, self.tag, self.total,
            );
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn tag() -> Tag {
        Tag::user(0, 0)
    }

    #[test]
    fn balanced_traffic_is_quiescent() {
        let c = ProtocolChecker::new(2);
        c.packet_sent(0, 1, tag());
        c.packet_sent(0, 1, tag());
        c.packet_delivered(0, 1, tag());
        c.packet_delivered(0, 1, tag());
        c.check_quiescent("test", None);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "checker"))]
    #[should_panic(expected = "undelivered packet")]
    fn unreceived_packet_reported() {
        let c = ProtocolChecker::new(2);
        c.packet_sent(0, 1, tag());
        c.check_quiescent("test", Some(1));
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "checker"))]
    #[should_panic(expected = "never sent")]
    fn phantom_delivery_reported() {
        let c = ProtocolChecker::new(2);
        c.packet_delivered(0, 1, tag());
    }

    #[test]
    fn offset_ledger_accepts_exact_tiling() {
        let mut l = OffsetLedger::new(0, tag(), 10);
        l.record(4, 6);
        l.record(0, 4);
        l.record(7, 0); // empty span: ignored
        l.finish();
    }

    #[test]
    fn offset_ledger_accepts_empty_total() {
        OffsetLedger::new(0, tag(), 0).finish();
    }

    #[test]
    fn aborted_checker_stands_down_and_reports_residual() {
        let control = Arc::new(ClusterBarrier::new(2, None));
        let c = ProtocolChecker::with_control(2, Vec::new(), control.clone());
        c.packet_sent(0, 1, tag());
        control.abort();
        // Would panic if the check were still armed.
        c.check_quiescent("teardown after abort", None);
        if ENABLED {
            assert_eq!(c.residual().in_flight_packets, 1);
        }
    }
}
