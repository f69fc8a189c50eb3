//! The layer pass's span recorder. Spans are taken here, in the benchmark's
//! own files, around calls into each layer's public functions; they stay in
//! memory and are written out once, when the pass ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Pseudo machine id of spans taken on the benchmark's own thread.
pub const HARNESS: i64 = -1;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one request (one sort, the replay, the probes) share this.
    pub req: u32,
    pub name: &'static str,
    pub machine: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span timed on a machine thread; it gets its id when absorbed.
#[derive(Debug, Clone, Copy)]
pub struct MachineSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: u32,
    next_req: u32,
    pub all: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: 1,
            next_req: 1,
            all: Vec::new(),
        }
    }

    /// The shared clock; machine threads copy it to time their own spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn new_request(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req - 1
    }

    /// Times `f` on the calling thread as a span. `f` receives the new span's
    /// id, to name as its children's parent.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        machine: i64,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = ns_since(self.epoch);
        let out = f(self, id);
        let end_ns = ns_since(self.epoch);
        self.all.push(Span {
            id,
            parent,
            req,
            name,
            machine,
            start_ns,
            end_ns,
        });
        out
    }

    /// Files a span that was timed elsewhere against this recorder's epoch.
    fn file(&mut self, name: &'static str, parent: u32, req: u32, machine: i64, ns: (u64, u64)) {
        let id = self.next_id;
        self.next_id += 1;
        self.all.push(Span {
            id,
            parent,
            req,
            name,
            machine,
            start_ns: ns.0,
            end_ns: ns.1,
        });
    }

    /// Adopts a clock the benchmark kept around one call on its own thread.
    pub fn adopt(&mut self, name: &'static str, req: u32, started: Instant, took: Duration) {
        let start_ns = ns_between(self.epoch, started);
        let took_ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.file(
            name,
            0,
            req,
            HARNESS,
            (start_ns, start_ns.saturating_add(took_ns)),
        );
    }

    /// Adopts spans that machine `machine` timed inside a cluster run.
    pub fn absorb(&mut self, parent: u32, req: u32, machine: usize, spans: &[MachineSpan]) {
        for s in spans {
            self.file(s.name, parent, req, machine as i64, (s.start_ns, s.end_ns));
        }
    }

    /// Durations of every span called `name`, in seconds.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.all
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.all {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"machine\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.machine, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

pub fn ns_since(epoch: Instant) -> u64 {
    ns_between(epoch, Instant::now())
}

fn ns_between(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Times `f` on a machine thread against the shared `epoch`.
pub fn timed<R>(
    epoch: Instant,
    name: &'static str,
    into: &mut Vec<MachineSpan>,
    f: impl FnOnce() -> R,
) -> R {
    let start_ns = ns_since(epoch);
    let out = f();
    into.push(MachineSpan {
        name,
        start_ns,
        end_ns: ns_since(epoch),
    });
    out
}
