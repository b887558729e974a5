//! What the benchmark records about a run, from its own side of every
//! call into the program: per-op host time and simulated latency, per-call
//! counts and failures, and (in the traced run only) spans.
//!
//! A span has a name, a start, an end and a parent; spans of one op (or of
//! one main-thread group such as set-up) share an `op` id. A layer's self
//! time is its span minus the spans of its children.

use itc_core::proto::{EntryKind, VStatus};
use itc_core::system::parallel::{ClusterMask, WsDriver, WsOps};
use itc_core::system::{SystemError, WsId};
use itc_sim::SimTime;
use itc_workload::WsCalls;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id shared by every span of one op or main-thread group.
    pub op: u64,
    /// Id of this span within its op (1 is the root).
    pub id: u32,
    /// Id of the parent span within the same op; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn jsonl(&self) -> String {
        format!(
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.op, self.id, self.parent, self.name, self.start, self.end
        )
    }
}

/// Spans recorded on the main thread: set-up calls, executor runs,
/// crash/restart and kernels. A group is one root span and its children.
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    group: u64,
    next_id: u32,
    root: Option<(u32, &'static str, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            group: 0,
            next_id: 1,
            root: None,
        }
    }

    /// Opens a group; spans timed until [`Tracer::close`] are its children.
    pub fn open(&mut self, name: &'static str) {
        assert!(self.root.is_none(), "groups do not nest");
        self.group += 1;
        self.next_id = 2;
        self.root = Some((1, name, now_ns()));
    }

    pub fn close(&mut self) {
        let (id, name, start) = self.root.take().expect("an open group");
        if self.on {
            self.spans.push(Span {
                op: self.group,
                id,
                parent: 0,
                name,
                start,
                end: now_ns(),
            });
        }
    }

    /// Runs `f` as a child span of the open group.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now_ns();
        let out = f();
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            op: self.group,
            id,
            parent: 1,
            name,
            start,
            end: now_ns(),
        });
        out
    }

    /// Total host nanoseconds of child spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent != 0 && s.name == name)
            .map(Span::ns)
            .sum()
    }
}

/// The workstation calls a workload makes, in the order metrics list them.
pub const CALLS: [&str; 10] = [
    "fetch",
    "store",
    "stat",
    "readdir",
    "unlink",
    "mkdir",
    "open_write",
    "read",
    "write",
    "close",
];

/// One workstation's record of the ops it ran in the measured window.
#[derive(Debug, Default)]
pub struct Probe {
    pub traced: bool,
    ws: WsId,
    next_op: u64,
    /// Host nanoseconds per op.
    pub host_ns: Vec<u64>,
    /// Simulated microseconds per op, from issue to completion.
    pub vop_us: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub calls: [u64; CALLS.len()],
    pub call_failures: [u64; CALLS.len()],
    /// Bytes handed to `store`/`write` calls, for the kernel inputs.
    pub stored_bytes: u64,
    /// Wrong results the workload detected (correctness failures).
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// A few paths the ops used (traced run only), for the kernel inputs.
    pub paths: Vec<String>,
}

impl Probe {
    pub fn new(ws: WsId, traced: bool) -> Probe {
        Probe {
            traced,
            ws,
            ..Probe::default()
        }
    }

    /// Forgets everything recorded so far: the next op opens the window.
    pub fn reset(&mut self) {
        *self = Probe {
            next_op: self.next_op,
            ..Probe::new(self.ws, self.traced)
        };
    }

    fn op_id(&self) -> u64 {
        ((self.ws as u64 + 1) << 32) | self.next_op
    }
}

/// The calls one op makes, counted and (when traced) spanned.
pub struct Calls<'c, 'a> {
    ops: &'c mut WsOps<'a>,
    probe: &'c mut Probe,
    next_span: u32,
}

impl<'a> Calls<'_, 'a> {
    fn call<T>(
        &mut self,
        which: usize,
        f: impl FnOnce(&mut WsOps<'a>) -> Result<T, SystemError>,
    ) -> Result<T, SystemError> {
        let start = if self.probe.traced { now_ns() } else { 0 };
        let out = f(self.ops);
        self.probe.calls[which] += 1;
        if out.is_err() {
            self.probe.call_failures[which] += 1;
        }
        if self.probe.traced {
            self.next_span += 1;
            let span = Span {
                op: self.probe.op_id(),
                id: self.next_span,
                parent: 1,
                name: CALLS[which],
                start,
                end: now_ns(),
            };
            self.probe.spans.push(span);
        }
        out
    }

    fn note_path(&mut self, path: &str) {
        if self.probe.traced && self.probe.paths.len() < 8 {
            self.probe.paths.push(path.to_string());
        }
    }

    pub fn mkdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.call(5, |o| o.mkdir(ws, path))
    }

    /// Records a wrong result; the run then fails its correctness check.
    pub fn wrong(&mut self, what: String) {
        if self.probe.errors.len() < 16 {
            self.probe.errors.push(what);
        }
    }
}

impl WsCalls for Calls<'_, '_> {
    fn advance_ws(&mut self, ws: WsId, to: SimTime) {
        self.ops.advance_ws(ws, to);
    }
    fn ws_time(&mut self, ws: WsId) -> SimTime {
        self.ops.ws_time(ws)
    }
    fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError> {
        self.note_path(path);
        self.call(0, |o| o.fetch(ws, path))
    }
    fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError> {
        self.note_path(path);
        self.probe.stored_bytes += data.len() as u64;
        self.call(1, |o| o.store(ws, path, data))
    }
    fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError> {
        self.call(2, |o| o.stat(ws, path))
    }
    fn readdir(&mut self, ws: WsId, path: &str) -> Result<Vec<(String, EntryKind)>, SystemError> {
        self.call(3, |o| o.readdir(ws, path))
    }
    fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.call(4, |o| o.unlink(ws, path))
    }
    fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        self.call(6, |o| o.open_write(ws, path))
    }
    fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError> {
        self.call(7, |o| o.read(ws, handle))
    }
    fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        self.probe.stored_bytes += data.len() as u64;
        self.call(8, |o| o.write(ws, handle, data))
    }
    fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError> {
        self.call(9, |o| o.close(ws, handle))
    }
}

/// A workstation's op generator: what it does next, and when.
pub trait Gen: Send + 'static {
    fn ws(&self) -> WsId;
    /// Due time of the next op; `None` when the generator is done.
    fn next_at(&self) -> Option<SimTime>;
    /// Clusters any op of this generator may touch.
    fn mask(&self) -> ClusterMask;
    /// Runs the next op. `Err(SystemError::Venus(_))` is a failed op;
    /// any other error is structural and stops the run.
    fn op(&mut self, calls: &mut Calls<'_, '_>) -> Result<(), SystemError>;
}

/// A generator and its probe, shared between the phases of a run.
pub struct Station<G> {
    pub gen: G,
    pub probe: Probe,
}

pub type Shared<G> = Arc<Mutex<Station<G>>>;

/// Takes every station's probe, leaving empty ones behind.
pub fn take_probes<G>(stations: &[Shared<G>]) -> Vec<Probe> {
    stations
        .iter()
        .map(|s| std::mem::take(&mut s.lock().expect("station lock").probe))
        .collect()
}

/// Up to 256 distinct paths the probes saw, in order.
pub fn paths_of(probes: &[Probe]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for p in probes.iter().flat_map(|p| p.paths.iter()) {
        if out.len() < 256 && !out.contains(p) {
            out.push(p.clone());
        }
    }
    out
}

pub fn station<G: Gen>(gen: G, traced: bool) -> Shared<G> {
    let probe = Probe::new(gen.ws(), traced);
    Arc::new(Mutex::new(Station { gen, probe }))
}

/// Runs a station's ops due before `end` under the engine, timing each.
pub struct Driver<G> {
    st: Shared<G>,
    end: SimTime,
    next: Option<SimTime>,
    mask: ClusterMask,
}

impl<G: Gen> Driver<G> {
    pub fn boxed(st: &Shared<G>, end: SimTime) -> (WsId, Box<dyn WsDriver>) {
        let guard = st.lock().expect("station lock");
        let d = Driver {
            st: Arc::clone(st),
            end,
            next: guard.gen.next_at().filter(|t| *t < end),
            mask: guard.gen.mask(),
        };
        let ws = guard.gen.ws();
        drop(guard);
        (ws, Box::new(d))
    }
}

impl<G: Gen> WsDriver for Driver<G> {
    fn scope(&self) -> ClusterMask {
        self.mask
    }

    fn next_at(&self) -> Option<SimTime> {
        self.next
    }

    fn next_mask(&self) -> ClusterMask {
        self.mask
    }

    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError> {
        let mut guard = self.st.lock().expect("station lock");
        let Station { gen, probe } = &mut *guard;
        let ws = gen.ws();
        let due = self.next.expect("stepped while idle");
        let issue = due.max(ops.ws_time(ws));
        let start = now_ns();
        let mut calls = Calls {
            ops,
            probe,
            next_span: 1,
        };
        let out = gen.op(&mut calls);
        let end = now_ns();
        let done = calls.ops.ws_time(ws);
        probe.attempted += 1;
        probe.host_ns.push(end - start);
        probe.vop_us.push(done.saturating_sub(issue).as_micros());
        if probe.traced {
            let op = probe.op_id();
            probe.spans.push(Span {
                op,
                id: 1,
                parent: 0,
                name: "step",
                start,
                end,
            });
        }
        probe.next_op += 1;
        self.next = gen.next_at().filter(|t| *t < self.end);
        match out {
            Ok(()) => Ok(()),
            Err(SystemError::Venus(_)) => {
                probe.failed += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}
