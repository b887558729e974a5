//! The measured window shared by every workload: counter snapshots at its
//! edges, the executor phases inside it, and the report of one repetition.

use crate::kernels;
use crate::probe::{now_ns, Driver, Gen, Probe, Shared, Span, Tracer, CALLS};
use itc_core::proto::ServerId;
use itc_core::system::parallel::RunMode;
use itc_core::system::{ItcSystem, SystemError};
use itc_sim::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;

/// Server call kinds reported per op.
const SERVER_CALLS: [&str; 8] = [
    "fetch",
    "store",
    "validate",
    "getstatus",
    "remove",
    "makedir",
    "listdir",
    "getcustodian",
];

/// Modelled counters at one instant. Window figures are differences of
/// two snapshots, never totals since the system was built.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub at: SimTime,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub validations: u64,
    pub bytes_fetched: u64,
    pub bytes_stored: u64,
    pub calls: BTreeMap<String, u64>,
    pub attempts: u64,
    pub timeouts: u64,
    pub scheduled: u64,
    pub executed: u64,
    pub cancelled: u64,
    pub high_water: u64,
    pub journal_records: u64,
    pub journal_bytes: u64,
    pub scrub_passes: u64,
    pub scrub_bytes: u64,
    pub scrub_mismatches: u64,
}

impl Snap {
    pub fn take(sys: &ItcSystem) -> Snap {
        let m = sys.metrics();
        let rpc = sys.call_stats();
        let mut s = Snap {
            at: mark(sys),
            hits: m.cache.hits,
            misses: m.cache.misses,
            evictions: m.cache.evictions,
            invalidations: m.cache.invalidations,
            validations: m.venus.validations,
            bytes_fetched: m.venus.bytes_fetched,
            bytes_stored: m.venus.bytes_stored,
            calls: m.call_mix.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            attempts: rpc.attempts,
            timeouts: rpc.timeouts,
            scheduled: m.events.scheduled,
            executed: m.events.executed,
            cancelled: m.events.cancelled,
            high_water: m.events.high_water as u64,
            ..Snap::default()
        };
        for id in servers(sys) {
            let j = sys.server_journal_stats(id);
            s.journal_records += j.records;
            s.journal_bytes += j.total_len;
            let sc = sys.server_scrub_stats(id);
            s.scrub_passes += sc.passes;
            s.scrub_bytes += sc.bytes_scanned;
            s.scrub_mismatches += sc.mismatches_detected;
        }
        s
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.values().sum()
    }

    fn calls_of(&self, kind: &str) -> u64 {
        self.calls.get(kind).copied().unwrap_or(0)
    }
}

pub fn servers(sys: &ItcSystem) -> impl Iterator<Item = ServerId> {
    (0..sys.server_count() as u32).map(ServerId)
}

/// The latest workstation clock or system clock: a mark no workstation
/// has passed.
pub fn mark(sys: &ItcSystem) -> SimTime {
    (0..sys.workstation_count())
        .map(|ws| sys.ws_time(ws))
        .fold(sys.now(), SimTime::max)
}

/// Sets the workload up with `f`: once with `tracer`, kept, then again
/// untraced and discarded until a second of set-up has been timed (at
/// most 50 times). Returns the kept set-up and the median set-up seconds.
pub fn set_up<T>(
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> Result<T, SystemError>,
) -> Result<(T, f64), SystemError> {
    let t = Instant::now();
    tracer.open("setup");
    let kept = f(tracer)?;
    tracer.close();
    let mut times = vec![t.elapsed().as_secs_f64()];
    while times.iter().sum::<f64>() < 1.0 && times.len() < 50 {
        let t = Instant::now();
        drop(f(&mut Tracer::new(false))?);
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    Ok((kept, times[times.len() / 2]))
}

/// Everything one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub fingerprint: String,
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failed_by_call: BTreeMap<&'static str, u64>,
    pub host_ns: Vec<u64>,
    pub vop_us: Vec<u64>,
    pub alloc_bytes: u64,
    pub errors: Vec<String>,
    pub layers: Vec<(String, f64, &'static str)>,
    pub spans: Vec<Span>,
}

/// The measured window of one repetition, from the first op after the
/// mark to the last op's completion.
pub struct Window {
    pub mode: RunMode,
    pub tracer: Tracer,
    pub before: Snap,
    alloc0: u64,
    /// Host nanoseconds inside `run_drivers` during the window.
    pub exec_ns: u64,
    /// Host nanoseconds of the whole window, executor runs and the
    /// workload's own in-window steps (such as a crash and restart).
    pub wall_ns: u64,
    closed: Option<(Snap, u64)>,
    /// Host ns, records replayed and modelled time of the post-window
    /// salvage.
    salvaged: Option<(u64, u64, SimTime)>,
}

impl Window {
    /// Opens the window: snapshots the counters and, in the traced run,
    /// turns on the program's virtual-time attribution.
    pub fn open(sys: &mut ItcSystem, tracer: Tracer, mode: RunMode) -> Window {
        let before = Snap::take(sys);
        if tracer.on {
            sys.enable_tracing();
        }
        Window {
            mode,
            tracer,
            before,
            alloc0: crate::alloc::allocated_bytes(),
            exec_ns: 0,
            wall_ns: 0,
            closed: None,
            salvaged: None,
        }
    }

    /// Closes the window: later calls (correctness sweeps) are not in it.
    pub fn close(&mut self, sys: &ItcSystem) {
        let alloc = crate::alloc::allocated_bytes() - self.alloc0;
        self.closed = Some((Snap::take(sys), alloc));
    }

    /// After the window: crashes and restarts every server, salvaging the
    /// workload's own journals, and checks every new salvage report.
    pub fn salvage(&mut self, sys: &mut ItcSystem, errors: &mut Vec<String>) {
        self.salvaged = Some(salvage_all(sys, &mut self.tracer, errors));
    }

    /// Runs every station's ops due before `end`.
    pub fn run<G: Gen>(
        &mut self,
        sys: &mut ItcSystem,
        stations: &[Shared<G>],
        end: SimTime,
    ) -> Result<(), SystemError> {
        let drivers = stations.iter().map(|s| Driver::boxed(s, end)).collect();
        self.tracer.open("run_drivers");
        let t = now_ns();
        let out = sys.run_drivers(drivers, self.mode);
        let ns = now_ns() - t;
        self.tracer.close();
        self.exec_ns += ns;
        self.wall_ns += ns;
        out.map(|_| ())
    }

    /// Times an in-window step of the workload itself.
    pub fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.open(name);
        let t = now_ns();
        let out = f();
        self.wall_ns += now_ns() - t;
        self.tracer.close();
        out
    }

    fn threads(&self) -> usize {
        match self.mode {
            RunMode::Sequential => 1,
            RunMode::Parallel(n) => n,
        }
    }
}

/// What a workload hands over once its window has closed.
pub struct Closed<'a> {
    pub sys: &'a mut ItcSystem,
    pub window: Window,
    pub probes: Vec<Probe>,
    pub setup_s: f64,
    pub setup_virtual: SimTime,
    /// Correctness failures the workload found after the window.
    pub errors: Vec<String>,
    pub kernel_paths: Vec<String>,
    pub seed: u64,
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p99)` of `v` by nearest rank.
pub fn p50_p99(v: &mut [u64]) -> (u64, u64) {
    v.sort_unstable();
    (pct(v, 0.50), pct(v, 0.99))
}

/// Closes the window and builds the repetition's report. In the traced
/// run this also derives every per-layer metric.
pub fn finish(c: Closed<'_>) -> Rep {
    let Closed {
        sys,
        mut window,
        probes,
        setup_s,
        setup_virtual,
        mut errors,
        kernel_paths,
        seed,
    } = c;
    let (after, alloc_bytes) = window.closed.take().expect("window closed");
    let before = &window.before;

    let mut rep = Rep {
        setup_s,
        window_s: window.wall_ns as f64 / 1e9,
        alloc_bytes,
        ..Rep::default()
    };
    let mut calls = [0u64; CALLS.len()];
    let mut stored = 0u64;
    for p in &probes {
        rep.attempted += p.attempted;
        rep.failed += p.failed;
        rep.host_ns.extend_from_slice(&p.host_ns);
        rep.vop_us.extend_from_slice(&p.vop_us);
        for (i, n) in p.call_failures.iter().enumerate() {
            if *n > 0 {
                *rep.failed_by_call.entry(CALLS[i]).or_default() += n;
            }
        }
        for (i, n) in p.calls.iter().enumerate() {
            calls[i] += n;
        }
        stored += p.stored_bytes;
        errors.extend(p.errors.iter().cloned());
    }
    rep.fingerprint = format!(
        "clock_us={} calls={} events={} ops={}",
        after.at.as_micros(),
        after.total_calls(),
        after.executed,
        rep.attempted
    );
    if after.scrub_mismatches > 0 {
        errors.push(format!(
            "scrub found {} digest mismatches",
            after.scrub_mismatches
        ));
    }

    if window.tracer.on {
        let ops = rep.attempted.max(1) as f64;
        let per_op = |n: u64| n as f64 / ops;
        let d = |f: fn(&Snap) -> u64| f(&after).saturating_sub(f(before));
        let mut l: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: &str, v: f64, unit: &'static str| l.push((name.to_string(), v, unit));

        // Executor: share of thread time spent inside op steps.
        let spans: Vec<Span> = probes
            .iter()
            .flat_map(|p| p.spans.iter().copied())
            .collect();
        let step_ns: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::ns).sum();
        let call_ns: u64 = spans.iter().filter(|s| s.parent != 0).map(Span::ns).sum();
        let capacity = window.threads() as f64 * window.exec_ns as f64;
        put("executor.busy_frac", step_ns as f64 / capacity, "frac");
        put(
            "executor.outside_op_s",
            (capacity - step_ns as f64) / 1e9,
            "s",
        );
        put(
            "workload.self_us_per_op",
            (step_ns - call_ns) as f64 / 1e3 / ops,
            "us",
        );

        // Venus, through the workstation calls.
        for (i, name) in CALLS.iter().enumerate() {
            put(&format!("venus.{name}.n"), calls[i] as f64, "count");
        }
        for name in ["fetch", "store"] {
            let mut v: Vec<u64> = spans
                .iter()
                .filter(|s| s.parent != 0 && s.name == name)
                .map(Span::ns)
                .collect();
            let (p50, p99) = p50_p99(&mut v);
            put(&format!("venus.{name}.host_us.p50"), p50 as f64 / 1e3, "us");
            put(&format!("venus.{name}.host_us.p99"), p99 as f64 / 1e3, "us");
        }
        let opens = d(|s| s.hits) + d(|s| s.misses);
        put(
            "venus.hit_ratio",
            d(|s| s.hits) as f64 / opens.max(1) as f64,
            "frac",
        );
        put("venus.evictions", d(|s| s.evictions) as f64, "count");
        put(
            "venus.invalidations",
            d(|s| s.invalidations) as f64,
            "count",
        );
        put(
            "venus.validations_per_op",
            per_op(d(|s| s.validations)),
            "1/op",
        );
        put(
            "venus.kib_fetched_per_op",
            per_op(d(|s| s.bytes_fetched)) / 1024.0,
            "KiB/op",
        );
        put(
            "venus.kib_stored_per_op",
            per_op(d(|s| s.bytes_stored)) / 1024.0,
            "KiB/op",
        );

        // RPC and servers. Attribution was switched on at the mark, so
        // its totals cover the window only.
        let window_calls = after.total_calls() - before.total_calls();
        let per_call = |t: SimTime| t.as_millis_f64() / window_calls.max(1) as f64;
        let attribution = sys.attribution();
        let (mut net, mut queue, mut service) = (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
        for t in attribution.per_server().values() {
            net += t.network;
            queue += t.queueing;
            service += t.service;
        }
        put("rpc.calls_per_op", per_op(window_calls), "1/op");
        put(
            "rpc.attempts_per_call",
            d(|s| s.attempts) as f64 / window_calls.max(1) as f64,
            "ratio",
        );
        put("rpc.timeouts", d(|s| s.timeouts) as f64, "count");
        put("rpc.net_ms_per_call", per_call(net), "ms");
        let (cpu, disk) = window_utilization(sys, before.at, after.at);
        put("server.cpu_util.max", cpu, "frac");
        put("server.disk_util.max", disk, "frac");
        put("server.queue_ms_per_call", per_call(queue), "ms");
        put("server.service_ms_per_call", per_call(service), "ms");
        for kind in SERVER_CALLS {
            let n = after.calls_of(kind) - before.calls_of(kind);
            put(&format!("server.calls.{kind}"), per_op(n), "1/op");
        }

        // The calendar.
        put("sim.events_per_op", per_op(d(|s| s.executed)), "1/op");
        put(
            "sim.cancelled_frac",
            d(|s| s.cancelled) as f64 / d(|s| s.scheduled).max(1) as f64,
            "frac",
        );
        put("sim.calendar_high_water", after.high_water as f64, "count");

        // Journal, and the salvage of every server's own journal after the
        // window.
        put(
            "disk.journal_records",
            d(|s| s.journal_records) as f64,
            "count",
        );
        put("disk.journal_mb", d(|s| s.journal_bytes) as f64 / 1e6, "MB");
        let (salvage_ns, replayed, salvage_virtual) =
            window.salvaged.expect("salvaged after the window");
        put("disk.salvage_host_ms", salvage_ns as f64 / 1e6, "ms");
        put("disk.salvage_replayed", replayed as f64, "count");
        put("disk.salvage_virtual_s", salvage_virtual.as_secs_f64(), "s");

        put("scrub.passes", d(|s| s.scrub_passes) as f64, "count");
        put(
            "scrub.mib_scanned",
            d(|s| s.scrub_bytes) as f64 / (1 << 20) as f64,
            "MiB",
        );
        put(
            "scrub.mismatches",
            d(|s| s.scrub_mismatches) as f64,
            "count",
        );

        let t = &window.tracer;
        put("setup.build_ms", t.total_ns("build") as f64 / 1e6, "ms");
        put("setup.users_ms", t.total_ns("users") as f64 / 1e6, "ms");
        put("setup.data_ms", t.total_ns("data") as f64 / 1e6, "ms");
        put("setup.virtual_s", setup_virtual.as_secs_f64(), "s");

        // The observation plane: one metrics snapshot and series export.
        let t = now_ns();
        std::hint::black_box(sys.metrics());
        std::hint::black_box(sys.render_series_export());
        put("obs.snapshot_ms", (now_ns() - t) as f64 / 1e6, "ms");

        let n_stores = (calls[1] + calls[8]).max(1);
        let inputs = kernels::Inputs {
            file_bytes: (stored / n_stores) as usize,
            paths: kernel_paths,
            seed,
        };
        for (name, v, unit) in kernels::run(&inputs, &mut window.tracer) {
            put(&name, v, unit);
        }
        rep.layers = l;
        rep.spans = window.tracer.spans;
        rep.spans.extend(spans);
    }
    rep.errors = errors;
    rep
}

/// Highest window-average CPU and disk utilization over the servers,
/// from the per-minute series, counting the buckets the window overlaps.
fn window_utilization(sys: &ItcSystem, from: SimTime, to: SimTime) -> (f64, f64) {
    let width = SimTime::from_mins(1);
    let mut best = (0.0f64, 0.0f64);
    for id in servers(sys) {
        let mean = |tag: u8| {
            let buckets: Vec<f64> = sys
                .server_utilization_series(id, tag, to)
                .into_iter()
                .filter(|(start, _)| *start + width > from && *start < to)
                .map(|(_, u)| u)
                .collect();
            buckets.iter().sum::<f64>() / buckets.len().max(1) as f64
        };
        best.0 = best.0.max(mean(0));
        best.1 = best.1.max(mean(1));
    }
    best
}

/// Crashes and restarts every server (the restart salvages synchronously)
/// and checks each new salvage report. Returns host nanoseconds, records
/// replayed and the modelled salvage time.
fn salvage_all(
    sys: &mut ItcSystem,
    tracer: &mut Tracer,
    errors: &mut Vec<String>,
) -> (u64, u64, SimTime) {
    let seen: Vec<usize> = servers(sys)
        .map(|id| sys.server_salvage_reports(id).len())
        .collect();
    tracer.open("salvage");
    let t = now_ns();
    for id in servers(sys) {
        tracer.time("crash", || sys.crash_server(id));
        tracer.time("restart", || sys.restart_server(id));
    }
    let ns = now_ns() - t;
    tracer.close();
    let costs = sys.config().costs.clone();
    let (mut replayed, mut virt) = (0u64, SimTime::ZERO);
    for (id, n) in servers(sys).zip(seen) {
        for r in &sys.server_salvage_reports(id)[n..] {
            replayed += r.replayed;
            virt += costs.salvage_time(r.scanned_bytes, r.replayed);
            if !r.is_clean() {
                errors.push(format!("server {} salvage not clean: {r:?}", id.0));
            }
        }
    }
    (ns, replayed, virt)
}

/// The end-to-end figures of a repetition as one JSON line.
pub fn json(rep: &mut Rep) -> String {
    let (h50, h99) = p50_p99(&mut rep.host_ns);
    let (v50, v99) = p50_p99(&mut rep.vop_us);
    let ops = rep.host_ns.len().max(1) as f64;
    let failed_by_call: Vec<String> = rep
        .failed_by_call
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let errors: Vec<String> = rep
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let layers: Vec<String> = rep
        .layers
        .iter()
        .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!(
        concat!(
            "{{\"fingerprint\":\"{}\",\"errors\":[{}],\"setup_s\":{},\"window_s\":{},",
            "\"attempted\":{},\"failed\":{},\"failed_by_call\":{{{}}},",
            "\"op_host_us_p50\":{},\"op_host_us_p99\":{},\"vop_ms_p50\":{},\"vop_ms_p99\":{},",
            "\"alloc_kb_per_op\":{},\"layers\":{{{}}}}}"
        ),
        rep.fingerprint,
        errors.join(","),
        rep.setup_s,
        rep.window_s,
        rep.attempted,
        rep.failed,
        failed_by_call.join(","),
        h50 as f64 / 1e3,
        h99 as f64 / 1e3,
        v50 as f64 / 1e3,
        v99 as f64 / 1e3,
        rep.alloc_bytes as f64 / 1024.0 / ops,
        layers.join(",")
    )
}
