//! Unit costs of single layers, timed after the window on inputs shaped
//! like the workload's own: its mean stored file size and its paths.

use crate::probe::Tracer;
use itc_core::config::CachePolicy;
use itc_core::disk::{Journal, JournalOp, VolumeMerkle};
use itc_core::proto::{
    decode_request, encode_request, payload::payload_digest, EntryKind, Payload, VStatus,
    ViceRequest,
};
use itc_core::venus::cache::EntryKind as CacheKind;
use itc_core::venus::Cache;
use itc_sim::{Scheduler, SimRng, SimTime};
use itc_unixfs::{FileSystem, Mode};
use std::hint::black_box;
use std::time::Instant;

/// What the kernels run on.
pub struct Inputs {
    /// Mean bytes per store in the window (at least 1 KiB).
    pub file_bytes: usize,
    /// Paths the workload used.
    pub paths: Vec<String>,
    pub seed: u64,
}

/// Median over five batches of the per-unit cost of `f`, where one call
/// of `f` does `units` units of work. Each batch repeats `f` until it has
/// run for at least 4 ms.
fn per_unit_ns(units: f64, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u64;
            while n == 0 || t.elapsed().as_micros() < 4_000 {
                f();
                n += 1;
            }
            t.elapsed().as_nanos() as f64 / (n as f64 * units)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

fn status(path: &str, size: u64, fid: u64) -> VStatus {
    VStatus {
        path: path.to_string(),
        fid,
        kind: EntryKind::File,
        size,
        version: 1,
        mtime: 0,
        mode: 0o644,
        owner: 0,
        read_only: false,
    }
}

/// Times every kernel; returns `(metric, value, unit)` rows.
pub fn run(inp: &Inputs, tracer: &mut Tracer) -> Vec<(String, f64, &'static str)> {
    let bytes = inp.file_bytes.max(1024);
    let mut rng = SimRng::seeded(inp.seed);
    let mut data = vec![0u8; bytes];
    rng.fill_bytes(&mut data);
    let payload = Payload::from_vec(data);
    let paths = &inp.paths;
    let mut rows = Vec::new();
    let mut row = |name: &str, value: f64, unit: &'static str| {
        rows.push((name.to_string(), value, unit));
    };
    tracer.open("kernels");

    let mib = bytes as f64 / (1 << 20) as f64;
    let ns = tracer.time("payload_digest", || {
        per_unit_ns(mib, || {
            black_box(payload_digest(black_box(payload.as_slice())));
        })
    });
    row("proto.digest_us_per_mib", ns / 1e3, "us/MiB");

    let req = ViceRequest::Store {
        path: paths[0].clone(),
        data: payload.clone(),
    };
    let ns = tracer.time("codec", || {
        per_unit_ns(1.0, || {
            let msg = encode_request(black_box(&req));
            black_box(decode_request(&msg.head, msg.payload).expect("round trip"));
        })
    });
    row("proto.codec_us_per_call", ns / 1e3, "us");

    let key = itc_cryptbox::derive_key("pw-bench", "salt");
    let head = encode_request(&ViceRequest::Fetch {
        path: paths[0].clone(),
    })
    .head;
    let mut iv = 0u64;
    let ns = tracer.time("seal_open", || {
        per_unit_ns(1.0, || {
            iv += 1;
            let sealed = itc_cryptbox::seal(key, iv, black_box(&head));
            black_box(itc_cryptbox::open(key, &sealed).expect("opens"));
        })
    });
    row("cryptbox.seal_open_us", ns / 1e3, "us");

    // A calendar holding 1,024 live events, as a busy cluster's does.
    let times: Vec<SimTime> = (0..1024)
        .map(|_| SimTime::from_micros(rng.range(0, 60_000_000)))
        .collect();
    let ns = tracer.time("scheduler", || {
        per_unit_ns(times.len() as f64, || {
            let mut s: Scheduler<u32> = Scheduler::seeded(inp.seed);
            for (i, t) in times.iter().enumerate() {
                s.schedule(*t, i as u32);
            }
            while let Some(f) = s.pop() {
                black_box(f);
            }
        })
    });
    row("sim.sched_ns_per_event", ns, "ns");

    let statuses: Vec<VStatus> = paths
        .iter()
        .enumerate()
        .map(|(i, p)| status(p, bytes as u64, i as u64))
        .collect();
    let mut cache = Cache::new(CachePolicy::SpaceLru(8 << 20));
    let mut next = 0usize;
    let ns = tracer.time("cache_insert", || {
        per_unit_ns(1.0, || {
            let i = next % paths.len();
            next += 1;
            black_box(cache.insert(
                &paths[i],
                payload.clone(),
                statuses[i].clone(),
                CacheKind::File,
            ));
        })
    });
    row("venus.cache_insert_ns", ns, "ns");

    let mut fs = FileSystem::new();
    for p in paths {
        let (dir, _) = itc_unixfs::dirname_basename(p).expect("absolute path");
        fs.mkdir_p(&dir, Mode::DIR_DEFAULT, 0, 0).expect("mkdir");
        fs.write(p, 0, 0, Vec::new()).expect("create");
    }
    let ns = tracer.time("resolve", || {
        per_unit_ns(paths.len() as f64, || {
            for p in paths {
                black_box(fs.resolve(black_box(p), true).expect("resolves"));
            }
        })
    });
    row("unixfs.resolve_ns", ns, "ns");

    let kib = bytes as f64 / 1024.0;
    let mut journal = Journal::new();
    let mut mtime = 0u64;
    let ns = tracer.time("journal_append", || {
        per_unit_ns(kib, || {
            mtime += 1;
            let seq = journal.begin(
                1,
                JournalOp::Store {
                    path: paths[0].clone(),
                    uid: 0,
                    mtime,
                    data: payload.clone(),
                },
            );
            journal.commit(seq, true);
            journal.sync();
        })
    });
    row("disk.journal_append_us_per_kib", ns / 1e3, "us/KiB");

    let mut merkle = VolumeMerkle::new();
    let mut next = 0u64;
    let ns = tracer.time("merkle_set", || {
        per_unit_ns(1.0, || {
            next += 1;
            let p = &paths[next as usize % paths.len()];
            merkle.set(black_box(p), next);
        })
    });
    row("integrity.merkle_set_ns", ns, "ns");

    tracer.close();
    rows
}
