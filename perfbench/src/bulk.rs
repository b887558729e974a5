//! `bulk_share`: whole-file write-sharing of 256 KiB files.
//!
//! 4 clusters × 10 workstations share a pool of 100 files per cluster;
//! each workstation owns ten of its cluster's files. Every round a
//! workstation overwrites one of its own files, breaking the callbacks
//! other caches hold on it, then fetches a seeded-random file of its
//! cluster's pool. With an 8 MiB Venus cache and a ~12 MiB touched set,
//! caches evict: this is the workload whose working set exceeds the cache
//! and whose time goes to the per-byte data path. The scrubber runs on a
//! 30 s interval, as it would on a production server.

use crate::probe::{station, Calls, Gen, Shared, Tracer};
use crate::run::{self, Closed, Rep, Window};
use itc_core::config::CachePolicy;
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::ServerId;
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};
use itc_workload::WsCalls;
use std::sync::Arc;

const CLUSTERS: usize = 4;
const PER_CLUSTER: usize = 10;
const POOL: usize = 100;
const FILE_BYTES: usize = 256 * 1024;
const ROUNDS: usize = 40;
const SCRUB_EVERY: SimTime = SimTime::from_secs(30);

fn pool_path(cluster: usize, file: usize) -> String {
    format!("/vice/pool{cluster}/f{file:03}")
}

/// The workstation that owns (and overwrites) a pool file.
fn owner(cluster: usize, file: usize) -> usize {
    cluster * PER_CLUSTER + file % PER_CLUSTER
}

/// A stored value: who wrote which file in which round (0 = installed),
/// repeated over the whole file.
fn tag(magic: u16, owner: usize, file: usize, round: usize) -> u64 {
    (owner as u64) << 48 | (file as u64) << 32 | (round as u64) << 16 | magic as u64
}

fn contents(t: u64) -> Vec<u8> {
    t.to_le_bytes().repeat(FILE_BYTES / 8)
}

/// Every workstation's overwrite plan: the own file it stores each round.
type Plans = Arc<Vec<Vec<usize>>>;

/// The value a file must hold after `rounds` rounds.
fn last_tag(plans: &Plans, magic: u16, cluster: usize, file: usize, rounds: usize) -> u64 {
    let w = owner(cluster, file);
    let round = (0..rounds)
        .rev()
        .find(|r| plans[w][*r] == file)
        .map_or(0, |r| r + 1);
    tag(magic, w, file, round)
}

struct Sharer {
    ws: WsId,
    cluster: usize,
    magic: u16,
    plans: Plans,
    rng: SimRng,
    /// Ops done: even ones store, odd ones fetch.
    done: usize,
    next: SimTime,
}

impl Sharer {
    /// Whether `data`, read from pool file `file`, is one of the values
    /// its owner stored (or the installed one).
    fn check(&self, file: usize, data: &[u8]) -> Result<(), String> {
        if data.len() != FILE_BYTES {
            return Err(format!("fetched {} bytes", data.len()));
        }
        let first = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
        if !data.chunks_exact(8).all(|w| w == first.to_le_bytes()) {
            return Err("torn contents".to_string());
        }
        let w = owner(self.cluster, file);
        let round = (first >> 16 & 0xffff) as usize;
        let stored = round == 0 || (round <= ROUNDS && self.plans[w][round - 1] == file);
        if first != tag(self.magic, w, file, round) || !stored {
            return Err(format!("value {first:#x} was never stored"));
        }
        Ok(())
    }
}

impl Gen for Sharer {
    fn ws(&self) -> WsId {
        self.ws
    }

    fn next_at(&self) -> Option<SimTime> {
        (self.done < 2 * ROUNDS).then_some(self.next)
    }

    fn mask(&self) -> ClusterMask {
        ClusterMask::of(self.cluster)
    }

    fn op(&mut self, c: &mut Calls<'_, '_>) -> Result<(), SystemError> {
        let ws = self.ws;
        c.advance_ws(ws, self.next);
        let round = self.done / 2;
        let out = if self.done.is_multiple_of(2) {
            let file = self.plans[ws][round];
            let t = tag(self.magic, ws, file, round + 1);
            c.store(ws, &pool_path(self.cluster, file), contents(t))
        } else {
            let file = self.rng.range(0, POOL as u64) as usize;
            c.fetch(ws, &pool_path(self.cluster, file)).map(|data| {
                if let Err(e) = self.check(file, &data) {
                    c.wrong(format!(
                        "ws {ws} fetch of {}: {e}",
                        pool_path(self.cluster, file)
                    ));
                }
            })
        };
        self.done += 1;
        self.next = c.ws_time(ws);
        out
    }
}

/// The seed's inputs: the tag salt and every workstation's overwrite plan.
fn inputs(rng: &mut SimRng) -> (u16, Plans) {
    let magic = rng.range(0, 1 << 16) as u16;
    let plans = (0..CLUSTERS * PER_CLUSTER)
        .map(|ws| {
            (0..ROUNDS)
                .map(|_| {
                    ws % PER_CLUSTER
                        + PER_CLUSTER * rng.range(0, (POOL / PER_CLUSTER) as u64) as usize
                })
                .collect()
        })
        .collect();
    (magic, Arc::new(plans))
}

/// Builds the system, installs the pools, logs every user in and turns
/// the scrubber on.
fn setup(seed: u64, magic: u16, tracer: &mut Tracer) -> Result<ItcSystem, SystemError> {
    let cfg = SystemConfig {
        seed,
        cache: CachePolicy::SpaceLru(8 << 20),
        ..SystemConfig::revised(CLUSTERS as u32, PER_CLUSTER as u32)
    };
    let mut sys = tracer.time("build", || ItcSystem::build(cfg));
    tracer.time("data", || -> Result<(), SystemError> {
        let mut acl = AccessList::new();
        acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
        for c in 0..CLUSTERS {
            sys.create_volume(
                &format!("pool.c{c}"),
                &format!("/vice/pool{c}"),
                ServerId(c as u32),
                acl.clone(),
            )?;
            for f in 0..POOL {
                sys.admin_install_file(&pool_path(c, f), contents(tag(magic, owner(c, f), f, 0)))?;
            }
        }
        Ok(())
    })?;
    tracer.time("users", || -> Result<(), SystemError> {
        for ws in 0..sys.workstation_count() {
            let user = format!("sharer{ws:02}");
            sys.add_user(&user, "pw")?;
            sys.login(ws, &user, "pw")?;
        }
        Ok(())
    })?;
    sys.enable_scrub(SCRUB_EVERY);
    Ok(sys)
}

pub fn run(seed: u64, traced: bool) -> Result<Rep, SystemError> {
    let mut rng = SimRng::seeded(seed);
    let (magic, plans) = inputs(&mut rng);
    let mut tracer = Tracer::new(traced);
    let (mut sys, setup_s) = run::set_up(&mut tracer, |t| setup(seed, magic, t))?;

    let mark = run::mark(&sys);
    let stations: Vec<Shared<Sharer>> = (0..CLUSTERS * PER_CLUSTER)
        .map(|ws| {
            let gen = Sharer {
                ws,
                cluster: ws / PER_CLUSTER,
                magic,
                plans: Arc::clone(&plans),
                rng: rng.fork(),
                done: 0,
                next: mark,
            };
            station(gen, traced)
        })
        .collect();

    let mut window = Window::open(&mut sys, tracer, RunMode::Sequential);
    window.run(&mut sys, &stations, SimTime::from_micros(u64::MAX))?;
    window.close(&sys);

    // After a crash and restart of every server, a sweep from the next
    // cluster over: every file holds exactly its owner's last store.
    let mut errors = Vec::new();
    window.salvage(&mut sys, &mut errors);
    for c in 0..CLUSTERS {
        let reader = ((c + 1) % CLUSTERS) * PER_CLUSTER;
        for f in 0..POOL {
            let want = last_tag(&plans, magic, c, f, ROUNDS);
            let data = sys.fetch(reader, &pool_path(c, f))?;
            if data != contents(want) {
                errors.push(format!("{} does not hold its last store", pool_path(c, f)));
            }
        }
    }

    let probes = crate::probe::take_probes(&stations);
    let kernel_paths = crate::probe::paths_of(&probes);
    Ok(run::finish(Closed {
        sys: &mut sys,
        window,
        probes,
        setup_s,
        setup_virtual: mark,
        errors,
        kernel_paths,
        seed,
    }))
}
