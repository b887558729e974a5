//! `meta_churn`: small-file mutations with the durability machinery on.
//!
//! 4 clusters × 10 workstations, each churning its own home volume:
//! create, overwrite and read 1–16 KiB files, unlink, mkdir, stat and
//! readdir, back to back, with the scrubber on a 30 s interval. Every op is an RPC
//! that journals, updates Merkle leaves and mutates the namespace. Between
//! the two phases every server crashes and restarts, salvaging inside the
//! window. A shadow namespace per workstation keeps every op valid and
//! checks every answer.

use crate::probe::{station, Calls, Gen, Shared, Tracer};
use crate::run::{self, Closed, Rep, Window};
use itc_core::proto::EntryKind;
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};
use itc_workload::WsCalls;
use std::collections::{BTreeMap, BTreeSet};

const CLUSTERS: usize = 4;
const PER_CLUSTER: usize = 10;
const OPS_PER_PHASE: usize = 500;
const SCRUB_EVERY: SimTime = SimTime::from_secs(30);

/// Op mix: create, overwrite, unlink, mkdir, stat, readdir, read.
const MIX: [f64; 7] = [0.22, 0.18, 0.10, 0.05, 0.22, 0.13, 0.10];

fn home(ws: WsId) -> String {
    format!("/vice/usr/churn{ws:02}")
}

/// What one workstation's home must look like.
#[derive(Default)]
struct Shadow {
    dirs: Vec<String>,
    files: Vec<(String, u64)>,
    children: BTreeMap<String, BTreeSet<String>>,
}

impl Shadow {
    fn add(&mut self, dir: &str, name: String) -> String {
        let path = format!("{dir}/{name}");
        self.children
            .entry(dir.to_string())
            .or_default()
            .insert(name);
        path
    }
}

struct Churner {
    ws: WsId,
    cluster: usize,
    rng: SimRng,
    shadow: Shadow,
    names: u64,
    left: usize,
    next: SimTime,
}

impl Churner {
    fn size(&mut self) -> u64 {
        self.rng.range(1024, 16 * 1024 + 1)
    }

    fn fresh(&mut self, prefix: char) -> String {
        self.names += 1;
        format!("{prefix}{}", self.names)
    }
}

impl Gen for Churner {
    fn ws(&self) -> WsId {
        self.ws
    }

    fn next_at(&self) -> Option<SimTime> {
        (self.left > 0).then_some(self.next)
    }

    fn mask(&self) -> ClusterMask {
        ClusterMask::of(self.cluster)
    }

    fn op(&mut self, c: &mut Calls<'_, '_>) -> Result<(), SystemError> {
        let ws = self.ws;
        c.advance_ws(ws, self.next);
        let mut kind = self.rng.weighted_index(&MIX);
        if self.shadow.files.is_empty() && matches!(kind, 1 | 2 | 6) {
            kind = 0;
        }
        let out = match kind {
            0 => {
                let dir = self.rng.choose(&self.shadow.dirs).clone();
                let name = self.fresh('f');
                let size = self.size();
                let path = self.shadow.add(&dir, name);
                self.shadow.files.push((path.clone(), size));
                c.store(ws, &path, vec![b'c'; size as usize])
            }
            1 => {
                let i = self.rng.range(0, self.shadow.files.len() as u64) as usize;
                let size = self.size();
                self.shadow.files[i].1 = size;
                let path = self.shadow.files[i].0.clone();
                c.store(ws, &path, vec![b'o'; size as usize])
            }
            2 => {
                let i = self.rng.range(0, self.shadow.files.len() as u64) as usize;
                let (path, _) = self.shadow.files.swap_remove(i);
                let (dir, name) = path.rsplit_once('/').expect("absolute path");
                if let Some(set) = self.shadow.children.get_mut(dir) {
                    set.remove(name);
                }
                c.unlink(ws, &path)
            }
            3 => {
                let parent = self.rng.choose(&self.shadow.dirs).clone();
                let name = self.fresh('d');
                let path = self.shadow.add(&parent, name);
                self.shadow.dirs.push(path.clone());
                c.mkdir(ws, &path)
            }
            4 => {
                let n = (self.shadow.files.len() + self.shadow.dirs.len()) as u64;
                let i = self.rng.range(0, n) as usize;
                let (path, want) = match self.shadow.files.get(i) {
                    Some((p, size)) => (p.clone(), Some(*size)),
                    None => (self.shadow.dirs[i - self.shadow.files.len()].clone(), None),
                };
                c.stat(ws, &path).map(|st| {
                    let ok = match want {
                        Some(size) => st.kind == EntryKind::File && st.size == size,
                        None => st.kind == EntryKind::Dir,
                    };
                    if !ok {
                        c.wrong(format!(
                            "stat {path}: {:?} size {}, want {want:?}",
                            st.kind, st.size
                        ));
                    }
                })
            }
            5 => {
                let dir = self.rng.choose(&self.shadow.dirs).clone();
                c.readdir(ws, &dir).map(|entries| {
                    let got: BTreeSet<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
                    let want: BTreeSet<&str> = self
                        .shadow
                        .children
                        .get(&dir)
                        .map(|s| s.iter().map(String::as_str).collect())
                        .unwrap_or_default();
                    if got != want {
                        c.wrong(format!(
                            "readdir {dir}: {} entries, want {}",
                            got.len(),
                            want.len()
                        ));
                    }
                })
            }
            _ => {
                let i = self.rng.range(0, self.shadow.files.len() as u64) as usize;
                let (path, size) = self.shadow.files[i].clone();
                c.fetch(ws, &path).map(|data| {
                    if data.len() as u64 != size {
                        c.wrong(format!("read {path}: {} bytes, want {size}", data.len()));
                    }
                })
            }
        };
        self.left -= 1;
        self.next = c.ws_time(ws);
        out
    }
}

/// Builds the system, gives every user a home volume with one file in
/// it, and turns the scrubber on.
fn setup(seed: u64, tracer: &mut Tracer) -> Result<(ItcSystem, Vec<Shadow>), SystemError> {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::revised(CLUSTERS as u32, PER_CLUSTER as u32)
    };
    let mut sys = tracer.time("build", || ItcSystem::build(cfg));
    let n = sys.workstation_count();
    tracer.time("users", || -> Result<(), SystemError> {
        for ws in 0..n {
            let user = format!("churn{ws:02}");
            sys.add_user(&user, "pw")?;
            sys.create_user_volume(&user, (ws / PER_CLUSTER) as u32)?;
            sys.login(ws, &user, "pw")?;
        }
        Ok(())
    })?;
    let mut shadows: Vec<Shadow> = Vec::with_capacity(n);
    tracer.time("data", || -> Result<(), SystemError> {
        for ws in 0..n {
            let mut sh = Shadow::default();
            let h = home(ws);
            sh.dirs.push(h.clone());
            let profile = sh.add(&h, ".profile".to_string());
            sys.admin_install_file(&profile, vec![b'p'; 1024])?;
            sh.files.push((profile, 1024));
            shadows.push(sh);
        }
        sys.enable_scrub(SCRUB_EVERY);
        Ok(())
    })?;
    Ok((sys, shadows))
}

pub fn run(seed: u64, traced: bool) -> Result<Rep, SystemError> {
    let mut tracer = Tracer::new(traced);
    let ((mut sys, shadows), setup_s) = run::set_up(&mut tracer, |t| setup(seed, t))?;
    let mut rng = SimRng::seeded(seed);

    let mark = run::mark(&sys);
    let stations: Vec<Shared<Churner>> = shadows
        .into_iter()
        .enumerate()
        .map(|(ws, shadow)| {
            let gen = Churner {
                ws,
                cluster: ws / PER_CLUSTER,
                rng: rng.fork(),
                shadow,
                names: 0,
                left: OPS_PER_PHASE,
                next: mark,
            };
            station(gen, traced)
        })
        .collect();

    let forever = SimTime::from_micros(u64::MAX);
    let mut window = Window::open(&mut sys, tracer, RunMode::Sequential);
    window.run(&mut sys, &stations, forever)?;
    window.step("crash_restart", || {
        for id in run::servers(&sys).collect::<Vec<_>>() {
            sys.crash_server(id);
            sys.restart_server(id);
        }
    });
    for s in &stations {
        s.lock().expect("station lock").gen.left = OPS_PER_PHASE;
    }
    window.run(&mut sys, &stations, forever)?;
    window.close(&sys);

    // Every salvage replays cleanly, and after the window's own crash and
    // restart plus one more, every path in the shadow namespace is there
    // with its size.
    let mut errors = Vec::new();
    window.salvage(&mut sys, &mut errors);
    for id in run::servers(&sys) {
        for r in sys.server_salvage_reports(id) {
            if !r.is_clean() {
                errors.push(format!("server {} salvage not clean: {r:?}", id.0));
            }
        }
    }
    for s in &stations {
        let st = s.lock().expect("station lock");
        let ws = st.gen.ws;
        for (path, size) in &st.gen.shadow.files {
            match sys.stat(ws, path) {
                Ok(v) if v.size == *size => {}
                Ok(v) => errors.push(format!(
                    "{path}: size {} after salvage, want {size}",
                    v.size
                )),
                Err(e) => errors.push(format!("{path}: {e} after salvage")),
            }
        }
        for dir in &st.gen.shadow.dirs {
            if let Err(e) = sys.stat(ws, dir) {
                errors.push(format!("{dir}: {e} after salvage"));
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
