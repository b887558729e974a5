//! `campus_day`: the paper's day of actual use at 1,000 workstations.
//!
//! 20 clusters × 50 workstations on the revised design, system binaries
//! replicated read-only to every cluster, one user per workstation (one
//! intense user per cluster). Each user waits for an op, then thinks.
//! Ten unmeasured minutes let the caches fill; the measured 30 minutes
//! carry a ×3 surge in their middle 10.

use crate::probe::{station, Calls, Gen, Shared, Tracer};
use crate::run::{self, Closed, Rep, Window};
use itc_core::proto::ServerId;
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};
use itc_workload::{FileClass, FileSizeModel, UserConfig, UserSession};

const CLUSTERS: u32 = 20;
const PER_CLUSTER: u32 = 50;
const BINARIES: usize = 12;
const WARM_UP: SimTime = SimTime::from_mins(10);
const MEASURED: SimTime = SimTime::from_mins(30);
const SURGE: f64 = 3.0;

struct User {
    session: UserSession,
    mask: ClusterMask,
    surge: (SimTime, SimTime),
}

impl Gen for User {
    fn ws(&self) -> WsId {
        self.session.workstation()
    }

    fn next_at(&self) -> Option<SimTime> {
        Some(self.session.next_at)
    }

    fn mask(&self) -> ClusterMask {
        self.mask
    }

    fn op(&mut self, calls: &mut Calls<'_, '_>) -> Result<(), SystemError> {
        let t = self.session.next_at;
        let rate = if t >= self.surge.0 && t < self.surge.1 {
            SURGE
        } else {
            1.0
        };
        let out = self.session.step(calls, rate);
        // A failed op leaves its think time undrawn; planning redraws the
        // next op at the same instant.
        self.session.plan_next();
        out.map(|_| ())
    }
}

/// Builds the campus and provisions every user.
fn setup(seed: u64, tracer: &mut Tracer) -> Result<(ItcSystem, Vec<UserSession>), SystemError> {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::revised(CLUSTERS, PER_CLUSTER)
    };
    let mut sys = tracer.time("build", || ItcSystem::build(cfg));
    let mut rng = SimRng::seeded(seed);
    let sizes = FileSizeModel::cmu_1984();
    let mut binaries = Vec::new();
    // Twelve binaries drawn at random make the installed image a lottery:
    // one 1 MiB draw, cached at hundreds of workstations, moves peak RSS
    // by a third. Each binary instead takes the middle of its stratum of
    // many draws from the same size model, so every seed installs a
    // representative image.
    let mut draws: Vec<u64> = (0..BINARIES * 100)
        .map(|_| sizes.sample(FileClass::SystemBinary, &mut rng))
        .collect();
    draws.sort_unstable();
    tracer.time("data", || -> Result<(), SystemError> {
        for i in 0..BINARIES {
            let size = draws[(2 * i + 1) * draws.len() / (2 * BINARIES)] as usize;
            for arch in ["sun", "vax"] {
                sys.admin_install_file(
                    &format!("/vice/unix/{arch}/bin/prog{i:02}"),
                    vec![0x7f; size],
                )?;
            }
            binaries.push(format!("/bin/prog{i:02}"));
        }
        let sites: Vec<ServerId> = run::servers(&sys).collect();
        sys.replicate_readonly("/vice", &sites)
    })?;
    let sessions = tracer.time("users", || -> Result<Vec<UserSession>, SystemError> {
        let mut out = Vec::new();
        for ws in 0..sys.workstation_count() {
            let cluster = ws as u32 / PER_CLUSTER;
            let name = format!("user{ws:04}");
            let cfg = if (ws as u32).is_multiple_of(PER_CLUSTER) {
                UserConfig::intense(&name, cluster)
            } else {
                UserConfig::typical(&name, cluster)
            };
            let s = UserSession::provision(&mut sys, cfg, ws, binaries.clone(), &sizes, &mut rng)?;
            s.warm_home_hint(&mut sys)?;
            out.push(s);
        }
        Ok(out)
    })?;
    Ok((sys, sessions))
}

pub fn run(seed: u64, traced: bool) -> Result<Rep, SystemError> {
    let mut tracer = Tracer::new(traced);
    let ((mut sys, sessions), setup_s) = run::set_up(&mut tracer, |t| setup(seed, t))?;

    // The day starts at the mark; every user's first op moves with it.
    let mark = run::mark(&sys);
    let warm_end = mark + WARM_UP;
    let end = warm_end + MEASURED;
    let surge = (warm_end + MEASURED / 3, warm_end + MEASURED * 2 / 3);
    let stations: Vec<Shared<User>> = sessions
        .into_iter()
        .map(|mut session| {
            session.next_at += mark;
            session.plan_next();
            let mask = ClusterMask::of(session.home_cluster() as usize);
            station(
                User {
                    session,
                    mask,
                    surge,
                },
                traced,
            )
        })
        .collect();

    let mode = RunMode::Parallel(2);
    let warm: Vec<_> = stations
        .iter()
        .map(|s| crate::probe::Driver::boxed(s, warm_end))
        .collect();
    sys.run_drivers(warm, mode)?;
    for s in &stations {
        s.lock().expect("station lock").probe.reset();
    }

    let mut window = Window::open(&mut sys, tracer, mode);
    window.run(&mut sys, &stations, end)?;
    window.close(&sys);
    let mut errors = Vec::new();
    window.salvage(&mut sys, &mut errors);
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
