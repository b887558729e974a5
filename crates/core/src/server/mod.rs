//! The Vice cluster server.
//!
//! "No user programs are executed on any Vice machine" (Section 2.3): a
//! server does exactly what [`Server::handle`] implements — it stores the
//! volumes it is custodian of, answers location queries, validates cached
//! copies (or maintains callback promises in the revised design), enforces
//! protection on every call using the identity the RPC handshake
//! authenticated, and serves whole-file fetch and store.
//!
//! The server never trusts anything a workstation claims: the `user`
//! argument to [`Server::handle`] comes from the binding, not the request,
//! and every request is re-checked against the access lists here even if
//! Venus already checked client-side.

mod locks;

pub use locks::{LockKind, LockTable};

use crate::disk::{
    CorruptionEvent, CorruptionOutcome, Disk, FlipRegion, JournalOp, JournalStats, SalvageReport,
    ScrubScan, ScrubStats, SyncPolicy,
};
use crate::location::LocationDb;
use crate::protect::{AccessList, ProtectionDomain, Rights};
use crate::proto::payload::{note_copy, payload_digest};
use crate::proto::{
    CallbackBreak, EntryKind, Payload, ServerId, VStatus, ViceError, ViceReply, ViceRequest,
};
use crate::volume::{Volume, VolumeError, VolumeId};
use itc_rpc::{NodeId, RpcStats};
use itc_sim::{Costs, Resource, SimTime, TraversalMode, ValidationMode};
use itc_unixfs::{FileType, FsError};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, RwLock};

/// A request parked on the server's explicit queue, awaiting dispatch by
/// the event scheduler. The body is still wire bytes: decoding happens at
/// service time, exactly where a real server would parse the datagram it
/// dequeued.
#[derive(Debug)]
pub struct QueuedRequest {
    /// Authenticated caller (identity comes from the binding, never the
    /// request).
    pub user: String,
    /// The caller's network node.
    pub from: NodeId,
    /// Idempotency token framed ahead of the request body.
    pub token: u64,
    /// Causal trace identity carried in the call frame
    /// ([`itc_sim::TraceId::NONE`] when the client had tracing off).
    pub trace: itc_sim::TraceId,
    /// Undecoded request head (everything but file contents).
    pub body: Vec<u8>,
    /// The request's out-of-band bulk payload, shared by refcount with the
    /// client's copy (a `Store`'s file bytes ride here, uncopied).
    pub payload: Option<Payload>,
    /// When the request arrived at this server.
    pub arrived: SimTime,
}

/// Upper bound on remembered mutation replies. Retries of one logical call
/// are immediate (within the same pumped exchange), so a FIFO window this
/// deep can never evict an entry a live retry still needs; without a bound
/// the cache grows by one entry per mutation forever.
const REPLAY_CAP: usize = 1024;

/// Cost components of one handled call, consumed by the timing kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCost {
    /// Handler CPU beyond fixed dispatch.
    pub server_cpu: SimTime,
    /// Bytes moved through the server disk.
    pub disk_bytes: u64,
    /// Whether the lock-server process was consulted.
    pub lock_ipc: bool,
}

/// A Vice cluster server.
#[derive(Debug)]
pub struct Server {
    id: ServerId,
    node: NodeId,
    cpu: Resource,
    disk: Resource,
    volumes: Vec<Volume>,
    location: LocationDb,
    domain: Arc<RwLock<ProtectionDomain>>,
    /// Outstanding callback promises. A `BTreeMap` of `BTreeSet`s, not
    /// hash collections: break fan-out feeds the event calendars, so every
    /// iteration here must be a function of the seed alone.
    callbacks: BTreeMap<String, BTreeSet<NodeId>>,
    locks: LockTable,
    stats: RpcStats,
    validation: ValidationMode,
    traversal: TraversalMode,
    pending_breaks: Vec<(NodeId, CallbackBreak)>,
    /// Batch break notifications per recipient workstation (see
    /// [`crate::SystemConfig::callback_break_batching`]).
    break_batching: bool,
    next_volume_id: u32,
    online: bool,
    /// Incarnation counter, bumped on every crash. Venus compares this to
    /// the epoch it last saw to detect that the server lost its callback
    /// state while the workstation wasn't looking.
    epoch: u64,
    /// Replies to recently applied mutations, keyed by the caller's
    /// workstation and idempotency token. A retried mutation whose reply
    /// was lost is answered from here instead of being applied twice.
    replay: HashMap<(NodeId, u64), ViceReply>,
    /// Insertion order of `replay` keys; the oldest entry is dropped once
    /// the cache exceeds `REPLAY_CAP`.
    replay_order: VecDeque<(NodeId, u64)>,
    /// Requests that have arrived but not yet been dispatched. The event
    /// scheduler enqueues on request arrival and dequeues on service
    /// dispatch, so queue depth is an observable of the simulation.
    queue: VecDeque<QueuedRequest>,
    /// Largest queue depth observed in the current incarnation.
    queue_high_water: usize,
    /// High-water marks of finished incarnations, as `(epoch, high_water)`
    /// — the stat is reset per incarnation so experiments never mix
    /// pre-crash and post-crash load.
    queue_history: Vec<(u64, usize)>,
    /// The durable storage under the volumes: checkpoints plus the
    /// write-ahead journal.
    storage: Disk,
    /// Volumes taken offline by a crash and not yet salvaged.
    salvage_pending: Vec<VolumeId>,
    /// Reports of completed salvage passes, in completion order.
    salvage_reports: Vec<SalvageReport>,
    /// Background scrubber rotation cursor (index into the disk's
    /// ascending volume list; one volume is scanned per pass).
    scrub_cursor: usize,
    /// Running scrubber counters.
    scrub_stats: ScrubStats,
    /// Ledger of injected silent corruptions and their detection fates —
    /// the evidence behind the "zero undetected" acceptance sweep.
    corruption_log: Vec<CorruptionEvent>,
    /// Volumes an integrity verifier just took offline, as `(volume,
    /// path)`; drained by the transport to freeze `IntegrityFault`
    /// anomalies.
    integrity_events: Vec<(VolumeId, String)>,
}

impl Server {
    /// Creates a server with no volumes.
    pub fn new(
        id: ServerId,
        node: NodeId,
        domain: Arc<RwLock<ProtectionDomain>>,
        validation: ValidationMode,
        traversal: TraversalMode,
    ) -> Server {
        Server {
            id,
            node,
            cpu: Resource::new(format!("server{}-cpu", id.0)),
            disk: Resource::new(format!("server{}-disk", id.0)),
            volumes: Vec::new(),
            location: LocationDb::new(),
            domain,
            callbacks: BTreeMap::new(),
            locks: LockTable::new(),
            stats: RpcStats::new(),
            validation,
            traversal,
            pending_breaks: Vec::new(),
            break_batching: false,
            next_volume_id: id.0 * 10_000,
            online: true,
            epoch: 0,
            replay: HashMap::new(),
            replay_order: VecDeque::new(),
            queue: VecDeque::new(),
            queue_high_water: 0,
            queue_history: Vec::new(),
            storage: Disk::new(SyncPolicy::WriteAhead),
            salvage_pending: Vec::new(),
            salvage_reports: Vec::new(),
            scrub_cursor: 0,
            scrub_stats: ScrubStats::default(),
            corruption_log: Vec::new(),
            integrity_events: Vec::new(),
        }
    }

    /// Parks an arrived request on the explicit queue until the event
    /// scheduler dispatches it.
    pub fn enqueue_request(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
    }

    /// Takes the oldest queued request for service.
    pub fn dequeue_request(&mut self) -> Option<QueuedRequest> {
        self.queue.pop_front()
    }

    /// Requests currently awaiting dispatch.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Largest request-queue depth observed in the current incarnation
    /// (reset on every crash).
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// High-water marks of all incarnations, `(epoch, high_water)` pairs:
    /// finished incarnations first, then the live one. Experiments read
    /// this instead of [`Self::queue_high_water`] when crashes are in play,
    /// so load measured before a crash is never attributed to the
    /// incarnation after it.
    pub fn queue_high_water_history(&self) -> Vec<(u64, usize)> {
        let mut out = self.queue_history.clone();
        out.push((self.epoch, self.queue_high_water));
        out
    }

    /// Whether the machine is up (the availability goal of Section 2.2:
    /// single machine failures must only affect "small groups of users").
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the whole server down or brings it back.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Simulates a machine crash: the server goes down and all in-memory
    /// state dies with it — callback promises (Section 3.2: callback state
    /// is soft and must be reconstructible), the mutation replay cache,
    /// advisory locks, and undelivered callback breaks. Files and
    /// directories live on disk, but *only* to the extent the write-ahead
    /// journal was forced: of the unsynced journal window, exactly `torn`
    /// bytes made it to the platter (the fault plan's seed-controlled
    /// torn-write point), and the log is truncated at the last complete
    /// committed record within them. Every volume goes offline until a
    /// salvage pass rebuilds it from checkpoint + surviving journal. The
    /// incarnation epoch is bumped so workstations discover the loss on
    /// next contact and revalidate their caches. Returns the journal bytes
    /// discarded.
    pub fn crash_with_torn(&mut self, torn: u64) -> u64 {
        // Close out this incarnation's queue statistics before the epoch
        // bump: the next incarnation starts its own high-water mark.
        self.queue_history.push((self.epoch, self.queue_high_water));
        self.queue_high_water = 0;
        self.online = false;
        self.epoch += 1;
        self.callbacks.clear();
        self.replay.clear();
        self.replay_order.clear();
        self.locks = LockTable::new();
        self.pending_breaks.clear();
        self.queue.clear();
        let discarded = self.storage.crash_truncate(torn);
        for v in &mut self.volumes {
            v.set_online(false);
        }
        self.salvage_pending = self.volumes.iter().map(Volume::id).collect();
        discarded
    }

    /// [`Self::crash_with_torn`] with a fully synced log (nothing to tear)
    /// — the operator-initiated clean crash.
    pub fn crash(&mut self) {
        self.crash_with_torn(0);
    }

    /// Brings a crashed server back up. The machine answers the network
    /// again, but its volumes stay offline until salvaged — callers see
    /// [`ViceError::VolumeOffline`] in the window between restart and the
    /// completion of each volume's salvage pass.
    pub fn restart(&mut self) {
        self.online = true;
    }

    /// Volumes awaiting salvage, in installation order.
    pub fn salvage_pending(&self) -> &[VolumeId] {
        &self.salvage_pending
    }

    /// Replay work a salvage of `vid` would do, as `(records, bytes)` —
    /// the inputs to [`itc_sim::Costs::salvage_time`].
    pub fn salvage_work(&self, vid: VolumeId) -> (u64, u64) {
        self.storage.salvage_work(vid)
    }

    /// Salvages one volume: rebuilds it from its checkpoint plus the
    /// surviving committed journal records, verifies invariants, and swaps
    /// the rebuilt (online) image in. Returns the report, or `None` if the
    /// disk holds no checkpoint for `vid`.
    pub fn salvage_volume(&mut self, vid: VolumeId) -> Option<SalvageReport> {
        self.salvage_pending.retain(|&v| v != vid);
        let (vol, report) = self.storage.salvage(vid)?;
        if let Some(slot) = self.volumes.iter_mut().find(|v| v.id() == vid) {
            *slot = vol;
        }
        self.salvage_reports.push(report.clone());
        Some(report)
    }

    /// Salvages every pending volume immediately (the operator-driven
    /// path; the event calendar drives per-volume passes with timing).
    pub fn salvage_all(&mut self) -> Vec<SalvageReport> {
        let pending = std::mem::take(&mut self.salvage_pending);
        pending
            .into_iter()
            .filter_map(|vid| self.salvage_volume(vid))
            .collect()
    }

    /// Reports of completed salvage passes, oldest first.
    pub fn salvage_reports(&self) -> &[SalvageReport] {
        &self.salvage_reports
    }

    /// Journal counters of the server's disk.
    pub fn journal_stats(&self) -> JournalStats {
        self.storage.journal().stats()
    }

    /// Journal bytes a crash right now could tear.
    pub fn unsynced_journal_bytes(&self) -> u64 {
        self.storage.unsynced()
    }

    /// The journal sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.storage.policy()
    }

    /// Switches the journal sync policy.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.storage.set_policy(policy);
    }

    /// Forces the journal per policy; the transport layer calls this when
    /// a dispatched request completes, *before* the reply departs — the
    /// write-ahead guarantee that no acknowledged mutation can be torn.
    /// Under [`SyncPolicy::Lazy`] this is a no-op.
    pub fn sync_journal(&mut self) {
        if self.storage.policy() == SyncPolicy::WriteAhead {
            self.storage.sync();
        }
    }

    /// Routes one mutation through the write-ahead journal: intent record,
    /// apply to the in-memory volume, commit/abort trailer.
    fn journal_apply(&mut self, vol_idx: usize, op: JournalOp) -> Result<(), VolumeError> {
        let vid = self.volumes[vol_idx].id();
        let seq = self.storage.begin(vid, op.clone());
        let res = op.apply(&mut self.volumes[vol_idx]);
        self.storage.commit(seq, res.is_ok());
        res
    }

    /// Journals an administrative mutation against volume `vid` and forces
    /// it durable immediately (operator actions never sit in the unsynced
    /// window, whatever the policy).
    pub fn admin_apply(&mut self, vid: VolumeId, op: JournalOp) -> Result<(), VolumeError> {
        let idx = self
            .volumes
            .iter()
            .position(|v| v.id() == vid)
            .ok_or(VolumeError::Offline)?;
        let res = self.journal_apply(idx, op);
        self.storage.sync();
        res
    }

    /// The server's incarnation epoch (crash count).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    // ------------------------------------------------------------------
    // End-to-end integrity: corruption injection, scrubbing, repair
    // ------------------------------------------------------------------

    /// Read access to the durable storage (checkpoints + journal).
    pub fn storage(&self) -> &Disk {
        &self.storage
    }

    /// Total durable bytes a silent flip could land in (see
    /// [`Disk::durable_extent`]).
    pub fn durable_extent(&self) -> u64 {
        self.storage.durable_extent()
    }

    /// Lands one silent flip on the durable address space and logs it in
    /// the corruption ledger as latent (undetected). Returns where the
    /// damage landed, or `None` when the offset fell outside every region.
    pub fn apply_corruption(&mut self, at: SimTime, offset: u64, mask: u8) -> Option<FlipRegion> {
        let region = self.storage.apply_flip(offset, mask)?;
        self.corruption_log.push(CorruptionEvent {
            injected_at: at,
            region: region.clone(),
            detected_at: None,
            outcome: CorruptionOutcome::Latent,
        });
        Some(region)
    }

    /// The corruption ledger, injection order.
    pub fn corruption_log(&self) -> &[CorruptionEvent] {
        &self.corruption_log
    }

    /// Marks every still-latent ledger entry matching `pred` as detected
    /// at `at` with the given outcome. Returns how many were marked.
    pub fn mark_corruptions_detected(
        &mut self,
        at: SimTime,
        outcome: CorruptionOutcome,
        pred: impl Fn(&FlipRegion) -> bool,
    ) -> u64 {
        let mut marked = 0;
        for ev in &mut self.corruption_log {
            if ev.outcome == CorruptionOutcome::Latent && pred(&ev.region) {
                ev.detected_at = Some(at);
                ev.outcome = outcome;
                marked += 1;
            }
        }
        marked
    }

    /// The volume the scrubber's rotation visits next (ascending volume
    /// id, one per pass); advances the cursor. `None` on a diskless
    /// server.
    pub fn next_scrub_volume(&mut self) -> Option<VolumeId> {
        let vids = self.storage.volumes_on_disk();
        if vids.is_empty() {
            return None;
        }
        let vid = vids[self.scrub_cursor % vids.len()];
        self.scrub_cursor = (self.scrub_cursor + 1) % vids.len();
        Some(vid)
    }

    /// Runs the digest scan of one scrub pass over `vid`'s checkpoint
    /// image and folds the scan into the running counters. Repair of any
    /// findings is the transport layer's job (it can see other servers'
    /// replicas).
    pub fn scrub_scan(&mut self, vid: VolumeId) -> Option<ScrubScan> {
        let scan = self.storage.scrub_volume(vid)?;
        self.scrub_stats.passes += 1;
        self.scrub_stats.volumes_scanned += 1;
        self.scrub_stats.files_scanned += scan.files;
        self.scrub_stats.bytes_scanned += scan.bytes;
        self.scrub_stats.mismatches_detected += scan.findings.len() as u64;
        Some(scan)
    }

    /// Scrubber counters.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// Repairs one file of `vid` with bytes a replica vouched for: the
    /// checkpoint image is restored quietly, and the live volume too if
    /// its copy of the file also fails the digest. Counts toward the
    /// scrubber's repair stat.
    pub fn repair_file(&mut self, vid: VolumeId, path: &str, data: Vec<u8>) -> bool {
        let expected = payload_digest(&data);
        let repaired = self.storage.repair_checkpoint_file(vid, path, data.clone());
        if let Some(vol) = self.volume_mut(vid) {
            let live_damaged = vol
                .fs()
                .read(path)
                .map(|cur| payload_digest(&cur) != expected)
                .unwrap_or(false);
            if live_damaged {
                vol.restore_file(path, data);
            }
        }
        if repaired {
            self.scrub_stats.repaired += 1;
        }
        repaired
    }

    /// Terminal state of an unrepairable corruption: the volume (live
    /// image and checkpoint) goes offline rather than serve bytes nothing
    /// can vouch for, and an integrity event is queued for the transport
    /// to surface as an `IntegrityFault` anomaly.
    pub fn offline_volume_for_integrity(&mut self, vid: VolumeId, path: &str) {
        if let Some(vol) = self.volume_mut(vid) {
            vol.set_online(false);
        }
        self.storage.offline_checkpoint(vid);
        self.scrub_stats.offlined += 1;
        self.integrity_events.push((vid, path.to_string()));
    }

    /// Takes the integrity events queued since the last drain.
    pub fn drain_integrity_events(&mut self) -> Vec<(VolumeId, String)> {
        std::mem::take(&mut self.integrity_events)
    }

    /// Looks up a remembered reply for a retried mutation.
    pub fn replay_lookup(&self, from: NodeId, token: u64) -> Option<&ViceReply> {
        self.replay.get(&(from, token))
    }

    /// Remembers the reply to an applied mutation for future replays. The
    /// cache is bounded: once it holds `REPLAY_CAP` entries the oldest is
    /// evicted, FIFO. (An entry only protects against retries of its own
    /// logical call, which happen immediately; anything old enough to be
    /// evicted can no longer be retried.)
    pub fn replay_record(&mut self, from: NodeId, token: u64, reply: ViceReply) {
        if self.replay.insert((from, token), reply).is_none() {
            self.replay_order.push_back((from, token));
        }
        while self.replay.len() > REPLAY_CAP {
            let oldest = self.replay_order.pop_front().expect("order tracks map");
            self.replay.remove(&oldest);
        }
    }

    /// Number of remembered mutation replies (for tests).
    pub fn replay_entries(&self) -> usize {
        self.replay.len()
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Network node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The server's CPU resource (shared with the timing kernel).
    pub fn cpu(&self) -> &Resource {
        &self.cpu
    }

    /// The server's disk resource.
    pub fn disk(&self) -> &Resource {
        &self.disk
    }

    /// Call statistics.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// The server's replica of the location database.
    pub fn location(&self) -> &LocationDb {
        &self.location
    }

    /// Mutable location database (the system layer updates every server's
    /// replica together, charging replication time).
    pub fn location_mut(&mut self) -> &mut LocationDb {
        &mut self.location
    }

    /// Allocates a fresh volume id unique to this server.
    pub fn alloc_volume_id(&mut self) -> VolumeId {
        let id = VolumeId(self.next_volume_id);
        self.next_volume_id += 1;
        id
    }

    /// Installs a volume on this server. The disk checkpoints the image
    /// as-installed, so a crash before any journaled mutation salvages
    /// back to exactly this state.
    pub fn add_volume(&mut self, volume: Volume) {
        self.storage.checkpoint(&volume);
        self.volumes.push(volume);
    }

    /// Removes a volume by id (for moves), returning it. Its checkpoint
    /// leaves the disk with it.
    pub fn take_volume(&mut self, id: VolumeId) -> Option<Volume> {
        let idx = self.volumes.iter().position(|v| v.id() == id)?;
        self.storage.drop_volume(id);
        self.salvage_pending.retain(|&v| v != id);
        Some(self.volumes.remove(idx))
    }

    /// Re-checkpoints a hosted volume after an out-of-band mutation that
    /// legitimately bypasses the journal (cloning bumps the source's
    /// serial; a replica refresh rewrites its whole tree).
    pub fn recheckpoint(&mut self, id: VolumeId) {
        if let Some(v) = self.volumes.iter().find(|v| v.id() == id) {
            self.storage.checkpoint(v);
        }
    }

    /// The hosted volumes.
    pub fn volumes(&self) -> &[Volume] {
        &self.volumes
    }

    /// The id of the hosted volume covering `vice_path`, if any — the most
    /// specific mount wins when volumes nest. Read-only: used by the
    /// tracing layer to attribute a call to a volume.
    pub fn volume_covering(&self, vice_path: &str) -> Option<VolumeId> {
        self.volumes
            .iter()
            .filter(|v| v.covers(vice_path))
            .max_by_key(|v| v.mount().len())
            .map(Volume::id)
    }

    /// Mutable access to a hosted volume by id.
    pub fn volume_mut(&mut self, id: VolumeId) -> Option<&mut Volume> {
        self.volumes.iter_mut().find(|v| v.id() == id)
    }

    /// Finds the hosted volume covering `path`, preferring the longest
    /// mount and, among equals, a writable volume over a read-only replica
    /// when `want_write`.
    fn volume_for(&self, path: &str, want_write: bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, v) in self.volumes.iter().enumerate() {
            if !v.covers(path) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let bv = &self.volumes[b];
                    let longer = v.mount().len() > bv.mount().len();
                    let same = v.mount().len() == bv.mount().len();
                    longer || (same && want_write && bv.is_read_only() && !v.is_read_only())
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// Takes the callback breaks generated by recent calls; the system
    /// layer delivers them (one-way messages) and invalidates caches.
    pub fn drain_breaks(&mut self) -> Vec<(NodeId, CallbackBreak)> {
        std::mem::take(&mut self.pending_breaks)
    }

    /// Enables or disables per-recipient break batching.
    pub fn set_break_batching(&mut self, on: bool) {
        self.break_batching = on;
    }

    /// Whether break notifications are batched per recipient.
    pub fn break_batching(&self) -> bool {
        self.break_batching
    }

    /// Number of callback promises currently outstanding (server state the
    /// check-on-open design avoids, at the price of validation traffic).
    pub fn callback_promises(&self) -> usize {
        self.callbacks.values().map(BTreeSet::len).sum()
    }

    /// Records statistics for a completed call (invoked by the system layer
    /// once timing is known).
    pub fn record_call(&self, kind: &str, req_bytes: u64, reply_bytes: u64, elapsed: SimTime) {
        self.stats.record(kind, req_bytes, reply_bytes, elapsed);
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    /// Handles one authenticated request.
    ///
    /// * `user` — identity from the RPC binding (never from the request).
    /// * `from` — the workstation's node id (for callback promises).
    /// * `now` — virtual time, used for mtimes.
    /// * `costs` — cost table for computing the CPU charge of this call.
    pub fn handle(
        &mut self,
        user: &str,
        from: NodeId,
        req: &ViceRequest,
        now: SimTime,
        costs: &Costs,
    ) -> (ViceReply, CallCost) {
        let mut cost = CallCost::default();
        let reply = self.dispatch(user, from, req, now, costs, &mut cost);
        (reply, cost)
    }

    fn charge_traversal(&self, costs: &Costs, cost: &mut CallCost, path: &str, walked: u32) {
        if self.traversal == TraversalMode::ServerSide {
            // Mount-prefix components plus components walked inside the
            // volume; the prototype's servers walked the whole pathname.
            let prefix = path.split('/').filter(|c| !c.is_empty()).count() as u32;
            cost.server_cpu += costs.srv_cpu_per_component * (walked + prefix) as u64;
        }
    }

    fn cps_of(&self, user: &str) -> Vec<String> {
        let mut cps = self
            .domain
            .read()
            .expect("protection domain lock")
            .cps(user);
        // "System:AnyUser"-style blanket entries are common on ACLs; every
        // authenticated principal implicitly carries it.
        cps.push("anyuser".to_string());
        cps
    }

    fn check_rights(
        &self,
        user: &str,
        acl: &AccessList,
        needed: Rights,
        path: &str,
    ) -> Result<(), ViceError> {
        let cps = self.cps_of(user);
        let eff = acl.effective_rights(cps.iter().map(String::as_str));
        if eff.covers(needed) {
            Ok(())
        } else {
            Err(ViceError::PermissionDenied(path.to_string()))
        }
    }

    fn map_vol_err(path: &str, e: VolumeError) -> ViceError {
        match e {
            VolumeError::Fs(fs) => map_fs_err(path, fs),
            VolumeError::ReadOnly => ViceError::ReadOnlyVolume(path.to_string()),
            VolumeError::Offline => ViceError::VolumeOffline(path.to_string()),
            VolumeError::QuotaExceeded { .. } => ViceError::QuotaExceeded(path.to_string()),
        }
    }

    fn status_of(vol: &Volume, internal: &str) -> Result<VStatus, ViceError> {
        let vice_path = vol.vice_path(internal);
        let fs = vol
            .fs_read()
            .map_err(|e| Self::map_vol_err(&vice_path, e))?;
        let attr = fs.lstat(internal).map_err(|e| map_fs_err(&vice_path, e))?;
        Ok(VStatus {
            path: vice_path,
            fid: attr.ino.0,
            kind: match attr.ftype {
                FileType::Regular => EntryKind::File,
                FileType::Directory => EntryKind::Dir,
                FileType::Symlink => EntryKind::Symlink,
            },
            size: attr.size,
            version: attr.version,
            mtime: attr.mtime,
            mode: attr.mode.0,
            owner: attr.uid,
            read_only: vol.is_read_only(),
        })
    }

    /// Registers a callback promise for `from` on `path` (callback mode
    /// only).
    fn promise(&mut self, path: &str, from: NodeId, costs: &Costs, cost: &mut CallCost) {
        if self.validation == ValidationMode::Callback {
            self.callbacks
                .entry(path.to_string())
                .or_default()
                .insert(from);
            cost.server_cpu += costs.srv_cpu_callback;
        }
    }

    /// Breaks callbacks on `path` (and its parent directory, whose cached
    /// listing is stale too), excluding the mutating workstation.
    fn break_callbacks(
        &mut self,
        path: &str,
        new_version: u64,
        from: NodeId,
        costs: &Costs,
        cost: &mut CallCost,
    ) {
        if self.validation != ValidationMode::Callback {
            return;
        }
        let mut targets: Vec<String> = vec![path.to_string()];
        if let Ok((parent, _)) = itc_unixfs::dirname_basename(path) {
            targets.push(parent);
        }
        let mut charged: Vec<NodeId> = Vec::new();
        for target in targets {
            if let Some(holders) = self.callbacks.remove(&target) {
                // BTreeSet iteration is already sorted; the explicit sort
                // documents that break order must stay seed-deterministic.
                let mut holders: Vec<NodeId> = holders.into_iter().collect();
                holders.sort_unstable();
                for ws in holders {
                    if ws != from {
                        if self.break_batching {
                            // Batched: one notification per recipient
                            // workstation for this mutation, however many
                            // of its promises just died.
                            if !charged.contains(&ws) {
                                charged.push(ws);
                                cost.server_cpu += costs.srv_cpu_callback;
                            }
                        } else {
                            cost.server_cpu += costs.srv_cpu_callback;
                        }
                        self.pending_breaks.push((
                            ws,
                            CallbackBreak {
                                path: target.clone(),
                                new_version,
                            },
                        ));
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(
        &mut self,
        user: &str,
        from: NodeId,
        req: &ViceRequest,
        now: SimTime,
        costs: &Costs,
        cost: &mut CallCost,
    ) -> ViceReply {
        // Custodian location is answerable even for paths we do not host.
        if let ViceRequest::GetCustodian { path } = req {
            return match self.location.lookup(path) {
                Some((subtree, entry)) => ViceReply::Custodian {
                    subtree: subtree.to_string(),
                    custodian: entry.custodian,
                    replicas: entry.replicas.clone(),
                },
                None => ViceReply::Error(ViceError::NoSuchFile(path.clone())),
            };
        }

        let path = req.path();
        let want_write = matches!(
            req,
            ViceRequest::Store { .. }
                | ViceRequest::Remove { .. }
                | ViceRequest::SetMode { .. }
                | ViceRequest::MakeDir { .. }
                | ViceRequest::RemoveDir { .. }
                | ViceRequest::Rename { .. }
                | ViceRequest::SetAcl { .. }
                | ViceRequest::MakeSymlink { .. }
        );
        let Some(vol_idx) = self.volume_for(path, want_write) else {
            // Not ours: answer with the custodian hint, as Section 3.1
            // specifies.
            let hint = self.location.custodian_of(path);
            return ViceReply::Error(ViceError::NotCustodian(hint));
        };

        // The location database is authoritative: if it assigns a *deeper*
        // subtree than the volume we would serve from, that subtree lives
        // elsewhere (e.g. a user volume that moved away) and the enclosing
        // volume's stub directory must not shadow it.
        if let Some((subtree, entry)) = self.location.lookup(path) {
            let our_mount_len = self.volumes[vol_idx].mount().len();
            if subtree.len() > our_mount_len
                && entry.custodian != self.id
                && !entry.replicas.contains(&self.id)
            {
                return ViceReply::Error(ViceError::NotCustodian(Some(entry.custodian)));
            }
        }

        // Protection is evaluated on every call.
        cost.server_cpu += costs.srv_cpu_protection;

        match req {
            ViceRequest::GetCustodian { .. } => unreachable!("handled above"),

            ViceRequest::Fetch { path } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::READ, path) {
                    return ViceReply::Error(e);
                }
                let vol = &self.volumes[vol_idx];
                let fs = match vol.fs_read() {
                    Ok(f) => f,
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                // Do not follow a final symlink: Venus interprets links
                // itself (they may point into other volumes on other
                // servers).
                let resolved = match fs.resolve(&internal, false) {
                    Ok(r) => r,
                    Err(e) => return ViceReply::Error(map_fs_err(path, e)),
                };
                self.charge_traversal(costs, cost, path, resolved.components_walked);
                let attr = fs.attr_of(resolved.ino).expect("resolved").clone();
                match attr.ftype {
                    FileType::Regular => {
                        // The one genuine copy on the fetch path: reading
                        // the file out of the volume. From here to the
                        // client's cache the bytes travel by refcount.
                        let data =
                            Payload::from_vec(fs.read_ino(resolved.ino).expect("regular file"));
                        // End-to-end check: the bytes leaving the platter
                        // must match the volume's Merkle leaf before they
                        // can reach Venus. A mismatch means silent rot got
                        // past every earlier verifier — serve nothing,
                        // take the volume offline, surface the fault. The
                        // digest is memoized in the payload, so this pass
                        // is also the one the reply's rider check reuses.
                        let key =
                            itc_unixfs::normalize(&internal).unwrap_or_else(|_| internal.clone());
                        if let Some(expected) = self.volumes[vol_idx].merkle().leaf(&key) {
                            if data.digest() != expected {
                                let vid = self.volumes[vol_idx].id();
                                self.offline_volume_for_integrity(vid, &key);
                                self.mark_corruptions_detected(
                                    now,
                                    CorruptionOutcome::CaughtAtFetch,
                                    |r| match r {
                                        FlipRegion::CheckpointFile { volume, path }
                                        | FlipRegion::MerkleLeaf { volume, path } => {
                                            *volume == vid && path == &key
                                        }
                                        FlipRegion::Journal { .. } => false,
                                    },
                                );
                                return ViceReply::Error(ViceError::VolumeOffline(path.clone()));
                            }
                        }
                        note_copy(data.len());
                        cost.server_cpu += costs.srv_block_cpu(data.len() as u64);
                        cost.disk_bytes = data.len() as u64;
                        let status = match Self::status_of(&self.volumes[vol_idx], &internal) {
                            Ok(s) => s,
                            Err(e) => return ViceReply::Error(e),
                        };
                        self.promise(path, from, costs, cost);
                        ViceReply::Data { status, data }
                    }
                    FileType::Directory => {
                        // Directories are fetchable as serialized listings:
                        // "a directory stored as a Vice file is easier to
                        // interpret when the whole file is available"
                        // (Section 3.2). Venus uses this for client-side
                        // traversal.
                        let listing = fs.readdir(&internal).expect("is a directory");
                        let mut blob = Vec::new();
                        for (name, ino) in &listing {
                            let kind = match fs.attr_of(*ino).expect("entry").ftype {
                                FileType::Regular => b'f',
                                FileType::Directory => b'd',
                                FileType::Symlink => b'l',
                            };
                            blob.push(kind);
                            blob.extend_from_slice(name.as_bytes());
                            blob.push(b'\n');
                        }
                        cost.server_cpu += costs.srv_block_cpu(blob.len() as u64);
                        cost.disk_bytes = blob.len() as u64;
                        let status = match Self::status_of(&self.volumes[vol_idx], &internal) {
                            Ok(s) => s,
                            Err(e) => return ViceReply::Error(e),
                        };
                        self.promise(path, from, costs, cost);
                        ViceReply::Data {
                            status,
                            data: Payload::from_vec(blob),
                        }
                    }
                    FileType::Symlink => {
                        let target = fs.readlink(&internal).expect("is a symlink");
                        ViceReply::Link(link_target_to_vice(vol, path, &target))
                    }
                }
            }

            ViceRequest::Store { path, data } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                let exists = vol.fs().exists(&internal);
                let needed = if exists {
                    Rights::WRITE
                } else {
                    Rights::INSERT
                };
                if let Err(e) = self.check_rights(user, &acl, needed, path) {
                    return ViceReply::Error(e);
                }
                if self.traversal == TraversalMode::ServerSide {
                    let walked = path.split('/').filter(|c| !c.is_empty()).count() as u32;
                    cost.server_cpu += costs.srv_cpu_per_component * walked as u64;
                }
                cost.server_cpu += costs.srv_block_cpu(data.len() as u64);
                cost.disk_bytes = data.len() as u64;
                let uid = uid_of(user);
                // Intent → apply → commit: the journal record holds the
                // payload by refcount; the one genuine copy on the store
                // path happens when the op is applied to the volume.
                let op = JournalOp::Store {
                    path: internal.clone(),
                    uid,
                    mtime: now.as_micros(),
                    data: data.clone(),
                };
                match self.journal_apply(vol_idx, op) {
                    Ok(()) => {
                        let status = match Self::status_of(&self.volumes[vol_idx], &internal) {
                            Ok(s) => s,
                            Err(e) => return ViceReply::Error(e),
                        };
                        let v = status.version;
                        self.break_callbacks(path, v, from, costs, cost);
                        // The storing workstation's own copy is current; it
                        // gets a fresh promise.
                        self.promise(path, from, costs, cost);
                        ViceReply::Status(status)
                    }
                    Err(e) => ViceReply::Error(Self::map_vol_err(path, e)),
                }
            }

            ViceRequest::Remove { path } => self.mutate_entry(
                user,
                from,
                vol_idx,
                path,
                Rights::DELETE,
                costs,
                cost,
                now,
                |internal, t| JournalOp::Remove {
                    path: internal.to_string(),
                    mtime: t,
                },
            ),

            ViceRequest::GetStatus { path } => {
                cost.server_cpu += costs.srv_cpu_getstatus;
                // The prototype stored status in per-file .admin files:
                // answering a status query touches the server disk.
                cost.disk_bytes = 2_048;
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::READ, path) {
                    return ViceReply::Error(e);
                }
                if let Ok(r) = self.volumes[vol_idx].fs().resolve(&internal, false) {
                    self.charge_traversal(costs, cost, path, r.components_walked);
                }
                match Self::status_of(&self.volumes[vol_idx], &internal) {
                    Ok(s) => ViceReply::Status(s),
                    Err(e) => ViceReply::Error(e),
                }
            }

            ViceRequest::SetMode { path, mode } => self.mutate_entry(
                user,
                from,
                vol_idx,
                path,
                Rights::WRITE,
                costs,
                cost,
                now,
                |internal, t| JournalOp::SetMode {
                    path: internal.to_string(),
                    mode: *mode as u32,
                    mtime: t,
                },
            ),

            ViceRequest::Validate { path, fid, version } => {
                cost.server_cpu += costs.srv_cpu_validate;
                // Timestamp comparison reads the .admin file from disk.
                cost.disk_bytes = 2_048;
                // The prototype's servers walked the entire pathname on
                // every call — including the dominant validation calls.
                if self.traversal == TraversalMode::ServerSide {
                    let walked = path.split('/').filter(|c| !c.is_empty()).count() as u32;
                    cost.server_cpu += costs.srv_cpu_per_component * walked as u64;
                }
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                // Protection is re-checked on validation too: a revoked
                // user must not keep using his cached copy by having the
                // server confirm it is "current".
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::READ, path) {
                    return ViceReply::Error(e);
                }
                let vol = &self.volumes[vol_idx];
                match Self::status_of(vol, &internal) {
                    Ok(status) => {
                        // Both the identity and the version must match: a
                        // deleted-and-recreated file has a new fid, so a
                        // stale cache can never validate against it.
                        let valid = status.fid == *fid && status.version == *version;
                        self.promise(path, from, costs, cost);
                        ViceReply::Validated {
                            valid,
                            status: (!valid).then_some(status),
                        }
                    }
                    Err(e) => ViceReply::Error(e),
                }
            }

            ViceRequest::MakeDir { path } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                // A volume's mount root always exists (clients walking
                // down with mkdir -p hit this for mounted user volumes).
                if internal == "/" {
                    return ViceReply::Error(ViceError::AlreadyExists(path.clone()));
                }
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::INSERT, path) {
                    return ViceReply::Error(e);
                }
                let uid = uid_of(user);
                let op = JournalOp::Mkdir {
                    path: internal.clone(),
                    uid,
                    mtime: now.as_micros(),
                };
                match self.journal_apply(vol_idx, op) {
                    Ok(()) => {
                        let path_owned = path.clone();
                        self.break_callbacks(&path_owned, 1, from, costs, cost);
                        match Self::status_of(&self.volumes[vol_idx], &internal) {
                            Ok(s) => ViceReply::Status(s),
                            Err(e) => ViceReply::Error(e),
                        }
                    }
                    Err(e) => ViceReply::Error(Self::map_vol_err(path, e)),
                }
            }

            ViceRequest::RemoveDir { path } => self.mutate_entry(
                user,
                from,
                vol_idx,
                path,
                Rights::DELETE,
                costs,
                cost,
                now,
                |internal, t| JournalOp::Rmdir {
                    path: internal.to_string(),
                    mtime: t,
                },
            ),

            ViceRequest::Rename { from: src, to: dst } => {
                let vol = &self.volumes[vol_idx];
                // Renames must stay within one volume (as in AFS proper).
                let (Some(si), Some(di)) = (vol.internal_path(src), vol.internal_path(dst)) else {
                    return ViceReply::Error(ViceError::BadRequest(
                        "rename must stay within one volume".to_string(),
                    ));
                };
                let src_acl = match vol.acl_for(&si) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(src, e)),
                };
                let dst_acl = match vol.acl_for(&di) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(dst, e)),
                };
                if let Err(e) = self.check_rights(user, &src_acl, Rights::DELETE, src) {
                    return ViceReply::Error(e);
                }
                if let Err(e) = self.check_rights(user, &dst_acl, Rights::INSERT, dst) {
                    return ViceReply::Error(e);
                }
                let op = JournalOp::Rename {
                    from: si,
                    to: di,
                    mtime: now.as_micros(),
                };
                match self.journal_apply(vol_idx, op) {
                    Ok(()) => {
                        let (s, d) = (src.clone(), dst.clone());
                        self.break_callbacks(&s, 0, from, costs, cost);
                        self.break_callbacks(&d, 0, from, costs, cost);
                        ViceReply::Ok
                    }
                    Err(e) => ViceReply::Error(Self::map_vol_err(src, e)),
                }
            }

            ViceRequest::ListDir { path } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::READ, path) {
                    return ViceReply::Error(e);
                }
                let vol = &self.volumes[vol_idx];
                let fs = match vol.fs_read() {
                    Ok(f) => f,
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                match fs.readdir(&internal) {
                    Ok(entries) => {
                        if let Ok(r) = fs.resolve(&internal, true) {
                            self.charge_traversal(costs, cost, path, r.components_walked);
                        }
                        let listing = entries
                            .into_iter()
                            .map(|(name, ino)| {
                                let kind = match fs.attr_of(ino).expect("entry").ftype {
                                    FileType::Regular => EntryKind::File,
                                    FileType::Directory => EntryKind::Dir,
                                    FileType::Symlink => EntryKind::Symlink,
                                };
                                (name, kind)
                            })
                            .collect();
                        ViceReply::Listing(listing)
                    }
                    Err(e) => ViceReply::Error(map_fs_err(path, e)),
                }
            }

            ViceRequest::GetAcl { path } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                match vol.acl_for(&internal) {
                    Ok(a) => ViceReply::Acl(a.clone()),
                    Err(e) => ViceReply::Error(Self::map_vol_err(path, e)),
                }
            }

            ViceRequest::SetAcl { path, acl } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let cur = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &cur, Rights::ADMINISTER, path) {
                    return ViceReply::Error(e);
                }
                let op = JournalOp::SetAcl {
                    path: internal.clone(),
                    acl: acl.clone(),
                };
                match self.journal_apply(vol_idx, op) {
                    Ok(()) => ViceReply::Ok,
                    Err(e) => ViceReply::Error(Self::map_vol_err(path, e)),
                }
            }

            ViceRequest::MakeSymlink { path, target } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::INSERT, path) {
                    return ViceReply::Error(e);
                }
                let uid = uid_of(user);
                let op = JournalOp::Symlink {
                    path: internal.clone(),
                    target: target.clone(),
                    uid,
                    mtime: now.as_micros(),
                };
                match self.journal_apply(vol_idx, op) {
                    Ok(()) => ViceReply::Ok,
                    Err(e) => ViceReply::Error(Self::map_vol_err(path, e)),
                }
            }

            ViceRequest::ReadLink { path } => {
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let fs = match vol.fs_read() {
                    Ok(f) => f,
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                match fs.readlink(&internal) {
                    Ok(t) => {
                        let vol = &self.volumes[vol_idx];
                        ViceReply::Link(link_target_to_vice(vol, path, &t))
                    }
                    Err(e) => ViceReply::Error(map_fs_err(path, e)),
                }
            }

            ViceRequest::SetLock { path, exclusive } => {
                cost.lock_ipc = true;
                let vol = &self.volumes[vol_idx];
                let Some(internal) = vol.internal_path(path) else {
                    return ViceReply::Error(ViceError::NoSuchFile(path.clone()));
                };
                let acl = match vol.acl_for(&internal) {
                    Ok(a) => a.clone(),
                    Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
                };
                if let Err(e) = self.check_rights(user, &acl, Rights::LOCK, path) {
                    return ViceReply::Error(e);
                }
                let kind = if *exclusive {
                    LockKind::Exclusive
                } else {
                    LockKind::Shared
                };
                if self.locks.acquire(path, user, from, kind) {
                    ViceReply::Ok
                } else {
                    ViceReply::Error(ViceError::LockConflict(path.clone()))
                }
            }

            ViceRequest::ReleaseLock { path } => {
                cost.lock_ipc = true;
                self.locks.release(path, user, from);
                ViceReply::Ok
            }
        }
    }

    /// Common shape for delete-like mutations: rights check, journal the
    /// operation (intent → apply → commit), break callbacks.
    #[allow(clippy::too_many_arguments)]
    fn mutate_entry<F>(
        &mut self,
        user: &str,
        from: NodeId,
        vol_idx: usize,
        path: &str,
        needed: Rights,
        costs: &Costs,
        cost: &mut CallCost,
        now: SimTime,
        make_op: F,
    ) -> ViceReply
    where
        F: FnOnce(&str, u64) -> JournalOp,
    {
        let vol = &self.volumes[vol_idx];
        let Some(internal) = vol.internal_path(path) else {
            return ViceReply::Error(ViceError::NoSuchFile(path.to_string()));
        };
        let acl = match vol.acl_for(&internal) {
            Ok(a) => a.clone(),
            Err(e) => return ViceReply::Error(Self::map_vol_err(path, e)),
        };
        if let Err(e) = self.check_rights(user, &acl, needed, path) {
            return ViceReply::Error(e);
        }
        let op = make_op(&internal, now.as_micros());
        match self.journal_apply(vol_idx, op) {
            Ok(()) => {
                self.break_callbacks(path, 0, from, costs, cost);
                ViceReply::Ok
            }
            Err(e) => ViceReply::Error(Self::map_vol_err(&internal, e)),
        }
    }
}

/// Translates a symlink target (as stored) into the Vice name space for
/// the client to interpret: absolute `/vice/...` targets pass through,
/// other absolute targets are volume-internal, and relative targets join
/// the link's own directory.
fn link_target_to_vice(vol: &Volume, link_vice_path: &str, target: &str) -> String {
    if target == "/vice" || target.starts_with("/vice/") {
        target.to_string()
    } else if target.starts_with('/') {
        vol.vice_path(target)
    } else {
        match itc_unixfs::dirname_basename(link_vice_path) {
            Ok((dir, _)) => itc_unixfs::join(&dir, target).unwrap_or_else(|_| target.to_string()),
            Err(_) => target.to_string(),
        }
    }
}

/// Maps a file-system error to the protocol error space.
fn map_fs_err(path: &str, e: FsError) -> ViceError {
    match e {
        FsError::NotFound(_) => ViceError::NoSuchFile(path.to_string()),
        FsError::NotADirectory(_) => ViceError::NotADirectory(path.to_string()),
        FsError::IsADirectory(_) => ViceError::IsADirectory(path.to_string()),
        FsError::AlreadyExists(_) => ViceError::AlreadyExists(path.to_string()),
        FsError::NotEmpty(_) => ViceError::NotEmpty(path.to_string()),
        FsError::SymlinkLoop(_) => ViceError::SymlinkLoop(path.to_string()),
        FsError::InvalidPath(_) => ViceError::BadRequest(format!("invalid path: {path}")),
        FsError::RenameIntoSelf(_) => ViceError::RenameIntoSelf(path.to_string()),
        FsError::NotASymlink(_) => ViceError::BadRequest(format!("not a symlink: {path}")),
    }
}

/// A stable uid for a user name (display/bookkeeping only; authorization is
/// by name through the protection domain).
pub fn uid_of(user: &str) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in user.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    // Avoid uid 0 so "root-looking" owners never appear by accident.
    (h | 1) & 0x7fff_ffff
}
