//! The cloud server hosting the fully virtual VR classroom.
//!
//! §3.2: "the cloud server arranges the avatars of all users within an
//! entirely virtual VR classroom and transmits the results back to the remote
//! users." It ingests avatar streams from both physical classrooms and from
//! every remote client, seats them in a virtual auditorium, and fans out
//! per-client updates under an interest-managed budget — the mechanism that
//! keeps "thousands of remote users" (§3.3) affordable.

use std::collections::BTreeMap;

use metaclass_avatar::{retarget, AnchorFrame, AvatarCodec, AvatarId, AvatarState};
use metaclass_netsim::{Context, Node, NodeId, SimTime, Timer};
use metaclass_sync::{
    DeadReckoningSender, InteractionEvent, InterestConfig, InterestManager, PoseFrame,
    SnapshotReceiver, SubscriberId, Viewpoint,
};

use crate::edge_server::ServerConfig;
use crate::health::RemoteAvatarPresentation;
use crate::messages::ClassMsg;
use crate::overload::{AdmissionController, AdmissionOutcome, LoadShedder, ShedLevel};
use crate::peer_sync::{PeerSync, SyncMetrics};
use crate::pool::pool_avatar;
use crate::seat::{ClassroomLayout, SeatAllocator};

const TAG_FANOUT: u64 = 20;
const TAG_HEARTBEAT: u64 = 21;

/// The cloud's names for the shared protocol metrics.
const METRICS: SyncMetrics = SyncMetrics {
    returns: "cloud.edge_returns",
    degraded: "cloud.edge_degraded",
    down: "cloud.edge_down",
    delivered: "cloud.interactions_delivered",
    decode_errors: "cloud.decode_errors",
    keyframe_requests: None,
    ticks_shed: "overload.fanout_ticks_shed",
    deferred: "overload.fanout_deferred",
    interaction_latency: None,
};

/// Seats per virtual room: each room's seating block starts this many seats
/// after the previous one, so reseating on a room change is observable in
/// the retargeted avatar stream.
const ROOM_SEAT_STRIDE: usize = 40;

/// Fan-out policy of the cloud classroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutConfig {
    /// Avatar updates each client may receive per fan-out tick.
    pub budget_per_client: usize,
    /// Interest-management tuning.
    pub interest: InterestConfig,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig { budget_per_client: 16, interest: InterestConfig::default() }
    }
}

/// The cloud VR classroom server.
pub struct CloudServerNode {
    cfg: ServerConfig,
    fanout: FanoutConfig,
    /// Remote VR clients: avatar → client node.
    clients: BTreeMap<AvatarId, NodeId>,
    /// The protocol shared with the physical classrooms' edge servers; its
    /// backlog holds refreshes deferred per client.
    sync: PeerSync<AvatarId>,
    /// Inbound streams (from clients and edges alike).
    receivers: BTreeMap<AvatarId, SnapshotReceiver>,
    dead_reckoners: BTreeMap<AvatarId, DeadReckoningSender>,
    /// Latest VR-space state of every avatar in the virtual classroom.
    latest: BTreeMap<AvatarId, (AvatarState, SimTime)>,
    seats: SeatAllocator,
    interest: InterestManager,
    /// The avatar currently speaking (gets interest priority everywhere).
    speaker: Option<AvatarId>,
    /// Capture time of the newest state already sent per (client, entity) —
    /// unchanged states are not re-sent.
    sent_marks: BTreeMap<(AvatarId, AvatarId), SimTime>,
    /// Which node fed each avatar's inbound stream (for health attribution).
    sources: BTreeMap<AvatarId, NodeId>,
    /// Join admission gate for remote clients.
    admission: AdmissionController,
    /// Clients already hinted to re-join this tick (rate-limits the hint).
    rejoin_hinted: std::collections::BTreeSet<AvatarId>,
    /// Flyweight client pools served by this cloud: pool id → entry.
    pools: BTreeMap<u32, PoolEntry>,
    /// Virtual-room membership of every seated avatar (room 0 = auditorium).
    rooms: BTreeMap<AvatarId, u32>,
    /// Avatars per virtual room (exact census; empty rooms are dropped).
    room_counts: BTreeMap<u32, u64>,
}

/// The cloud's view of one flyweight client pool.
struct PoolEntry {
    /// The pool's node.
    node: NodeId,
    /// Pooled clients currently admitted (token-bucket accounted).
    active: u64,
}

impl CloudServerNode {
    /// Creates the cloud server. `clients` maps each remote avatar to its
    /// client node; `edges` are the physical classrooms' edge servers;
    /// `capacity` sizes the virtual auditorium.
    pub fn new(
        cfg: ServerConfig,
        fanout: FanoutConfig,
        clients: BTreeMap<AvatarId, NodeId>,
        edges: Vec<NodeId>,
        capacity: u32,
    ) -> Self {
        let budget = cfg.overload.egress_budget_per_tick.max(1);
        CloudServerNode {
            interest: InterestManager::new(fanout.interest),
            sync: PeerSync::new(cfg, &METRICS, edges, budget),
            cfg,
            fanout,
            clients,
            receivers: BTreeMap::new(),
            dead_reckoners: BTreeMap::new(),
            latest: BTreeMap::new(),
            seats: SeatAllocator::new(ClassroomLayout::auditorium(capacity)),
            speaker: None,
            sent_marks: BTreeMap::new(),
            sources: BTreeMap::new(),
            admission: AdmissionController::new(cfg.overload.admission, SimTime::ZERO),
            rejoin_hinted: std::collections::BTreeSet::new(),
            pools: BTreeMap::new(),
            rooms: BTreeMap::new(),
            room_counts: BTreeMap::new(),
        }
    }

    /// Registers the flyweight client pools this cloud serves, as
    /// `(pool id, pool node)` pairs. Call after `add_node`, like
    /// [`CloudServerNode::set_speaker`].
    pub fn set_pools(&mut self, pools: Vec<(u32, NodeId)>) {
        self.pools =
            pools.into_iter().map(|(id, node)| (id, PoolEntry { node, active: 0 })).collect();
    }

    /// Pooled clients currently admitted, summed over every pool.
    pub fn pooled_active(&self) -> u64 {
        self.pools.values().map(|p| p.active).sum()
    }

    /// The join admission gate (for tests and invariant oracles).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The seat allocator (for tests and invariant oracles).
    pub fn seats(&self) -> &SeatAllocator {
        &self.seats
    }

    /// The virtual room `avatar` currently occupies, if seated.
    pub fn room_of(&self, avatar: AvatarId) -> Option<u32> {
        self.rooms.get(&avatar).copied()
    }

    /// Exact per-room avatar census (empty rooms omitted).
    pub fn room_census(&self) -> &BTreeMap<u32, u64> {
        &self.room_counts
    }

    /// Checks the room-accounting invariant: per-room counts sum to the
    /// number of tracked avatars, every tracked avatar holds exactly one
    /// seat, and the allocator itself is consistent.
    pub fn rooms_are_consistent(&self) -> bool {
        let census_total: u64 = self.room_counts.values().sum();
        let counts_match = census_total == self.rooms.len() as u64;
        let all_seated = self.rooms.keys().all(|&a| self.seats.anchor_of(a).is_some());
        let no_empty_rooms = self.room_counts.values().all(|&c| c > 0);
        counts_match && all_seated && no_empty_rooms && self.seats.is_consistent()
    }

    /// The load-shedding ladder (for tests and invariant oracles).
    pub fn shedder(&self) -> &LoadShedder {
        self.sync.shedder()
    }

    /// Every bounded queue this server owns, as `(name, max depth ever,
    /// capacity)` — invariant oracles assert depth never exceeds capacity.
    pub fn overload_queues(&self) -> Vec<(String, usize, usize)> {
        let log = self.sync.interaction_log();
        let mut out = vec![
            ("cloud.interaction_log".to_string(), log.max_depth(), log.capacity()),
            (
                "cloud.admission_waiting".to_string(),
                self.admission.waiting_max_depth(),
                self.admission.waiting_capacity(),
            ),
        ];
        for (client, backlog) in self.sync.backlog() {
            out.push((
                format!("cloud.fanout_backlog[{}]", client.0),
                backlog.max_depth(),
                backlog.capacity(),
            ));
        }
        out
    }

    /// How `avatar` should currently be presented, given the health of the
    /// node its stream arrives from. Client-fed avatars are always `Live`
    /// (client loss is handled by the jitter buffers, not the detector).
    pub fn presentation_of(&self, avatar: AvatarId, now: SimTime) -> RemoteAvatarPresentation {
        self.sync.presentation(self.sources.get(&avatar).copied(), now)
    }

    /// Declares `avatar` the active speaker (or clears with `None`).
    pub fn set_speaker(&mut self, avatar: Option<AvatarId>) {
        self.speaker = avatar;
    }

    /// Number of avatars present in the virtual classroom.
    pub fn population(&self) -> usize {
        self.latest.len()
    }

    /// Every interaction event observed in the VR classroom (the retained
    /// bounded window, oldest first).
    pub fn interaction_log(&self) -> Vec<(AvatarId, InteractionEvent)> {
        self.sync.interaction_log().iter().cloned().collect()
    }

    /// Whether `avatar` is a rostered client the admission gate has not
    /// (or no longer — e.g. after a crash-restart that wiped the admission
    /// set) admitted.
    fn unadmitted(&self, avatar: AvatarId) -> bool {
        self.clients.contains_key(&avatar) && !self.admission.is_admitted(avatar.0 as u64)
    }

    /// Drops unadmitted traffic, counting it under `metric`, and sends
    /// `hint` (a re-join prompt) to `to` at most once per fan-out tick per
    /// `key`.
    fn drop_unadmitted(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        metric: &str,
        key: AvatarId,
        to: NodeId,
        hint: ClassMsg,
    ) {
        ctx.metrics().inc(metric);
        if self.rejoin_hinted.insert(key) {
            ctx.metrics().inc("overload.rejoin_hints");
            let size = hint.wire_bytes();
            ctx.send(to, hint, size);
        }
    }

    fn importance_of(&self, avatar: AvatarId) -> f64 {
        if self.speaker == Some(avatar) {
            1.0
        } else {
            0.0
        }
    }

    /// Ingests a decoded avatar state arriving from `from` with `anchor` as
    /// its home frame, retargeting it into the auditorium.
    #[allow(clippy::too_many_arguments)]
    fn place_avatar(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        avatar: AvatarId,
        state: AvatarState,
        anchor: AnchorFrame,
        captured_at: SimTime,
        forward_to_edges: bool,
        from: NodeId,
    ) {
        let seat = match self.seats.assign(avatar) {
            Ok(_) => {
                // A freshly seated avatar starts in the auditorium (room 0)
                // until it announces a move.
                if let std::collections::btree_map::Entry::Vacant(e) = self.rooms.entry(avatar) {
                    e.insert(0);
                    *self.room_counts.entry(0).or_insert(0) += 1;
                }
                *self.seats.anchor_of(avatar).expect("just assigned")
            }
            Err(_) => {
                ctx.metrics().inc("cloud.seat_rejects");
                return;
            }
        };
        let (vr_state, _) = retarget(&state, &anchor, &seat);
        self.latest.insert(avatar, (vr_state, captured_at));
        let importance = self.importance_of(avatar);
        self.interest.update_entity(avatar, vr_state.head.position, importance);

        if forward_to_edges {
            // Re-encode toward each physical classroom so their students see
            // the remote participant; its home frame is now the VR seat.
            let dr = self
                .dead_reckoners
                .entry(avatar)
                .or_insert_with(|| DeadReckoningSender::new(self.cfg.dead_reckoning));
            let now = ctx.now();
            if !dr.should_send(now, &vr_state) {
                dr.mark_suppressed();
                return;
            }
            dr.mark_sent(now, vr_state);
            for peer in self.sync.peers().to_vec() {
                if peer == from {
                    continue;
                }
                if self.sync.skips(peer) {
                    ctx.metrics().inc("cloud.forwards_skipped_unhealthy_edge");
                    continue;
                }
                ctx.metrics().inc("cloud.forwards_to_edges");
                self.sync.send_update(ctx, peer, avatar, &vr_state, captured_at, seat);
            }
        }
    }

    /// One budgeted, interest-managed fan-out pass at shed `level`; returns
    /// the number of fresh updates *demanded* this tick (sent or deferred),
    /// the shedder's pressure signal.
    fn fan_out(&mut self, ctx: &mut Context<'_, ClassMsg>, level: ShedLevel) -> usize {
        let mut clients: Vec<(AvatarId, NodeId)> = self
            .clients
            .iter()
            .filter(|(a, _)| self.admission.is_admitted(a.0 as u64))
            .map(|(a, n)| (*a, *n))
            .collect();
        let any_pooled = self.pools.values().any(|p| p.active > 0);
        if clients.is_empty() && !any_pooled {
            return 0;
        }
        // Fairness under budget exhaustion: rotate the service order so the
        // budget does not starve the same tail of clients every tick.
        if !clients.is_empty() {
            let offset = (self.sync.tick_count() as usize) % clients.len();
            clients.rotate_left(offset);
        }
        let budget_total = self.cfg.overload.egress_budget_per_tick.max(1);
        let mut sent_this_tick = 0usize;
        let mut demand = 0usize;
        for (client_avatar, client_node) in clients {
            let viewpoint = match self.latest.get(&client_avatar) {
                Some((st, _)) => {
                    Viewpoint { position: st.head.position, yaw: st.head.orientation.yaw() }
                }
                None => continue, // client has not joined with a pose yet
            };
            // Refreshes deferred by an earlier budget crunch go first, then
            // this tick's interest selection.
            let mut wanted: Vec<AvatarId> = Vec::new();
            while let Some(avatar) = self.sync.pop_deferred(&client_avatar) {
                wanted.push(avatar);
            }
            let sub = SubscriberId(client_avatar.0);
            let budget = self.fanout.budget_per_client + 1; // self may be selected
            let selected = match level.min_importance() {
                Some(min) => self.interest.select_with_min_importance(sub, viewpoint, budget, min),
                None => self.interest.select(sub, viewpoint, budget),
            };
            wanted.extend(selected);
            let mut considered: Vec<AvatarId> = Vec::new();
            for avatar in wanted {
                if avatar == client_avatar || considered.contains(&avatar) {
                    continue;
                }
                considered.push(avatar);
                if let Some((state, captured_at)) = self.latest.get(&avatar) {
                    // Skip states the client already has.
                    let mark =
                        self.sent_marks.entry((client_avatar, avatar)).or_insert(SimTime::ZERO);
                    if *captured_at <= *mark {
                        continue;
                    }
                    demand += 1;
                    if sent_this_tick >= budget_total {
                        // Egress budget exhausted: defer the refresh.
                        self.sync.defer(ctx, client_avatar, avatar);
                        continue;
                    }
                    *mark = *captured_at;
                    sent_this_tick += 1;
                    let msg = ClassMsg::DisplayUpdate {
                        avatar,
                        state: *state,
                        captured_at: *captured_at,
                    };
                    let size = msg.wire_bytes();
                    ctx.metrics().inc("cloud.fanout_updates");
                    ctx.metrics().add("cloud.fanout_bytes", size as u64);
                    ctx.send(client_node, msg, size);
                }
            }
        }
        // Pooled audiences: one interest selection per pool (its
        // representative viewpoint), one batched message per tick. Each
        // representative update counts once against the egress budget and
        // the demand signal — the replication to the pool's members happens
        // at the regional distribution layer, whose cost the batch's
        // member-weighted wire size charges to the pool's scaled link.
        let pool_ids: Vec<u32> = self.pools.keys().copied().collect();
        for pool in pool_ids {
            let (pool_node, active) = {
                let entry = &self.pools[&pool];
                (entry.node, entry.active)
            };
            if active == 0 {
                continue;
            }
            let rep = pool_avatar(pool);
            let viewpoint = match self.latest.get(&rep) {
                Some((st, _)) => {
                    Viewpoint { position: st.head.position, yaw: st.head.orientation.yaw() }
                }
                None => continue, // pool has not uploaded a pose yet
            };
            let sub = SubscriberId(rep.0);
            let budget = self.fanout.budget_per_client + 1;
            let selected = match level.min_importance() {
                Some(min) => self.interest.select_with_min_importance(sub, viewpoint, budget, min),
                None => self.interest.select(sub, viewpoint, budget),
            };
            let mut captured: Vec<SimTime> = Vec::new();
            for avatar in selected {
                if avatar == rep {
                    continue;
                }
                if let Some((_, captured_at)) = self.latest.get(&avatar) {
                    let mark = self.sent_marks.entry((rep, avatar)).or_insert(SimTime::ZERO);
                    if *captured_at <= *mark {
                        continue;
                    }
                    demand += 1;
                    if sent_this_tick >= budget_total {
                        // Over budget: leave the mark alone so interest
                        // selection re-picks the still-stale pair next tick
                        // (pools carry no backlog queue).
                        ctx.metrics().inc("overload.fanout_deferred");
                        continue;
                    }
                    *mark = *captured_at;
                    sent_this_tick += 1;
                    captured.push(*captured_at);
                }
            }
            if !captured.is_empty() {
                let updates = captured.len() as u64;
                let msg = ClassMsg::PoolDisplay { pool, members: active, captured };
                let size = msg.wire_bytes();
                ctx.metrics().add("cloud.fanout_updates", updates.saturating_mul(active));
                ctx.metrics().add("cloud.fanout_bytes", size as u64);
                ctx.send(pool_node, msg, size);
            }
        }
        demand
    }
}

impl Node<ClassMsg> for CloudServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(self.cfg.tick, TAG_FANOUT);
        self.sync.start(ctx, TAG_HEARTBEAT);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        if timer.tag == TAG_HEARTBEAT {
            self.sync.heartbeat(ctx, TAG_HEARTBEAT);
            return;
        }
        if timer.tag == TAG_FANOUT {
            let level = self.sync.begin_tick(ctx);
            self.rejoin_hinted.clear();
            // Admit parked joiners as admission tokens refill.
            for key in self.admission.poll(ctx.now()) {
                let avatar = AvatarId(key as u32);
                if let Some(&node) = self.clients.get(&avatar) {
                    ctx.metrics().inc("overload.joins_admitted");
                    let msg = ClassMsg::JoinAccepted { avatar };
                    let size = msg.wire_bytes();
                    ctx.send(node, msg, size);
                }
            }
            let demand = level.map_or(0, |level| self.fan_out(ctx, level));
            self.sync.end_tick(ctx, demand);
            ctx.set_timer(self.cfg.tick, TAG_FANOUT);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId, msg: ClassMsg) {
        self.sync.on_heard(ctx, from);
        match msg {
            ClassMsg::JoinRequest { avatar, .. } => {
                let now = ctx.now();
                let reply = if self.clients.contains_key(&avatar) {
                    match self.admission.request(avatar.0 as u64, now) {
                        AdmissionOutcome::Admitted => {
                            ctx.metrics().inc("overload.joins_admitted");
                            ClassMsg::JoinAccepted { avatar }
                        }
                        AdmissionOutcome::Deferred { position, retry_after } => {
                            ctx.metrics().inc("overload.joins_deferred");
                            ClassMsg::JoinDeferred {
                                avatar,
                                retry_after,
                                position: position as u32,
                            }
                        }
                        AdmissionOutcome::Rejected => {
                            ctx.metrics().inc("overload.joins_rejected");
                            ClassMsg::JoinRejected { avatar }
                        }
                    }
                } else {
                    // Not in the deployment roster: never admissible.
                    ctx.metrics().inc("overload.joins_unknown");
                    ClassMsg::JoinRejected { avatar }
                };
                let size = reply.wire_bytes();
                ctx.send(from, reply, size);
            }
            ClassMsg::ClientPose { avatar, frame, captured_at } => {
                if self.unadmitted(avatar) {
                    let hint = ClassMsg::JoinRejected { avatar };
                    let metric = "overload.unadmitted_poses_dropped";
                    self.drop_unadmitted(ctx, metric, avatar, from, hint);
                    return;
                }
                self.handle_stream(ctx, from, avatar, frame, captured_at, StreamSource::Client);
            }
            ClassMsg::AvatarUpdate { avatar, frame, captured_at, anchor } => {
                let source = StreamSource::Edge(anchor);
                self.handle_stream(ctx, from, avatar, frame, captured_at, source);
            }
            ClassMsg::Interaction { avatar, seq, event, captured_at } => {
                if self.unadmitted(avatar) {
                    let hint = ClassMsg::JoinRejected { avatar };
                    let metric = "overload.unadmitted_interactions_dropped";
                    self.drop_unadmitted(ctx, metric, avatar, from, hint);
                    return;
                }
                // Client-originated events are relayed onward to the
                // physical classrooms; edge-originated ones were already
                // fanned out by their home edge.
                let relay = self.clients.contains_key(&avatar);
                self.sync.on_interaction(ctx, from, avatar, seq, event, captured_at, relay);
            }
            ClassMsg::PoolJoin { pool, count, .. } => {
                let now = ctx.now();
                if !self.pools.contains_key(&pool) {
                    ctx.metrics().inc("overload.pool_joins_unknown");
                    return;
                }
                // Exact aggregate admission: one real token per pooled
                // client, individually parked joiners keep priority, and the
                // un-admitted remainder stays the pool's problem (it is its
                // own regional waiting room).
                let (admitted, retry_after) = self.admission.admit_up_to(count, now);
                if let Some(entry) = self.pools.get_mut(&pool) {
                    entry.active += admitted;
                }
                ctx.metrics().add("overload.pool_joins_admitted", admitted);
                let waiting = count - admitted;
                if waiting > 0 {
                    ctx.metrics().add("overload.pool_joins_deferred", waiting);
                }
                let reply = ClassMsg::PoolJoinReply { pool, admitted, waiting, retry_after };
                let size = reply.wire_bytes();
                ctx.send(from, reply, size);
            }
            ClassMsg::PoolPose { pool, count, frame, captured_at } => {
                let Some(entry) = self.pools.get(&pool) else {
                    return;
                };
                let (pool_node, active) = (entry.node, entry.active);
                let rep = pool_avatar(pool);
                if active == 0 {
                    // The pool believes its members are admitted; we do not
                    // (crash-restart wiped the counts). Hint a full re-join.
                    let hint = ClassMsg::PoolEvict { pool };
                    let metric = "overload.unadmitted_pool_poses_dropped";
                    self.drop_unadmitted(ctx, metric, rep, pool_node, hint);
                    return;
                }
                // The pose's member count is authoritative: the pool owns
                // its roster, and this reconciles any drift from join
                // retransmissions whose first delivery we admitted but
                // whose reply was lost en route.
                if count != active {
                    ctx.metrics().inc("overload.pool_count_reconciled");
                    self.pools.get_mut(&pool).expect("entry exists").active = count;
                }
                let source = StreamSource::Pool { members: count };
                self.handle_stream(ctx, from, rep, frame, captured_at, source);
            }
            ClassMsg::PoolLeave { pool, count } => {
                if let Some(entry) = self.pools.get_mut(&pool) {
                    entry.active = entry.active.saturating_sub(count);
                    ctx.metrics().add("overload.pool_leaves", count);
                }
            }
            ClassMsg::RoomChange { avatar, room } => {
                if !self.clients.contains_key(&avatar)
                    || !self.admission.is_admitted(avatar.0 as u64)
                {
                    ctx.metrics().inc("cloud.room_moves_ignored");
                    return;
                }
                let old = self.rooms.insert(avatar, room).unwrap_or(0);
                if let Some(c) = self.room_counts.get_mut(&old) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.room_counts.remove(&old);
                    }
                }
                *self.room_counts.entry(room).or_insert(0) += 1;
                // Reseat into the new room's seating block. The release
                // guarantees at least one vacancy, so the circular scan in
                // `assign_from` cannot fail.
                self.seats.release(avatar);
                let start = room as usize * ROOM_SEAT_STRIDE;
                if self.seats.assign_from(avatar, start).is_err() {
                    ctx.metrics().inc("cloud.seat_rejects");
                }
                ctx.metrics().inc("cloud.room_moves");
            }
            other => self.sync.on_message(ctx, from, other),
        }
    }

    fn on_crash(&mut self) {
        // A crashed cloud loses all volatile session state; the deployment
        // configuration (clients, edges, capacity) survives.
        let capacity = self.seats.layout().capacity() as u32;
        self.sync.reset();
        self.receivers.clear();
        self.dead_reckoners.clear();
        self.latest.clear();
        self.seats = SeatAllocator::new(ClassroomLayout::auditorium(capacity));
        self.interest = InterestManager::new(self.fanout.interest);
        self.sent_marks.clear();
        self.sources.clear();
        // The admission set is volatile: restarted clouds re-admit returning
        // clients (whose un-admitted traffic triggers a re-join hint).
        self.admission.reset(SimTime::ZERO);
        self.rejoin_hinted.clear();
        // Pool membership counts are volatile too: the next PoolPose from a
        // pool we no longer recognize triggers a PoolEvict re-join hint.
        for entry in self.pools.values_mut() {
            entry.active = 0;
        }
        // Room membership follows the seats it annotates.
        self.rooms.clear();
        self.room_counts.clear();
    }
}

impl CloudServerNode {
    /// Decodes one inbound avatar frame from `from` (acking it, or asking
    /// for a keyframe) and places the decoded state in the auditorium.
    fn handle_stream(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        frame: PoseFrame,
        captured_at: SimTime,
        source: StreamSource,
    ) {
        let receiver = self
            .receivers
            .entry(avatar)
            .or_insert_with(|| SnapshotReceiver::new(AvatarCodec::new(self.cfg.codec)));
        let Some(state) = self.sync.receive(ctx, from, avatar, receiver, &frame) else {
            return;
        };
        self.sources.insert(avatar, from);
        let home = AnchorFrame::seat(Default::default());
        let (anchor, members, forward) = match source {
            StreamSource::Client => (home, 1, true),
            StreamSource::Edge(anchor) => (anchor, 1, false),
            StreamSource::Pool { members } => (home, members, false),
        };
        let inbound = ctx.now().duration_since(captured_at);
        ctx.metrics().histogram("cloud.inbound_latency_ns").record_n(inbound.as_nanos(), members);
        self.place_avatar(ctx, avatar, state, anchor, captured_at, forward, from);
    }
}

/// Where an inbound avatar stream comes from.
enum StreamSource {
    /// A remote client, streaming in its own home frame (origin anchor);
    /// the cloud forwards it to the physical classrooms.
    Client,
    /// An edge server, supplying the avatar's classroom anchor.
    Edge(AnchorFrame),
    /// A pool's representative, standing for `members` pooled clients:
    /// latency-accounted for each of them, and not forwarded to the edges
    /// (physical classrooms render the crowd as one token).
    Pool {
        /// Pooled clients the pose stands for.
        members: u64,
    },
}
