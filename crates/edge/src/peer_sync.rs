//! The server-to-server replication protocol of the edge and cloud servers.
//!
//! §3.2 joins the classroom edge servers and the cloud server with one
//! "real-time transmission link". Both ends of that link run the same
//! protocol, kept here once; [`CloudServerNode`] and [`EdgeServerNode`] each
//! own one [`PeerSync`] and keep only the logic of their own role:
//!
//! - heartbeats and [`PeerHealth`] failure detection, with a full resync of
//!   a peer that returns from an outage;
//! - snapshot streams: outbound toward each peer, with its acks and
//!   keyframe requests, and the ack/keyframe-request side of inbound ones;
//! - reliable interaction streams: receive, ack, relay, log, retransmit;
//! - clock replies;
//! - the shed tick, which feeds egress pressure to the [`LoadShedder`].
//!
//! The roles differ only in data passed in: a [`SyncMetrics`] name table,
//! the utilization budget, and which interaction avatars are relayed.
//!
//! [`CloudServerNode`]: crate::CloudServerNode
//! [`EdgeServerNode`]: crate::EdgeServerNode

use std::collections::BTreeMap;

use metaclass_avatar::{AnchorFrame, AvatarCodec, AvatarId, AvatarState};
use metaclass_netsim::{Context, NodeId, SimDuration, SimTime};
use metaclass_sync::{
    BoundedQueue, InteractionEvent, OverflowPolicy, PoseFrame, ReliableReceiver, ReliableSender,
    SnapshotReceiver, SnapshotSender,
};

use crate::edge_server::ServerConfig;
use crate::health::{PeerEvent, PeerHealth, RemoteAvatarPresentation};
use crate::messages::ClassMsg;
use crate::overload::{LoadShedder, ShedLevel};

/// Retransmission timeout for relayed interaction streams.
const INTERACTION_RTO: SimDuration = SimDuration::from_millis(150);

/// The metric names a server role records the shared protocol under.
pub(crate) struct SyncMetrics {
    /// A down peer was heard again and resynced.
    pub returns: &'static str,
    /// A peer turned degraded.
    pub degraded: &'static str,
    /// A peer went down.
    pub down: &'static str,
    /// An interaction event was delivered in order.
    pub delivered: &'static str,
    /// An inbound snapshot frame failed to decode.
    pub decode_errors: &'static str,
    /// A keyframe was requested for an undecodable delta, if counted.
    pub keyframe_requests: Option<&'static str>,
    /// A replication tick the shed ladder skipped.
    pub ticks_shed: &'static str,
    /// A refresh was deferred past the egress budget.
    pub deferred: &'static str,
    /// Histogram of interaction delivery latency, if the role records one.
    pub interaction_latency: Option<&'static str>,
}

/// One server's end of the server-to-server link.
///
/// `K` keys the egress backlog: whom each deferred refresh is owed to.
pub(crate) struct PeerSync<K> {
    cfg: ServerConfig,
    metrics: &'static SyncMetrics,
    /// Peer servers, in heartbeat and relay order.
    peers: Vec<NodeId>,
    /// Failure detector per peer.
    health: BTreeMap<NodeId, PeerHealth>,
    /// Outbound snapshot streams, per (peer, avatar).
    senders: BTreeMap<(NodeId, AvatarId), SnapshotSender>,
    /// Inbound reliable interaction streams, one per avatar.
    interaction_rx: BTreeMap<AvatarId, ReliableReceiver<InteractionEvent>>,
    /// Outbound interaction relays, per (peer, avatar).
    interaction_tx: BTreeMap<(NodeId, AvatarId), ReliableSender<InteractionEvent>>,
    /// Every interaction delivered here, in order (bounded, drop-new: under
    /// overload old evidence beats new noise).
    interaction_log: BoundedQueue<(AvatarId, InteractionEvent)>,
    /// Replication tick counter (drives degraded-stride and shed cadence).
    tick_count: u64,
    /// Fidelity ladder driven by egress pressure.
    shedder: LoadShedder,
    /// Demand per tick that counts as full utilization.
    utilization_budget: usize,
    /// Refreshes deferred past the egress budget (drop-oldest: a newer
    /// refresh supersedes a stale one).
    backlog: BTreeMap<K, BoundedQueue<AvatarId>>,
}

impl<K: Ord> PeerSync<K> {
    /// Creates the protocol state toward `peers`, recording under `metrics`;
    /// a tick demanding `utilization_budget` sends runs at utilization 1.
    pub fn new(
        cfg: ServerConfig,
        metrics: &'static SyncMetrics,
        peers: Vec<NodeId>,
        utilization_budget: usize,
    ) -> Self {
        let health =
            peers.iter().map(|&p| (p, PeerHealth::new(cfg.heartbeat, SimTime::ZERO))).collect();
        PeerSync {
            metrics,
            peers,
            health,
            senders: BTreeMap::new(),
            interaction_rx: BTreeMap::new(),
            interaction_tx: BTreeMap::new(),
            interaction_log: BoundedQueue::new(
                cfg.overload.interaction_log_capacity,
                OverflowPolicy::DropNewest,
            ),
            tick_count: 0,
            shedder: LoadShedder::new(cfg.overload.shed),
            utilization_budget,
            backlog: BTreeMap::new(),
            cfg,
        }
    }

    /// Peer servers, in heartbeat and relay order.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// The failure detector tracking `peer`, if it is one of ours.
    pub fn health(&self, peer: NodeId) -> Option<&PeerHealth> {
        self.health.get(&peer)
    }

    /// How an avatar streamed from `source` should be presented at `now`.
    /// Avatars from non-peers are always `Live`.
    pub fn presentation(&self, source: Option<NodeId>, now: SimTime) -> RemoteAvatarPresentation {
        source
            .and_then(|s| self.health.get(&s))
            .map_or(RemoteAvatarPresentation::Live, |h| h.presentation(now))
    }

    /// Whether replication skips `peer` on this tick (down, or degraded
    /// and off-stride).
    pub fn skips(&self, peer: NodeId) -> bool {
        self.health.get(&peer).is_some_and(|h| h.should_skip_send(self.tick_count))
    }

    /// Replication ticks run so far.
    pub fn tick_count(&self) -> u64 {
        self.tick_count
    }

    /// The load-shedding ladder.
    pub fn shedder(&self) -> &LoadShedder {
        &self.shedder
    }

    /// The bounded interaction log.
    pub fn interaction_log(&self) -> &BoundedQueue<(AvatarId, InteractionEvent)> {
        &self.interaction_log
    }

    /// The egress backlog queues, by key.
    pub fn backlog(&self) -> &BTreeMap<K, BoundedQueue<AvatarId>> {
        &self.backlog
    }

    /// Arms the first heartbeat (timer `tag`), if there is any peer.
    pub fn start(&self, ctx: &mut Context<'_, ClassMsg>, tag: u64) {
        if !self.peers.is_empty() {
            ctx.set_timer(self.cfg.heartbeat.interval, tag);
        }
    }

    /// Beacons every peer and re-arms the heartbeat timer `tag`.
    pub fn heartbeat(&self, ctx: &mut Context<'_, ClassMsg>, tag: u64) {
        let now = ctx.now();
        for &peer in &self.peers {
            let msg = ClassMsg::Heartbeat { sent_at: now };
            let size = msg.wire_bytes();
            ctx.send(peer, msg, size);
        }
        ctx.set_timer(self.cfg.heartbeat.interval, tag);
    }

    /// Counts any traffic from a peer as liveness, resyncing a peer that
    /// returns from an outage. Call first for every inbound message.
    pub fn on_heard(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId) {
        if let Some(health) = self.health.get_mut(&from) {
            if health.on_heard(ctx.now()) == Some(PeerEvent::Returned) {
                self.resync(ctx, from);
            }
        }
    }

    /// Full resynchronization of a peer that returned from an outage: the
    /// restarted peer lost its receive state, so every snapshot stream
    /// toward it restarts from a keyframe and its reliable interaction
    /// streams are rebuilt carrying the outstanding tail.
    fn resync(&mut self, ctx: &mut Context<'_, ClassMsg>, peer: NodeId) {
        ctx.metrics().inc(self.metrics.returns);
        for ((p, _), sender) in self.senders.iter_mut() {
            if *p == peer {
                sender.request_keyframe();
            }
        }
        let now = ctx.now();
        for ((p, avatar), tx) in self.interaction_tx.iter_mut() {
            if *p != peer {
                continue;
            }
            let mut fresh = ReliableSender::new(INTERACTION_RTO);
            for ev in tx.take_outstanding() {
                let (seq, wire) = fresh.send(ev, now);
                if let Some(event) = wire {
                    let msg =
                        ClassMsg::Interaction { avatar: *avatar, seq, event, captured_at: now };
                    let size = msg.wire_bytes();
                    ctx.send(peer, msg, size);
                }
            }
            *tx = fresh;
        }
    }

    /// Handles the protocol messages both roles answer alike: snapshot
    /// acks and keyframe requests, clock probes, and interaction acks.
    /// Heartbeats (already counted by [`PeerSync::on_heard`]) and anything
    /// else are ignored.
    pub fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, from: NodeId, msg: ClassMsg) {
        match msg {
            ClassMsg::AvatarAck { avatar, seq } => {
                if let Some(sender) = self.senders.get_mut(&(from, avatar)) {
                    sender.on_ack(seq);
                }
            }
            ClassMsg::KeyframeRequest { avatar } => {
                if let Some(sender) = self.senders.get_mut(&(from, avatar)) {
                    sender.request_keyframe();
                }
            }
            ClassMsg::ClockProbe { nonce, client_send } => {
                let reply = ClassMsg::ClockReply { nonce, client_send, server_time: ctx.now() };
                let size = reply.wire_bytes();
                ctx.send(from, reply, size);
            }
            ClassMsg::InteractionAck { avatar, seq } => {
                if let Some(tx) = self.interaction_tx.get_mut(&(from, avatar)) {
                    tx.on_ack_at(seq, ctx.now());
                }
            }
            _ => {}
        }
    }

    /// Receives one reliable interaction packet from `from`: acks it,
    /// delivers whatever is now in order to the log and, if `relay`, relays
    /// each delivered event to every peer but `from`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_interaction(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        seq: u64,
        event: InteractionEvent,
        captured_at: SimTime,
        relay: bool,
    ) {
        let rx = self.interaction_rx.entry(avatar).or_default();
        let ready = rx.on_packet(seq, event);
        if let Some(ack) = rx.cumulative_ack() {
            let msg = ClassMsg::InteractionAck { avatar, seq: ack };
            let size = msg.wire_bytes();
            ctx.send(from, msg, size);
        }
        let now = ctx.now();
        for ev in ready {
            ctx.metrics().inc(self.metrics.delivered);
            if let Some(name) = self.metrics.interaction_latency {
                ctx.metrics().histogram(name).record(now.duration_since(captured_at).as_nanos());
            }
            if relay {
                for &peer in &self.peers {
                    if peer == from {
                        continue;
                    }
                    let tx = self
                        .interaction_tx
                        .entry((peer, avatar))
                        .or_insert_with(|| ReliableSender::new(INTERACTION_RTO));
                    let (relay_seq, relay_ev) = tx.send(ev.clone(), now);
                    if let Some(event) = relay_ev {
                        let msg =
                            ClassMsg::Interaction { avatar, seq: relay_seq, event, captured_at };
                        let size = msg.wire_bytes();
                        ctx.send(peer, msg, size);
                    }
                }
            }
            if self.interaction_log.push((avatar, ev)).is_some() {
                ctx.metrics().inc("overload.interaction_log_dropped");
            }
        }
    }

    /// Encodes `state` on the snapshot stream toward `peer` (opened on
    /// demand) and sends it as an [`ClassMsg::AvatarUpdate`]; returns the
    /// wire size.
    pub fn send_update(
        &mut self,
        ctx: &mut Context<'_, ClassMsg>,
        peer: NodeId,
        avatar: AvatarId,
        state: &AvatarState,
        captured_at: SimTime,
        anchor: AnchorFrame,
    ) -> u32 {
        let cfg = &self.cfg;
        let sender = self.senders.entry((peer, avatar)).or_insert_with(|| {
            SnapshotSender::new(AvatarCodec::new(cfg.codec), cfg.keyframe_interval)
        });
        let frame = sender.encode(state);
        let msg = ClassMsg::AvatarUpdate { avatar, frame, captured_at, anchor };
        let size = msg.wire_bytes();
        ctx.send(peer, msg, size);
        size
    }

    /// Decodes one inbound snapshot frame of `avatar` from `from`: acks a
    /// decoded frame, or asks `from` for a keyframe when a delta cannot be
    /// applied. Returns the decoded state.
    pub fn receive(
        &self,
        ctx: &mut Context<'_, ClassMsg>,
        from: NodeId,
        avatar: AvatarId,
        receiver: &mut SnapshotReceiver,
        frame: &PoseFrame,
    ) -> Option<AvatarState> {
        match receiver.decode(frame) {
            Err(_) => {
                ctx.metrics().inc(self.metrics.decode_errors);
                None
            }
            Ok(None) => {
                if receiver.take_keyframe_request() {
                    let msg = ClassMsg::KeyframeRequest { avatar };
                    let size = msg.wire_bytes();
                    ctx.send(from, msg, size);
                    if let Some(name) = self.metrics.keyframe_requests {
                        ctx.metrics().inc(name);
                    }
                }
                None
            }
            Ok(Some(state)) => {
                if let Some(seq) = receiver.ack_seq() {
                    let ack = ClassMsg::AvatarAck { avatar, seq };
                    let size = ack.wire_bytes();
                    ctx.send(from, ack, size);
                }
                Some(state)
            }
        }
    }

    /// Defers a refresh of `avatar` owed to `key` past this tick's egress
    /// budget. Kept out of line: inlined into the cloud's per-client
    /// fan-out loop it cost 5–10% of host time on a 200-client fan-out.
    #[cold]
    #[inline(never)]
    pub fn defer(&mut self, ctx: &mut Context<'_, ClassMsg>, key: K, avatar: AvatarId) {
        let capacity = self.cfg.overload.backlog_capacity;
        let backlog = self
            .backlog
            .entry(key)
            .or_insert_with(|| BoundedQueue::new(capacity, OverflowPolicy::DropOldest));
        if backlog.push(avatar).is_some() {
            ctx.metrics().inc("overload.backlog_dropped");
        }
        ctx.metrics().inc(self.metrics.deferred);
    }

    /// Takes the oldest refresh deferred for `key`.
    pub fn pop_deferred(&mut self, key: &K) -> Option<AvatarId> {
        self.backlog.get_mut(key)?.pop()
    }

    /// Opens a replication tick: counts it, polls every peer's liveness,
    /// and asks the shed ladder whether this tick sends. Returns the level
    /// to send at, or `None` on a shed tick.
    pub fn begin_tick(&mut self, ctx: &mut Context<'_, ClassMsg>) -> Option<ShedLevel> {
        self.tick_count += 1;
        let now = ctx.now();
        for health in self.health.values_mut() {
            match health.poll(now) {
                Some(PeerEvent::Degraded) => ctx.metrics().inc(self.metrics.degraded),
                Some(PeerEvent::Down) => ctx.metrics().inc(self.metrics.down),
                _ => {}
            }
        }
        let level = self.shedder.level();
        if level.sends_on_tick(self.tick_count) {
            return Some(level);
        }
        ctx.metrics().inc(self.metrics.ticks_shed);
        // A frozen spectator tick sends nothing, so deferred refreshes would
        // otherwise sit in the backlog forever, pinning the pressure signal
        // high and wedging the ladder at Spectator. Discarding them is safe:
        // they are only service-order hints, and each role's selection
        // (interest or dead reckoning) re-picks any still-stale refresh once
        // sending resumes.
        if level == ShedLevel::Spectator {
            let discarded: usize = self.backlog.values().map(|q| q.len()).sum();
            if discarded > 0 {
                for q in self.backlog.values_mut() {
                    q.clear();
                }
                ctx.metrics().add("overload.spectator_backlog_discarded", discarded as u64);
            }
        }
        None
    }

    /// Closes a replication tick that demanded `demand` sends: feeds the
    /// shed ladder, then pumps interaction retransmissions.
    pub fn end_tick(&mut self, ctx: &mut Context<'_, ClassMsg>, demand: usize) {
        let now = ctx.now();
        let utilization = self.utilization(demand);
        ctx.metrics().histogram("overload.utilization_milli").record((utilization * 1000.0) as u64);
        if let Some(t) = self.shedder.observe(now, utilization) {
            ctx.metrics().inc("overload.shed_transitions");
            ctx.metrics().add("overload.shed_level", t.to.rung() as u64);
        }
        for ((peer, avatar), tx) in self.interaction_tx.iter_mut() {
            for (seq, event) in tx.due_retransmits(now) {
                let msg = ClassMsg::Interaction { avatar: *avatar, seq, event, captured_at: now };
                let size = msg.wire_bytes();
                ctx.send(*peer, msg, size);
            }
        }
    }

    /// Smoothed-pressure input for the ladder: whichever is worse of this
    /// tick's demand-to-budget ratio and the backlog fill fraction.
    fn utilization(&self, demand: usize) -> f64 {
        let demand_ratio = demand as f64 / self.utilization_budget as f64;
        let backlog_len: usize = self.backlog.values().map(|q| q.len()).sum();
        let backlog_cap: usize = self.backlog.values().map(|q| q.capacity()).sum();
        let backlog_ratio =
            if backlog_cap == 0 { 0.0 } else { backlog_len as f64 / backlog_cap as f64 };
        demand_ratio.max(backlog_ratio)
    }

    /// Forgets all volatile state after the owning node crashes; the peer
    /// set survives.
    pub fn reset(&mut self) {
        self.senders.clear();
        self.interaction_rx.clear();
        self.interaction_tx.clear();
        self.interaction_log.clear();
        for health in self.health.values_mut() {
            health.reset();
        }
        self.tick_count = 0;
        self.shedder.reset();
        self.backlog.clear();
    }
}
