//! The discrete-event simulation engine.
//!
//! One serial executor processes events in a total order — `(SimTime, causal
//! stamp)` — so a run is a pure function of its configuration and seed.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use crate::fault::{FaultAction, FaultWindow};
use crate::link::{DropReason, Link, LinkConfig, LinkId, Transmit};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::node::{Context, Envelope, Node, NodeId, Op, Timer};
use crate::observe::{SimEvent, SimObserver, SimView};
use crate::rng::DetRng;
use crate::sched::{EventQueue, TimerWheel};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

// ---------------------------------------------------------------------------
// Causal event stamps.
//
// Events are keyed by `(SimTime, stamp)` where the 128-bit stamp packs
// `(depth: u16, origin: u32, counter: u64)`:
//
//   * `depth`   — same-instant causal depth: an event scheduled at the very
//     instant that is currently executing gets `current depth + 1`, an event
//     scheduled for a later instant gets 0. Within one instant, everything
//     already popped has a strictly smaller depth than anything a handler can
//     still push, so pop order equals stamp order.
//   * `origin`  — the node whose handler (or forwarding hop) scheduled the
//     event; two reserved origins order engine-scheduled events after all
//     node-scheduled ones at the same depth.
//   * `counter` — per-origin push counter.
//
// All three components are derivable from the scheduling node's own state,
// so the order never depends on how unrelated nodes interleave. The stamp is
// the tie-break every committed baseline was generated under; changing any
// component rewrites every trace fingerprint and BENCH document.
// ---------------------------------------------------------------------------

const INJECT_ORIGIN: u32 = u32::MAX;
const FAULT_ORIGIN: u32 = u32::MAX - 1;

fn pack_stamp(depth: u16, origin: u32, counter: u64) -> u128 {
    ((depth as u128) << 96) | ((origin as u128) << 64) | counter as u128
}

fn stamp_depth(stamp: u128) -> u16 {
    (stamp >> 96) as u16
}

/// Slab storage for in-flight [`Envelope`]s.
///
/// Queue entries reference envelopes by `u32` slab index instead of carrying
/// them inline, which keeps [`EventKind`] small, fixed-size, and independent
/// of the message type: the timer wheel moves 24-byte payloads around while
/// the (potentially fat) envelopes stay put. Freed slots are recycled LIFO,
/// so steady-state traffic performs no allocation once the slab has grown to
/// its high-water mark.
struct EnvSlab<M> {
    slots: Vec<Option<Envelope<M>>>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
}

impl<M> EnvSlab<M> {
    fn new() -> Self {
        EnvSlab { slots: Vec::new(), free: Vec::new(), live: 0, high_water: 0 }
    }

    fn insert(&mut self, env: Envelope<M>) -> u32 {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(env);
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Some(env));
                idx
            }
        }
    }

    fn take(&mut self, idx: u32) -> Envelope<M> {
        let env = self.slots[idx as usize].take().expect("envelope already taken");
        self.free.push(idx);
        self.live -= 1;
        env
    }

    fn get(&self, idx: u32) -> &Envelope<M> {
        self.slots[idx as usize].as_ref().expect("envelope already taken")
    }

    /// Highest number of envelopes ever live at once.
    fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Committed heap footprint of the slab's own storage in bytes.
    fn arena_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Option<Envelope<M>>>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

enum EventKind {
    /// Arrival of a message at `hop` (which may forward it further).
    Deliver {
        /// The node the message arrives at next.
        hop: NodeId,
        /// Slab index of the message in flight (see [`EnvSlab`]).
        env: u32,
    },
    /// A timer firing at `node`. Timers armed before a crash carry a stale
    /// `epoch` and are swallowed after restart.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Timer id minted by [`Context::set_timer`].
        id: u64,
        /// Caller-chosen tag.
        tag: u64,
        /// Node incarnation the timer was armed in.
        epoch: u64,
    },
    /// Execution of a scripted fault action (index into `fault_actions`).
    Fault {
        /// Index into the simulation's fault-action table.
        index: usize,
    },
}

/// A deterministic discrete-event simulation of nodes connected by links.
///
/// The engine owns all nodes, links, the event queue, per-node RNG streams,
/// and a metrics registry. Event order is total — (time, causal stamp) —
/// so a run is a pure function of configuration and seed.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{Context, LinkConfig, Node, NodeId, SimDuration, SimTime, Simulation};
///
/// struct Ping;
/// struct Pong(u32);
/// impl Node<u32> for Ping {
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.send(NodeId::from_index(1), 7, 64);
///     }
///     fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
/// }
/// impl Node<u32> for Pong {
///     fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, msg: u32) {
///         self.0 = msg;
///     }
/// }
///
/// let mut sim = Simulation::new(42);
/// let a = sim.add_node("ping", Ping);
/// let b = sim.add_node("pong", Pong(0));
/// sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(1)));
/// sim.run_until_idle();
/// assert_eq!(sim.node_as::<Pong>(b).unwrap().0, 7);
/// assert_eq!(sim.time(), SimTime::from_millis(1));
/// ```
pub struct Simulation<M> {
    time: SimTime,
    /// Depth component of the stamp of the event currently executing.
    cur_depth: u16,
    nodes: Vec<Option<Box<dyn Node<M> + Send>>>,
    names: Vec<String>,
    rngs: Vec<DetRng>,
    /// Per-node event push counters (stamp `counter` component).
    push_counters: Vec<u64>,
    /// Per-node timer-id counters (see [`Context::set_timer`]).
    timer_counters: Vec<u64>,
    /// Whether each node is currently crashed (blackholed, timers voided).
    crashed: Vec<bool>,
    /// Incarnation counter per node; bumped at crash to void stale timers.
    epochs: Vec<u64>,
    links: Vec<Link>,
    /// Per-link RNG streams (loss draws, jitter), derived from the master
    /// seed by link id.
    link_rngs: Vec<DetRng>,
    link_ends: Vec<(NodeId, NodeId)>,
    /// adjacency[src] -> (dst -> link), deterministic order.
    adjacency: Vec<BTreeMap<u32, LinkId>>,
    /// Static propagation delay per link in ns (routing weights).
    static_delays: Vec<u64>,
    /// Per-source next-hop tables, computed lazily, cleared on topology change.
    route_cache: HashMap<u32, Vec<Option<(u32, LinkId)>>>,
    queue: TimerWheel<EventKind, u128>,
    /// In-flight envelopes referenced by queue entries (see [`EnvSlab`]).
    env_slab: EnvSlab<M>,
    cancelled_timers: HashSet<u64>,
    /// Scripted fault actions, indexed by `EventKind::Fault` events.
    fault_actions: Vec<FaultAction>,
    master_rng: DetRng,
    started: bool,
    inject_counter: u64,
    /// The recycled op arena handed to [`Context`] during dispatch. Dispatch
    /// is never re-entrant, so one buffer serves every handler; it grows to
    /// the widest op burst and is then reused allocation-free.
    ops_arena: Vec<Op<M>>,
    /// Widest op burst a single dispatch ever produced.
    ops_high_water: u64,
    metrics: MetricsRegistry,
    events_processed: u64,
    /// Op-arena reuse counters, flushed to `engine.ops_pool.*` at run end.
    /// A hit is a dispatch served entirely from committed capacity; a miss
    /// is one that had to grow the arena.
    pool_hits: u64,
    pool_misses: u64,
    trace: Option<Trace>,
    /// Passive engine-boundary observer (see [`crate::observe`]).
    observer: Option<Box<dyn SimObserver>>,
    /// `net.sent` kept as a plain field on the hot path, flushed to the
    /// metrics registry at run end.
    sent_count: u64,
    /// `net.delivered` kept as a plain field, flushed at run end.
    delivered_count: u64,
    /// `net.delivery_latency_ns` samples kept as a plain histogram, merged
    /// into the registry at run end.
    delivery_hist: Histogram,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation with the given master seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            time: SimTime::ZERO,
            cur_depth: 0,
            nodes: Vec::new(),
            names: Vec::new(),
            rngs: Vec::new(),
            push_counters: Vec::new(),
            timer_counters: Vec::new(),
            crashed: Vec::new(),
            epochs: Vec::new(),
            links: Vec::new(),
            link_rngs: Vec::new(),
            link_ends: Vec::new(),
            adjacency: Vec::new(),
            static_delays: Vec::new(),
            route_cache: HashMap::new(),
            queue: TimerWheel::new(),
            env_slab: EnvSlab::new(),
            cancelled_timers: HashSet::new(),
            fault_actions: Vec::new(),
            master_rng: DetRng::new(seed),
            started: false,
            inject_counter: 0,
            ops_arena: Vec::new(),
            ops_high_water: 0,
            metrics: MetricsRegistry::new(),
            events_processed: 0,
            pool_hits: 0,
            pool_misses: 0,
            trace: None,
            observer: None,
            sent_count: 0,
            delivered_count: 0,
            delivery_hist: Histogram::new(),
        }
    }

    /// Registers a node and returns its id. Nodes receive `on_start` in id
    /// order when the simulation first runs.
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node<M> + Send) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.names.push(name.into());
        self.rngs.push(self.master_rng.derive(id.0 as u64));
        self.push_counters.push(0);
        self.timer_counters.push(0);
        self.crashed.push(false);
        self.epochs.push(0);
        self.adjacency.push(BTreeMap::new());
        id
    }

    /// Connects `a` and `b` with symmetric directed links of configuration
    /// `cfg`, returning `(a→b, b→a)` link ids.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.connect_directed(a, b, cfg), self.connect_directed(b, a, cfg))
    }

    /// Adds a single directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either node id is unknown or a `from → to` link already exists.
    pub fn connect_directed(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.index() < self.nodes.len(), "unknown source node");
        assert!(to.index() < self.nodes.len(), "unknown destination node");
        assert!(
            !self.adjacency[from.index()].contains_key(&to.0),
            "link {from} -> {to} already exists"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(cfg));
        // Link RNG streams live in a namespace disjoint from node streams
        // (node ids are < 2^32).
        const LINK_STREAM: u64 = 0x4C49_4E4B_0000_0000; // "LINK"
        self.link_rngs.push(self.master_rng.derive(LINK_STREAM | id.0 as u64));
        self.link_ends.push((from, to));
        self.static_delays.push(cfg.delay().as_nanos());
        self.adjacency[from.index()].insert(to.0, id);
        self.route_cache.clear();
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Name given to `id` at registration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Borrows a node, downcast to its concrete type; `None` if the type does
    /// not match.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the node is currently being dispatched.
    pub fn node_as<T: Node<M>>(&self, id: NodeId) -> Option<&T> {
        let node = self.nodes[id.index()].as_ref().expect("node is being dispatched");
        (node.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the node is currently being dispatched.
    pub fn node_as_mut<T: Node<M>>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes[id.index()].as_mut().expect("node is being dispatched");
        (node.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Borrows a link's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The directed link `from → to`, if one exists.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.adjacency.get(from.index())?.get(&to.0).copied()
    }

    /// Brings both directions between `a` and `b` up or down, maintaining
    /// flap accounting and the `net.link.flaps` counter.
    ///
    /// # Panics
    ///
    /// Panics if either directed link does not exist.
    pub fn set_connection_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        let ab = self.link_between(a, b).expect("no a->b link");
        let ba = self.link_between(b, a).expect("no b->a link");
        self.with_flap_metric(ab, |link, now| link.set_up_at(now, up));
        self.with_flap_metric(ba, |link, now| link.set_up_at(now, up));
    }

    /// Applies a state change to a link and mirrors any new availability
    /// flaps into the `net.link.flaps` counter.
    fn with_flap_metric(&mut self, id: LinkId, apply: impl FnOnce(&mut Link, SimTime)) {
        let now = self.time;
        let link = &mut self.links[id.index()];
        let before = link.stats().flaps;
        apply(link, now);
        let delta = link.stats().flaps - before;
        if delta > 0 {
            self.metrics.add("net.link.flaps", delta);
        }
    }

    /// Severs every link whose endpoints fall in different `groups`,
    /// emulating a network partition. Nodes not listed in any group keep all
    /// their links. Partition state is tracked separately from admin state:
    /// healing restores exactly the links severed here, never
    /// administratively downed ones.
    fn partition_groups(&mut self, groups: &[Vec<NodeId>]) {
        let mut membership: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for (gi, group) in groups.iter().enumerate() {
            for node in group {
                membership[node.index()] = Some(gi);
            }
        }
        for i in 0..self.links.len() {
            let (from, to) = self.link_ends[i];
            if let (Some(ga), Some(gb)) = (membership[from.index()], membership[to.index()]) {
                if ga != gb {
                    self.with_flap_metric(LinkId(i as u32), |link, now| {
                        link.set_partitioned_at(now, true)
                    });
                }
            }
        }
    }

    /// Heals all partition-severed links.
    fn heal_partition(&mut self) {
        for i in 0..self.links.len() {
            if self.links[i].is_partitioned() {
                self.with_flap_metric(LinkId(i as u32), |link, now| {
                    link.set_partitioned_at(now, false)
                });
            }
        }
    }

    /// Crashes `node`: its volatile state is reset via [`Node::on_crash`],
    /// all pending timers are voided, and traffic addressed to (or forwarded
    /// through) it is blackholed until restart. Idempotent.
    fn crash_node(&mut self, node: NodeId) {
        let idx = node.index();
        if self.crashed[idx] {
            return;
        }
        self.crashed[idx] = true;
        self.epochs[idx] += 1;
        self.metrics.inc("net.node.crashes");
        let n = self.nodes[idx].as_mut().expect("node is being dispatched");
        n.on_crash();
    }

    /// Restarts a crashed node: `on_start` runs again (re-arming timers) and
    /// traffic flows to it once more. No-op if the node is not crashed.
    fn restart_node(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.crashed[idx] {
            return;
        }
        self.crashed[idx] = false;
        self.metrics.inc("net.node.restarts");
        if self.started {
            self.dispatch(node, Dispatch::Start);
        }
    }

    /// Installs fault windows: window *i* opens with its start action at
    /// `from` and closes with its end action at `until`. All actions are
    /// ordered by time, ties kept in list order, and each becomes an engine
    /// event recorded in metrics (`fault.injected` plus a per-action
    /// counter) and, when tracing is enabled, in the trace as
    /// [`TraceKind::Fault`](crate::TraceKind::Fault) once it has run.
    ///
    /// # Panics
    ///
    /// Panics if a window does not end after it starts, or starts before
    /// the current time.
    pub fn apply_faults(&mut self, windows: &[FaultWindow]) {
        let mut events = Vec::with_capacity(2 * windows.len());
        for w in windows {
            let spanned = match w {
                FaultWindow::CrashRestart { .. } => "restart must follow the crash",
                _ => "fault window must end after it starts",
            };
            assert!(w.until() > w.from(), "{spanned}");
            let (start, end) = w.actions();
            events.push((w.from(), start));
            events.push((w.until(), end));
        }
        // Stable: actions at the same instant keep their list order.
        events.sort_by_key(|&(at, _)| at);
        for (at, action) in events {
            assert!(at >= self.time, "fault scheduled in the past");
            let index = self.fault_actions.len();
            self.fault_actions.push(action);
            let stamp = pack_stamp(0, FAULT_ORIGIN, index as u64);
            self.queue.push(at, stamp, EventKind::Fault { index });
        }
    }

    fn execute_fault(&mut self, index: usize) {
        let action = self.fault_actions[index].clone();
        self.metrics.inc("fault.injected");
        self.metrics.inc(action.metric());
        match &action {
            FaultAction::LinkDown { a, b } => self.set_connection_up(*a, *b, false),
            FaultAction::LinkUp { a, b } => self.set_connection_up(*a, *b, true),
            FaultAction::LossBurstStart { a, b, loss } => {
                self.for_both_directions(*a, *b, |link| link.set_loss_override(Some(*loss)));
            }
            FaultAction::LossBurstEnd { a, b } => {
                self.for_both_directions(*a, *b, |link| link.set_loss_override(None));
            }
            FaultAction::LatencySpikeStart { a, b, extra } => {
                self.for_both_directions(*a, *b, |link| link.set_extra_delay(*extra));
            }
            FaultAction::LatencySpikeEnd { a, b } => {
                self.for_both_directions(*a, *b, |link| {
                    link.set_extra_delay(crate::time::SimDuration::ZERO)
                });
            }
            FaultAction::Partition { groups } => self.partition_groups(groups),
            FaultAction::Heal => self.heal_partition(),
            FaultAction::CrashNode { node } => self.crash_node(*node),
            FaultAction::RestartNode { node } => self.restart_node(*node),
        }
        // Emitted after the action so observers and the trace see the
        // post-fault state (and follow any sends a restart's `on_start` made).
        self.emit(SimEvent::Fault { action: &action });
    }

    fn for_both_directions(&mut self, a: NodeId, b: NodeId, mut apply: impl FnMut(&mut Link)) {
        let ab = self.link_between(a, b).expect("no a->b link");
        let ba = self.link_between(b, a).expect("no b->a link");
        apply(&mut self.links[ab.index()]);
        apply(&mut self.links[ba.index()]);
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The simulation-wide metrics registry.
    ///
    /// Engine self-observation counters (the `engine.` namespace: op-pool
    /// hit rates and arena high-water marks) are flushed here at the end of
    /// each `run_*` call; they describe the executor, not the simulated
    /// world.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Installs a passive observer invoked at every engine boundary
    /// (send/inject/delivery/drop/no-route/timer/fault). Replaces any
    /// previously installed observer. Observation never perturbs the run:
    /// event order, metrics, and trace fingerprints are identical with or
    /// without one.
    pub fn set_observer(&mut self, observer: impl SimObserver + 'static) {
        self.observer = Some(Box::new(observer));
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn SimObserver>> {
        self.observer.take()
    }

    /// Enables event tracing, keeping at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Schedules a message to arrive at `dst` at absolute time `at`,
    /// bypassing the network. Intended for tests and workload injection.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, at: SimTime, src: NodeId, dst: NodeId, payload: M, size_bytes: u32) {
        assert!(at >= self.time, "cannot inject into the past");
        let env = Envelope { src, dst, payload, size_bytes, sent_at: self.time };
        self.inject_counter += 1;
        let stamp = pack_stamp(0, INJECT_ORIGIN, self.inject_counter);
        let env = self.env_slab.insert(env);
        self.queue.push(at, stamp, EventKind::Deliver { hop: dst, env });
        self.emit(SimEvent::Injected { src, dst, size_bytes });
    }

    /// Records one engine boundary: bumps its drop counter, if any, appends
    /// the derived [`TraceEvent`] when tracing, and hands the event to the
    /// observer with a post-event view. Every boundary goes through here
    /// exactly once, so the trace and the observer stream cannot disagree.
    #[inline]
    fn emit(&mut self, event: SimEvent<'_>) {
        match event {
            SimEvent::Dropped { reason, .. } => self.metrics.inc(reason.metric()),
            SimEvent::NoRoute { .. } => self.metrics.inc("net.dropped.no_route"),
            _ => {}
        }
        if self.trace.is_some() || self.observer.is_some() {
            self.trace_and_observe(&event);
        }
    }

    /// The part of [`Simulation::emit`] that runs only with a trace or an
    /// observer installed. Kept out of line so untraced runs pay two checks
    /// per send and delivery: inlined at every boundary it cost about 5% of
    /// host time on a 200-client fan-out.
    #[inline(never)]
    fn trace_and_observe(&mut self, event: &SimEvent<'_>) {
        if let Some(trace) = &mut self.trace {
            if let Some(ev) = TraceEvent::of(self.time, event) {
                trace.push(ev);
            }
        }
        let Some(mut observer) = self.observer.take() else { return };
        let view = SimView {
            time: self.time,
            crashed: &self.crashed,
            links: &self.links,
            link_ends: &self.link_ends,
        };
        observer.on_event(&view, event);
        self.observer = Some(observer);
    }

    /// Stamp for a child event scheduled at `at` by `origin`'s handler.
    fn child_stamp(&mut self, at: SimTime, origin: NodeId) -> u128 {
        let depth = if at == self.time { self.cur_depth.saturating_add(1) } else { 0 };
        let counter = &mut self.push_counters[origin.index()];
        *counter += 1;
        pack_stamp(depth, origin.0, *counter)
    }

    /// Processes the next event plus — within `budget` — any immediately
    /// following same-instant deliveries to the same node, which share one
    /// node borrow. Returns how many events were consumed (0 when idle).
    fn step_inner(&mut self, budget: u64) -> u64 {
        let Some((at, stamp, kind)) = self.queue.pop() else { return 0 };
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        self.cur_depth = stamp_depth(stamp);
        self.events_processed += 1;
        let mut processed = 1;
        match kind {
            EventKind::Fault { index } => self.execute_fault(index),
            EventKind::Timer { node, id, tag, epoch } => {
                if self.cancelled_timers.remove(&id) {
                    return processed;
                }
                // Timers armed before a crash are voided: the stale epoch (or
                // the crashed flag, while down) swallows them.
                if self.crashed[node.index()] || epoch != self.epochs[node.index()] {
                    return processed;
                }
                self.emit(SimEvent::TimerFired { node, tag });
                self.dispatch(node, Dispatch::Timer(Timer { id, tag }));
            }
            EventKind::Deliver { hop, env } => {
                let env = self.env_slab.take(env);
                if self.crashed[hop.index()] {
                    // Crashed nodes blackhole traffic addressed to or
                    // forwarded through them.
                    self.emit(SimEvent::Dropped {
                        src: env.src,
                        dst: env.dst,
                        size_bytes: env.size_bytes,
                        reason: DropReason::NodeDown,
                    });
                } else if hop == env.dst {
                    let dst = env.dst;
                    let idx = dst.index();
                    let mut node = self.nodes[idx].take().expect("re-entrant dispatch");
                    self.record_delivery(&env);
                    let from = env.src;
                    self.dispatch_node(&mut node, dst, Dispatch::Message(from, env.payload));
                    // Batch the fan-out pattern: further final deliveries to
                    // this node at this exact instant reuse the borrow. Each
                    // message is still recorded and its ops applied before
                    // the next one, so traces, metrics, and RNG draws are
                    // byte-for-byte those of the unbatched path.
                    while processed < budget {
                        let now = self.time;
                        let slab = &self.env_slab;
                        let next = self.queue.pop_if(|ev_at, _, k| {
                            ev_at == now
                                && matches!(
                                    k,
                                    EventKind::Deliver { hop, env }
                                        if *hop == dst && slab.get(*env).dst == dst
                                )
                        });
                        match next {
                            Some((_, stamp, EventKind::Deliver { env, .. })) => {
                                let env = self.env_slab.take(env);
                                self.events_processed += 1;
                                processed += 1;
                                self.cur_depth = stamp_depth(stamp);
                                self.record_delivery(&env);
                                let from = env.src;
                                self.dispatch_node(
                                    &mut node,
                                    dst,
                                    Dispatch::Message(from, env.payload),
                                );
                            }
                            Some(_) => unreachable!("pop_if admits only deliveries"),
                            None => break,
                        }
                    }
                    self.nodes[idx] = Some(node);
                } else {
                    // Transparent forwarding at an intermediate hop.
                    self.route_and_transmit(hop, env);
                }
            }
        }
        processed
    }

    /// Counters, latency histogram, and emitted event for one final delivery.
    fn record_delivery(&mut self, env: &Envelope<M>) {
        self.delivered_count += 1;
        self.delivery_hist.record(self.time.duration_since(env.sent_at).as_nanos());
        self.emit(SimEvent::Delivered {
            src: env.src,
            dst: env.dst,
            size_bytes: env.size_bytes,
            sent_at: env.sent_at,
        });
    }

    fn dispatch(&mut self, node_id: NodeId, what: Dispatch<M>) {
        let idx = node_id.index();
        let mut node = self.nodes[idx].take().expect("re-entrant dispatch");
        self.dispatch_node(&mut node, node_id, what);
        self.nodes[idx] = Some(node);
    }

    /// Runs one handler on an already-borrowed node and applies its ops.
    #[allow(clippy::borrowed_box)]
    fn dispatch_node(
        &mut self,
        node: &mut Box<dyn Node<M> + Send>,
        node_id: NodeId,
        what: Dispatch<M>,
    ) {
        let idx = node_id.index();
        // Dispatch is never nested (handlers cannot dispatch), so the single
        // recycled arena buffer serves every call; a nested call would merely
        // see an empty buffer and count a miss.
        let mut ops: Vec<Op<M>> = std::mem::take(&mut self.ops_arena);
        let cap_before = ops.capacity();
        {
            let mut ctx = Context {
                now: self.time,
                id: node_id,
                ops: &mut ops,
                rng: &mut self.rngs[idx],
                metrics: &mut self.metrics,
                timer_counter: &mut self.timer_counters[idx],
            };
            match what {
                Dispatch::Start => node.on_start(&mut ctx),
                Dispatch::Message(from, msg) => node.on_message(&mut ctx, from, msg),
                Dispatch::Timer(t) => node.on_timer(&mut ctx, t),
            }
        }
        if ops.capacity() > cap_before {
            self.pool_misses += 1;
        } else {
            self.pool_hits += 1;
        }
        if ops.len() as u64 > self.ops_high_water {
            self.ops_high_water = ops.len() as u64;
        }
        for op in ops.drain(..) {
            match op {
                Op::Send { dst, payload, size_bytes } => {
                    self.sent_count += 1;
                    let env =
                        Envelope { src: node_id, dst, payload, size_bytes, sent_at: self.time };
                    self.emit(SimEvent::Sent { src: node_id, dst, size_bytes });
                    if dst == node_id {
                        // Loopback: deliver immediately (next event).
                        let stamp = self.child_stamp(self.time, node_id);
                        let env = self.env_slab.insert(env);
                        self.queue.push(self.time, stamp, EventKind::Deliver { hop: dst, env });
                    } else {
                        self.route_and_transmit(node_id, env);
                    }
                }
                Op::SetTimer { id, after, tag } => {
                    let at = self.time.saturating_add(after);
                    let epoch = self.epochs[node_id.index()];
                    let stamp = self.child_stamp(at, node_id);
                    self.queue.push(at, stamp, EventKind::Timer { node: node_id, id, tag, epoch });
                }
                Op::CancelTimer { id } => {
                    self.cancelled_timers.insert(id);
                }
            }
        }
        self.ops_arena = ops;
    }

    fn route_and_transmit(&mut self, at_node: NodeId, env: Envelope<M>) {
        // Prefer a direct link; otherwise consult the routing table.
        let hop = if let Some(&link) = self.adjacency[at_node.index()].get(&env.dst.0) {
            Some((env.dst.0, link))
        } else {
            self.next_hop(at_node, env.dst)
        };
        let Some((next_node, link_id)) = hop else {
            self.emit(SimEvent::NoRoute { src: env.src, dst: env.dst, size_bytes: env.size_bytes });
            return;
        };
        let li = link_id.index();
        match self.links[li].transmit(self.time, env.size_bytes, &mut self.link_rngs[li]) {
            Transmit::Deliver { at } => {
                let stamp = self.child_stamp(at, at_node);
                let env = self.env_slab.insert(env);
                self.queue.push(at, stamp, EventKind::Deliver { hop: NodeId(next_node), env });
            }
            Transmit::Drop(reason) => self.emit(SimEvent::Dropped {
                src: env.src,
                dst: env.dst,
                size_bytes: env.size_bytes,
                reason,
            }),
        }
    }

    /// Computes (and caches) the next hop from `src` toward `dst` by
    /// Dijkstra over static link propagation delays.
    fn next_hop(&mut self, src: NodeId, dst: NodeId) -> Option<(u32, LinkId)> {
        if !self.route_cache.contains_key(&src.0) {
            let table = self.dijkstra_from(src);
            self.route_cache.insert(src.0, table);
        }
        self.route_cache[&src.0].get(dst.index()).copied().flatten()
    }

    fn dijkstra_from(&self, src: NodeId) -> Vec<Option<(u32, LinkId)>> {
        let n = self.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut first_hop: Vec<Option<(u32, LinkId)>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        dist[src.index()] = 0;
        heap.push(Reverse((0, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (&v, &link) in &self.adjacency[u as usize] {
                let w = self.static_delays[link.index()].max(1);
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    first_hop[v as usize] =
                        if u == src.0 { Some((v, link)) } else { first_hop[u as usize] };
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        first_hop
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            self.dispatch(NodeId(i as u32), Dispatch::Start);
        }
    }

    /// Moves counters accumulated as plain fields (kept off the hot path)
    /// into the metrics registry: the `engine.` self-observation counters
    /// plus the per-event `net.sent` / `net.delivered` / delivery-latency
    /// aggregates.
    fn flush_engine_metrics(&mut self) {
        if self.pool_hits > 0 {
            let v = std::mem::take(&mut self.pool_hits);
            self.metrics.add("engine.ops_pool.hit", v);
        }
        if self.pool_misses > 0 {
            let v = std::mem::take(&mut self.pool_misses);
            self.metrics.add("engine.ops_pool.miss", v);
        }
        // Memory-pressure gauges (max semantics: the counter is raised to the
        // observed high-water, never lowered), so overload runs expose their
        // arena growth instead of hiding it.
        self.raise_engine_gauge("engine.ops_pool.high_water", self.ops_high_water);
        let env_hw = self.env_slab.high_water() as u64;
        self.raise_engine_gauge("engine.env_slab.high_water", env_hw);
        let arena_bytes = (self.ops_arena.capacity() * std::mem::size_of::<Op<M>>()) as u64
            + self.env_slab.arena_bytes();
        self.raise_engine_gauge("engine.ops_pool.arena_bytes", arena_bytes);
        if self.sent_count > 0 {
            let v = std::mem::take(&mut self.sent_count);
            self.metrics.add("net.sent", v);
        }
        if self.delivered_count > 0 {
            let v = std::mem::take(&mut self.delivered_count);
            self.metrics.add("net.delivered", v);
        }
        if !self.delivery_hist.is_empty() {
            self.metrics.histogram("net.delivery_latency_ns").merge(&self.delivery_hist);
            self.delivery_hist.clear();
        }
    }

    /// Raises a gauge-like engine counter to `v` if it is below it.
    fn raise_engine_gauge(&mut self, name: &'static str, v: u64) {
        let cur = self.metrics.counter_value(name);
        if v > cur {
            self.metrics.add(name, v - cur);
        }
    }

    /// Processes a single event; returns its time, or `None` if idle.
    pub fn step(&mut self) -> Option<SimTime> {
        self.ensure_started();
        if self.step_inner(1) > 0 {
            // Keep the registry view current for step-at-a-time callers.
            self.flush_engine_metrics();
            Some(self.time)
        } else {
            None
        }
    }

    /// Runs until the event queue is empty or `limit` events were processed
    /// in this call. Returns the number of events processed.
    pub fn run_until_idle_capped(&mut self, limit: u64) -> u64 {
        self.ensure_started();
        let mut n = 0;
        while n < limit {
            let processed = self.step_inner(limit - n);
            if processed == 0 {
                break;
            }
            n += processed;
        }
        self.flush_engine_metrics();
        n
    }

    /// Runs until the event queue is empty.
    pub fn run_until_idle(&mut self) {
        self.run_until_idle_capped(u64::MAX);
    }

    /// Runs until simulated time reaches `until` (events at exactly `until`
    /// are processed) or the queue empties. The clock is left at `until` if
    /// the queue emptied earlier than that.
    pub fn run_until(&mut self, until: SimTime) {
        self.ensure_started();
        while let Some((at, _)) = self.queue.peek_key() {
            if at > until {
                break;
            }
            self.step_inner(u64::MAX);
        }
        if self.time < until {
            self.time = until;
        }
        self.flush_engine_metrics();
    }
}

enum Dispatch<M> {
    Start,
    Message(NodeId, M),
    Timer(Timer),
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.time)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::trace::TraceKind;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    struct Pinger {
        peer: Option<NodeId>,
        sent: u64,
        rtts: Vec<SimDuration>,
        last_sent: SimTime,
        max_pings: u64,
    }

    impl Pinger {
        fn new(max_pings: u64) -> Self {
            Pinger { peer: None, sent: 0, rtts: Vec::new(), last_sent: SimTime::ZERO, max_pings }
        }
    }

    impl Node<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(peer) = self.peer {
                self.sent += 1;
                self.last_sent = ctx.now();
                ctx.send(peer, Msg::Ping(self.sent), 64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(n) => ctx.send(from, Msg::Pong(n), 64),
                Msg::Pong(_) => {
                    self.rtts.push(ctx.now().duration_since(self.last_sent));
                    if self.sent < self.max_pings {
                        self.sent += 1;
                        self.last_sent = ctx.now();
                        ctx.send(from, Msg::Ping(self.sent), 64);
                    }
                }
            }
        }
    }

    fn two_node_sim(delay_ms: u64) -> (Simulation<Msg>, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        let a = sim.add_node("a", Pinger::new(10));
        let b = sim.add_node("b", Pinger::new(0));
        sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
        sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(delay_ms)));
        (sim, a, b)
    }

    #[test]
    fn ping_pong_rtt_is_twice_one_way() {
        let (mut sim, a, _b) = two_node_sim(5);
        sim.run_until_idle();
        let pinger = sim.node_as::<Pinger>(a).unwrap();
        assert_eq!(pinger.rtts.len(), 10);
        for rtt in &pinger.rtts {
            assert_eq!(*rtt, SimDuration::from_millis(10));
        }
        assert_eq!(sim.metrics().counter_value("net.delivered"), 20);
    }

    #[test]
    fn run_until_respects_the_clock() {
        let (mut sim, _a, _b) = two_node_sim(5);
        sim.run_until(SimTime::from_millis(24));
        // RTT = 10 ms; pongs at 10 and 20 ms have been received.
        assert_eq!(sim.time(), SimTime::from_millis(24));
        sim.run_until_idle();
        assert_eq!(sim.time(), SimTime::from_millis(100));
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let a = sim.add_node("a", Pinger::new(20));
            let b = sim.add_node("b", Pinger::new(0));
            sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
            let cfg = LinkConfig::new(SimDuration::from_millis(3))
                .with_jitter(SimDuration::from_millis(1))
                .with_loss(crate::link::LossModel::Iid { p: 0.05 });
            sim.connect(a, b, cfg);
            sim.enable_trace(10_000);
            sim.run_until_idle();
            sim.trace().unwrap().fingerprint()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    struct Ticker {
        fired: Vec<(SimTime, u64)>,
        cancel_second: bool,
    }

    impl Node<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
            let id = ctx.set_timer(SimDuration::from_millis(2), 2);
            ctx.set_timer(SimDuration::from_millis(3), 3);
            if self.cancel_second {
                ctx.cancel_timer(id);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
            self.fired.push((ctx.now(), timer.tag));
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let t = sim.add_node("t", Ticker { fired: vec![], cancel_second: true });
        sim.run_until_idle();
        let fired = &sim.node_as::<Ticker>(t).unwrap().fired;
        assert_eq!(fired, &vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(3), 3)]);
    }

    struct Forwarder;
    impl Node<Msg> for Forwarder {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            panic!("intermediate hops must not receive forwarded messages");
        }
    }

    struct Sink {
        got: Vec<(SimTime, NodeId)>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _: Msg) {
            self.got.push((ctx.now(), from));
        }
    }

    struct Source {
        dst: NodeId,
    }
    impl Node<Msg> for Source {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.dst, Msg::Ping(1), 128);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
    }

    #[test]
    fn multi_hop_routing_is_transparent_and_latency_adds_up() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let relay = sim.add_node("relay", Forwarder);
        let src = sim.add_node("src", Source { dst: sink });
        sim.connect(src, relay, LinkConfig::new(SimDuration::from_millis(2)));
        sim.connect(relay, sink, LinkConfig::new(SimDuration::from_millis(3)));
        sim.run_until_idle();
        let got = &sim.node_as::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(5));
        assert_eq!(got[0].1, src, "sender identity is preserved across hops");
    }

    #[test]
    fn routing_prefers_the_shorter_path() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let slow_relay = sim.add_node("slow", Forwarder);
        let fast_relay = sim.add_node("fast", Forwarder);
        let src = sim.add_node("src", Source { dst: sink });
        sim.connect(src, slow_relay, LinkConfig::new(SimDuration::from_millis(50)));
        sim.connect(slow_relay, sink, LinkConfig::new(SimDuration::from_millis(50)));
        sim.connect(src, fast_relay, LinkConfig::new(SimDuration::from_millis(1)));
        sim.connect(fast_relay, sink, LinkConfig::new(SimDuration::from_millis(1)));
        sim.run_until_idle();
        let got = &sim.node_as::<Sink>(sink).unwrap().got;
        assert_eq!(got[0].0, SimTime::from_millis(2));
    }

    #[test]
    fn unroutable_messages_are_counted_not_fatal() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let _iso = sim.add_node("isolated", Source { dst: sink });
        sim.run_until_idle();
        assert_eq!(sim.metrics().counter_value("net.dropped.no_route"), 1);
        assert!(sim.node_as::<Sink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn inject_delivers_without_network() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let other = sim.add_node("other", Forwarder);
        sim.inject(SimTime::from_millis(7), other, sink, Msg::Ping(9), 10);
        sim.run_until_idle();
        let got = &sim.node_as::<Sink>(sink).unwrap().got;
        assert_eq!(got, &vec![(SimTime::from_millis(7), other)]);
    }

    #[test]
    fn link_down_blackholes_traffic() {
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let src = sim.add_node("src", Source { dst: sink });
        sim.connect(src, sink, LinkConfig::new(SimDuration::from_millis(1)));
        sim.set_connection_up(src, sink, false);
        sim.run_until_idle();
        assert!(sim.node_as::<Sink>(sink).unwrap().got.is_empty());
        assert_eq!(sim.metrics().counter_value("net.dropped.down"), 1);
    }

    /// Counts messages and tick timers; resets its counters on crash. With
    /// a `greet` peer it also pings that peer from every `on_start`.
    struct Counter {
        got: u64,
        ticks: u64,
        starts: u64,
        crashes: u64,
        greet: Option<NodeId>,
    }

    impl Counter {
        fn new() -> Self {
            Counter { got: 0, ticks: 0, starts: 0, crashes: 0, greet: None }
        }
    }

    impl Node<Msg> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.starts += 1;
            ctx.set_timer(SimDuration::from_millis(10), 77);
            if let Some(peer) = self.greet {
                ctx.send(peer, Msg::Ping(0), 16);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            self.got += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: Timer) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::from_millis(10), 77);
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
            self.got = 0;
            self.ticks = 0;
        }
    }

    #[test]
    fn crashed_node_blackholes_and_stops_ticking() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        let src = sim.add_node("src", Forwarder);
        sim.connect(src, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.run_until(SimTime::from_millis(35)); // 3 ticks at 10/20/30 ms
        assert_eq!(sim.node_as::<Counter>(c).unwrap().ticks, 3);
        sim.crash_node(c);
        assert!(sim.crashed[c.index()]);
        assert_eq!(sim.node_as::<Counter>(c).unwrap().crashes, 1);
        sim.inject(SimTime::from_millis(40), src, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(100));
        let counter = sim.node_as::<Counter>(c).unwrap();
        assert_eq!(counter.got, 0, "messages to a crashed node are blackholed");
        assert_eq!(counter.ticks, 0, "timers do not fire while crashed");
        assert_eq!(sim.metrics().counter_value("net.dropped.node_down"), 1);
    }

    #[test]
    fn restart_rearms_timers_and_voids_stale_ones() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        sim.run_until(SimTime::from_millis(5));
        sim.crash_node(c);
        sim.run_until(SimTime::from_millis(50));
        sim.restart_node(c);
        assert!(!sim.crashed[c.index()]);
        sim.run_until(SimTime::from_millis(75)); // restarted ticks at 60/70 ms
        let counter = sim.node_as::<Counter>(c).unwrap();
        assert_eq!(counter.starts, 2, "on_start runs again at restart");
        assert_eq!(counter.ticks, 2, "only post-restart timers fire");
        assert_eq!(sim.metrics().counter_value("net.node.crashes"), 1);
        assert_eq!(sim.metrics().counter_value("net.node.restarts"), 1);
    }

    #[test]
    fn partition_severs_cross_group_links_only() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let a = sim.add_node("a", Counter::new());
        let b = sim.add_node("b", Counter::new());
        let c = sim.add_node("c", Counter::new());
        sim.connect(a, b, LinkConfig::new(SimDuration::from_millis(1)));
        sim.connect(a, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.connect(b, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.partition_groups(&[vec![a], vec![b, c]]);
        assert!(!sim.link(sim.link_between(a, b).unwrap()).is_available());
        assert!(!sim.link(sim.link_between(a, c).unwrap()).is_available());
        assert!(sim.link(sim.link_between(b, c).unwrap()).is_available());
        assert_eq!(sim.metrics().counter_value("net.link.flaps"), 4);
        sim.heal_partition();
        assert!(sim.link(sim.link_between(a, b).unwrap()).is_available());
        assert!(sim.link(sim.link_between(a, c).unwrap()).is_available());
    }

    #[test]
    fn fault_windows_execute_on_schedule() {
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let c = sim.add_node("counter", Counter::new());
        sim.connect(sink, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.enable_trace(10_000);
        sim.apply_faults(&[FaultWindow::CrashRestart {
            node: c,
            from: SimTime::from_millis(25),
            until: SimTime::from_millis(55),
        }]);
        sim.run_until(SimTime::from_millis(80));
        let counter = sim.node_as::<Counter>(c).unwrap();
        // Ticks at 10, 20 (then crash at 25, restart at 55), 65, 75.
        assert_eq!(counter.starts, 2);
        assert_eq!(counter.ticks, 2);
        assert_eq!(sim.metrics().counter_value("fault.injected"), 2);
        assert_eq!(sim.metrics().counter_value("fault.crash"), 1);
        assert_eq!(sim.metrics().counter_value("fault.restart"), 1);
        let faults = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::Fault { .. }))
            .count();
        assert_eq!(faults, 2);
    }

    /// Counts engine-boundary events by kind.
    #[derive(Default)]
    struct CountingObserver {
        sent: u64,
        delivered: u64,
        dropped: u64,
        timers: u64,
        faults: u64,
        injected: u64,
        no_route: u64,
    }

    impl crate::observe::SimObserver for std::sync::Arc<std::sync::Mutex<CountingObserver>> {
        fn on_event(&mut self, _view: &crate::SimView<'_>, event: &crate::SimEvent<'_>) {
            let mut c = self.lock().unwrap();
            match event {
                crate::SimEvent::Sent { .. } => c.sent += 1,
                crate::SimEvent::Delivered { .. } => c.delivered += 1,
                crate::SimEvent::Dropped { .. } => c.dropped += 1,
                crate::SimEvent::TimerFired { .. } => c.timers += 1,
                crate::SimEvent::Fault { .. } => c.faults += 1,
                crate::SimEvent::Injected { .. } => c.injected += 1,
                crate::SimEvent::NoRoute { .. } => c.no_route += 1,
            }
        }
    }

    #[test]
    fn observer_sees_every_boundary_and_counts_match_metrics() {
        let counts = std::sync::Arc::new(std::sync::Mutex::new(CountingObserver::default()));
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let sink = sim.add_node("sink", Sink { got: vec![] });
        let c = sim.add_node("counter", Counter::new());
        sim.connect(sink, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.set_observer(std::sync::Arc::clone(&counts));
        sim.apply_faults(&[FaultWindow::CrashRestart {
            node: c,
            from: SimTime::from_millis(25),
            until: SimTime::from_millis(55),
        }]);
        sim.inject(SimTime::from_millis(5), sink, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(80));
        let got = counts.lock().unwrap();
        assert_eq!(got.faults, 2, "crash + restart both observed");
        assert_eq!(got.injected, 1);
        assert_eq!(got.delivered, sim.metrics().counter_value("net.delivered"));
        assert_eq!(got.timers, 4, "ticks at 10/20 then 65/75 after restart");
        assert_eq!(got.sent, sim.metrics().counter_value("net.sent"));
    }

    #[test]
    fn observer_does_not_perturb_the_run() {
        let run = |observe: bool| {
            let mut sim = Simulation::new(99);
            let a = sim.add_node("a", Pinger::new(20));
            let b = sim.add_node("b", Pinger::new(0));
            sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
            let cfg = LinkConfig::new(SimDuration::from_millis(3))
                .with_jitter(SimDuration::from_millis(1))
                .with_loss(crate::link::LossModel::Iid { p: 0.05 });
            sim.connect(a, b, cfg);
            sim.enable_trace(10_000);
            if observe {
                sim.set_observer(|_: &crate::SimView<'_>, _: &crate::SimEvent<'_>| {});
            }
            sim.run_until_idle();
            sim.trace().unwrap().fingerprint()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crashed_node_receives_no_observed_deliveries_or_timers() {
        let counts = std::sync::Arc::new(std::sync::Mutex::new(CountingObserver::default()));
        let mut sim: Simulation<Msg> = Simulation::new(3);
        let c = sim.add_node("counter", Counter::new());
        let src = sim.add_node("src", Forwarder);
        sim.connect(src, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.set_observer(std::sync::Arc::clone(&counts));
        sim.run_until(SimTime::from_millis(15)); // one tick at 10 ms
        sim.crash_node(c);
        sim.inject(SimTime::from_millis(40), src, c, Msg::Ping(1), 8);
        sim.run_until(SimTime::from_millis(100));
        let got = counts.lock().unwrap();
        assert_eq!(got.timers, 1, "no timer fires while crashed");
        assert_eq!(got.delivered, 0);
        assert_eq!(got.dropped, 1, "the injected message blackholes");
    }

    #[test]
    fn loopback_send_is_delivered() {
        struct SelfSender {
            got: u32,
        }
        impl Node<Msg> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let id = ctx.id();
                ctx.send(id, Msg::Ping(0), 8);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.got += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let n = sim.add_node("self", SelfSender { got: 0 });
        sim.run_until_idle();
        assert_eq!(sim.node_as::<SelfSender>(n).unwrap().got, 1);
    }

    #[test]
    fn stamps_pack_and_unpack() {
        let s = pack_stamp(3, 7, 42);
        assert_eq!(stamp_depth(s), 3);
        assert!(pack_stamp(0, u32::MAX, 0) < pack_stamp(1, 0, 0), "depth dominates origin");
        assert!(pack_stamp(0, 1, u64::MAX) < pack_stamp(0, 2, 0), "origin dominates counter");
        assert!(pack_stamp(0, FAULT_ORIGIN, 9) < pack_stamp(0, INJECT_ORIGIN, 0));
    }

    /// A lossy, jittery ping-pong pair plus a ticking counter that crashes
    /// and restarts mid-run and sends from `on_start`, so the restart fault
    /// causes a send at its own instant: every engine boundary kind occurs.
    fn busy_sim(seed: u64) -> Simulation<Msg> {
        let mut sim = Simulation::new(seed);
        let a = sim.add_node("a", Pinger::new(100));
        let b = sim.add_node("b", Pinger::new(0));
        let c = sim.add_node("counter", Counter { greet: Some(b), ..Counter::new() });
        sim.node_as_mut::<Pinger>(a).unwrap().peer = Some(b);
        let cfg = LinkConfig::new(SimDuration::from_millis(3))
            .with_jitter(SimDuration::from_millis(1))
            .with_loss(crate::link::LossModel::Iid { p: 0.05 });
        sim.connect(a, b, cfg);
        sim.connect(b, c, LinkConfig::new(SimDuration::from_millis(1)));
        sim.apply_faults(&[FaultWindow::CrashRestart {
            node: c,
            from: SimTime::from_millis(25),
            until: SimTime::from_millis(55),
        }]);
        sim.enable_trace(1 << 16);
        sim
    }

    #[test]
    fn capped_runs_and_stepping_resume_the_same_run() {
        // The counter ticks forever, so every run here is bounded.
        let end = SimTime::from_millis(2_000);
        let mut whole = busy_sim(5);
        whole.run_until(end);

        let mut pieces = busy_sim(5);
        assert_eq!(pieces.run_until_idle_capped(50), 50, "the cap is exact");
        assert!(pieces.step().is_some());
        pieces.run_until(end);

        assert_eq!(pieces.events_processed(), whole.events_processed());
        assert_eq!(pieces.trace().unwrap().fingerprint(), whole.trace().unwrap().fingerprint());
        assert_eq!(pieces.metrics().snapshot(), whole.metrics().snapshot());
    }

    #[test]
    fn observer_stream_follows_the_trace_order() {
        type Seen = std::sync::Arc<std::sync::Mutex<Vec<(SimTime, u8, NodeId, NodeId)>>>;
        let seen: Seen = Default::default();
        let mut sim = busy_sim(3);
        let sink = std::sync::Arc::clone(&seen);
        sim.set_observer(move |view: &SimView<'_>, event: &SimEvent<'_>| {
            let none = NodeId(0);
            let entry = match *event {
                SimEvent::Sent { src, dst, .. } => (1, src, dst),
                SimEvent::Delivered { src, dst, .. } => (2, src, dst),
                SimEvent::Dropped { src, dst, .. } => (3, src, dst),
                SimEvent::NoRoute { src, dst, .. } => (4, src, dst),
                SimEvent::TimerFired { node, .. } => (5, node, node),
                SimEvent::Fault { .. } => (6, none, none),
                SimEvent::Injected { .. } => return,
            };
            sink.lock().unwrap().push((view.time(), entry.0, entry.1, entry.2));
        });
        sim.run_until(SimTime::from_millis(300));
        let none = NodeId(0);
        let traced: Vec<_> = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .map(|ev| {
                let (code, src, dst) = match ev.kind {
                    TraceKind::Sent => (1, ev.src, ev.dst),
                    TraceKind::Delivered => (2, ev.src, ev.dst),
                    TraceKind::Dropped(_) => (3, ev.src, ev.dst),
                    TraceKind::NoRoute => (4, ev.src, ev.dst),
                    TraceKind::TimerFired { .. } => (5, ev.src, ev.dst),
                    TraceKind::Fault { .. } => (6, none, none),
                };
                (ev.at, code, src, dst)
            })
            .collect();
        let seen = seen.lock().unwrap();
        assert!(seen.iter().any(|e| e.1 == 3), "the lossy link drops something");
        assert_eq!(seen.iter().filter(|e| e.1 == 6).count(), 2, "crash and restart");
        assert_eq!(*seen, traced);
    }
}
