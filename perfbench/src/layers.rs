//! The traced run: host time attributed to node handlers by kind, from
//! outside the engine.
//!
//! A passive [`SimObserver`] opens a span at each `Delivered` or
//! `TimerFired` boundary, charged to the kind of node whose handler runs
//! next, and closes it at the following boundary or at the end of the
//! `Simulation::step` call. Whatever each step spends outside those spans
//! goes to the engine. Observation never changes the simulated run.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use metaclass_core::ClassroomSession;
use metaclass_netsim::{NodeId, SimEvent, SimTime, SimView};

/// A kind of node handler, told apart by node name. The discriminant is
/// the layer's index in [`Layer::ALL`] and in [`LayerTimes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The cloud VR classroom server (`cloud`).
    Cloud,
    /// Remote VR clients (`client-*`).
    Client,
    /// Campus edge servers (`edge-*`).
    EdgeServer,
    /// Headsets and room sensor arrays (`headset-*`, `array-*`).
    Devices,
    /// Flyweight client pools (`pool-*`).
    Pool,
}

impl Layer {
    /// Every handler layer, in report order.
    pub const ALL: [Layer; 5] =
        [Layer::Cloud, Layer::Client, Layer::EdgeServer, Layer::Devices, Layer::Pool];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cloud => "edge.cloud",
            Layer::Client => "edge.client",
            Layer::EdgeServer => "edge.edge_server",
            Layer::Devices => "edge.devices",
            Layer::Pool => "edge.pool",
        }
    }

    /// The layer of a node, from the name the session builder gave it.
    ///
    /// # Panics
    ///
    /// Panics on a node name of no known kind.
    pub fn of_node(name: &str) -> Layer {
        let kind = name.split('-').next().unwrap_or(name);
        match kind {
            "cloud" => Layer::Cloud,
            "client" => Layer::Client,
            "edge" => Layer::EdgeServer,
            "headset" | "array" => Layer::Devices,
            "pool" => Layer::Pool,
            _ => panic!("node {name:?} is of no known kind"),
        }
    }
}

/// Host time and handler runs of one traced window.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimes {
    /// Wall time of the whole traced window, nanoseconds.
    pub wall_ns: u64,
    /// Handler self time per [`Layer::ALL`] entry, nanoseconds.
    pub self_ns: [u64; 5],
    /// Handler runs (deliveries plus timer firings) per layer.
    pub handled: [u64; 5],
}

impl LayerTimes {
    /// Wall time outside every handler span: the engine's self time.
    pub fn engine_ns(&self) -> u64 {
        self.wall_ns - self.self_ns.iter().sum::<u64>()
    }
}

struct Recorder {
    layer_of: Vec<u8>,
    open: Option<(u8, Instant)>,
    self_ns: [u64; 5],
    handled: [u64; 5],
}

impl Recorder {
    fn close(&mut self, now: Instant) {
        if let Some((layer, since)) = self.open.take() {
            self.self_ns[layer as usize] += (now - since).as_nanos() as u64;
        }
    }

    fn open(&mut self, node: NodeId, now: Instant) {
        let layer = self.layer_of[node.index()];
        self.handled[layer as usize] += 1;
        self.open = Some((layer, now));
    }
}

/// Steps `session` through every event up to `end`, plus the first event
/// past it (`Simulation::step` cannot look ahead), with the layer observer
/// installed. An untraced run reaches the same state with
/// `run_for(end - now)` followed by one `step`.
pub fn traced_window(session: &mut ClassroomSession, end: SimTime) -> LayerTimes {
    let sim = session.sim_mut();
    let layer_of = (0..sim.node_count())
        .map(|i| Layer::of_node(sim.node_name(NodeId::from_index(i))) as u8)
        .collect();
    let recorder =
        Arc::new(Mutex::new(Recorder { layer_of, open: None, self_ns: [0; 5], handled: [0; 5] }));
    let observer = Arc::clone(&recorder);
    sim.set_observer(move |_: &SimView<'_>, event: &SimEvent<'_>| {
        let mut r = observer.lock().expect("recorder lock");
        let opens = match *event {
            SimEvent::Delivered { dst, .. } => Some(dst),
            SimEvent::TimerFired { node, .. } => Some(node),
            _ => None,
        };
        if r.open.is_none() && opens.is_none() {
            return;
        }
        let now = Instant::now();
        r.close(now);
        if let Some(node) = opens {
            r.open(node, now);
        }
    });
    let start = Instant::now();
    while let Some(at) = sim.step() {
        recorder.lock().expect("recorder lock").close(Instant::now());
        if at > end {
            break;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(sim.take_observer());
    let r = recorder.lock().expect("recorder lock");
    LayerTimes { wall_ns, self_ns: r.self_ns, handled: r.handled }
}
