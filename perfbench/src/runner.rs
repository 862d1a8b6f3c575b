//! Episodes: one freshly built session each, run through the workload's
//! timed window and checked.

use std::time::Instant;

use metaclass_core::ClassroomSession;
use metaclass_netsim::SimTime;

use crate::check::Checked;
use crate::layers::{traced_window, LayerTimes};
use crate::stats::{interpolated_percentile, median};
use crate::workload::{remote_clients, remote_updates, Workload};
use crate::yardstick::Yardstick;

/// Builds the workload's session, timing `SessionBuilder::build`.
pub fn build(workload: Workload, seed: u64) -> (ClassroomSession, f64) {
    let builder = workload.builder(seed);
    let start = Instant::now();
    let session = builder.build();
    (session, start.elapsed().as_secs_f64())
}

/// One untraced episode, run through the window in fixed simulated slices.
#[derive(Debug, Clone)]
pub struct Sliced {
    /// Host wall time of each slice, milliseconds.
    pub slices_ms: Vec<f64>,
    /// Time of the reference kernel run after every [`KERNEL_EVERY`]th
    /// slice, milliseconds.
    pub kernel_ms: Vec<f64>,
    /// Simulated capture→display p99 at remote VR clients, milliseconds.
    pub m2p_p99_ms: f64,
    /// Display updates per remote client per simulated second.
    pub goodput_hz: f64,
    /// Output checks.
    pub checked: Checked,
}

/// Slices between two timed runs of the reference kernel: often enough to
/// follow the host's speed through an episode, rarely enough that the
/// kernel's cache footprint barely touches the workload's.
pub const KERNEL_EVERY: usize = 10;

/// Runs one sliced episode: build, warm up, then the timed window one
/// `run_for(slice)` at a time, timing `yardstick` every
/// [`KERNEL_EVERY`] slices.
pub fn sliced(workload: Workload, seed: u64, yardstick: &mut Yardstick) -> Sliced {
    let (mut session, _) = build(workload, seed);
    workload.warm_up(&mut session);
    let slice = workload.slice();
    let slices = workload.window().as_nanos() / slice.as_nanos();
    let updates_before = remote_updates(&session);
    let mut slices_ms = Vec::with_capacity(slices as usize);
    let mut kernel_ms = Vec::new();
    for i in 1..=slices as usize {
        let start = Instant::now();
        session.run_for(slice);
        slices_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if i % KERNEL_EVERY == 0 {
            kernel_ms.push(yardstick.time_ms());
        }
    }
    let sim_s = workload.window().as_secs_f64();
    let clients = remote_clients(&session).count().max(1) as f64;
    let goodput_hz = (remote_updates(&session) - updates_before) as f64 / clients / sim_s;
    let m2p_p99_ms = session
        .sim()
        .metrics()
        .histogram_if_present("client.display_latency_ns")
        .map_or(0.0, |h| interpolated_percentile(h, 99.0) / 1e6);
    Sliced {
        slices_ms,
        kernel_ms,
        m2p_p99_ms,
        goodput_hz,
        checked: Checked::of(workload, &session),
    }
}

/// Runs the window as one `run_for`; slicing must not change the result.
pub fn whole(workload: Workload, seed: u64) -> Checked {
    let (mut session, _) = build(workload, seed);
    workload.warm_up(&mut session);
    session.run_for(workload.window());
    Checked::of(workload, &session)
}

/// Registry counters read at both ends of a traced window.
pub const WINDOW_COUNTERS: [&str; 20] = [
    "cloud.fanout_updates",
    "overload.fanout_deferred",
    "overload.joins_admitted",
    "overload.joins_deferred",
    "overload.joins_rejected",
    "overload.pool_joins_admitted",
    "overload.pool_joins_deferred",
    "edge.updates_sent",
    "edge.updates_suppressed",
    "pool.members_arrived",
    "pool.members_left",
    "engine.ops_pool.hit",
    "engine.ops_pool.miss",
    "net.sent",
    "net.delivered",
    "net.dropped.loss",
    "net.dropped.queue",
    "net.dropped.down",
    "net.dropped.node_down",
    "net.dropped.no_route",
];

/// One traced or untraced episode run to the end of the window plus one
/// event (see [`traced_window`]).
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Host wall time of the window, nanoseconds.
    pub wall_ns: u64,
    /// Per-layer attribution (traced episodes only).
    pub layers: Option<LayerTimes>,
    /// Median time of the reference kernel around the window, milliseconds.
    pub kernel_ms: f64,
    /// Simulation events processed in the window.
    pub events: u64,
    /// [`WINDOW_COUNTERS`] deltas over the window.
    pub counters: [u64; WINDOW_COUNTERS.len()],
    /// `engine.env_slab.high_water` at the end.
    pub env_slab_high_water: u64,
    /// Output checks.
    pub checked: Checked,
}

/// Timed reference-kernel runs on each side of a stepped window.
const KERNEL_RUNS: usize = 32;

/// Runs one episode for the per-layer table, traced or not, timing
/// `yardstick` on both sides of the window.
pub fn stepped(workload: Workload, seed: u64, traced: bool, yardstick: &mut Yardstick) -> Stepped {
    let (mut session, _) = build(workload, seed);
    workload.warm_up(&mut session);
    let read = |s: &ClassroomSession| WINDOW_COUNTERS.map(|c| s.sim().metrics().counter_value(c));
    let before = read(&session);
    let events_before = session.sim().events_processed();
    let end: SimTime = session.time() + workload.window();
    let mut kernel: Vec<f64> = (0..KERNEL_RUNS).map(|_| yardstick.time_ms()).collect();
    let (wall_ns, layers) = if traced {
        let layers = traced_window(&mut session, end);
        (layers.wall_ns, Some(layers))
    } else {
        let start = Instant::now();
        session.run_for(workload.window());
        session.sim_mut().step();
        (start.elapsed().as_nanos() as u64, None)
    };
    kernel.extend((0..KERNEL_RUNS).map(|_| yardstick.time_ms()));
    let after = read(&session);
    let mut counters = [0; WINDOW_COUNTERS.len()];
    for i in 0..counters.len() {
        counters[i] = after[i] - before[i];
    }
    Stepped {
        wall_ns,
        layers,
        kernel_ms: median(&kernel),
        events: session.sim().events_processed() - events_before,
        counters,
        env_slab_high_water: session.sim().metrics().counter_value("engine.env_slab.high_water"),
        checked: Checked::of(workload, &session),
    }
}
