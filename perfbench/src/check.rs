//! Output checks: a fingerprint of everything a run computed, and the
//! invariants every run must keep.

use metaclass_core::ClassroomSession;
use metaclass_edge::CloudServerNode;

use crate::workload::{all_remote_admitted, Workload};

/// What a finished run computed, for the output checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// [`fingerprint`] of the session at the end of the run.
    pub fingerprint: u64,
    /// Invariant breaches, one line each.
    pub violations: Vec<String>,
}

impl Checked {
    /// Fingerprints `session` and checks its invariants.
    pub fn of(workload: Workload, session: &ClassroomSession) -> Checked {
        Checked { fingerprint: fingerprint(session), violations: violations(workload, session) }
    }
}

/// FNV-1a over the serialized [`metaclass_core::SessionReport`] and the
/// metrics snapshot without the `engine.` namespace, which describes the
/// executor rather than the simulated classroom.
pub fn fingerprint(session: &ClassroomSession) -> u64 {
    let report = serde_json::to_string(&session.report()).expect("report serializes");
    let snapshot = session.sim().metrics().snapshot().without_prefix("engine.");
    let metrics = serde_json::to_string(&snapshot).expect("snapshot serializes");
    fnv1a(&[report.as_bytes(), b"\n", metrics.as_bytes()])
}

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|p| p.iter()) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The engine's drop counters, one per drop reason.
pub const DROP_COUNTERS: [&str; 5] = [
    "net.dropped.loss",
    "net.dropped.queue",
    "net.dropped.down",
    "net.dropped.node_down",
    "net.dropped.no_route",
];

/// Packets dropped in transit, over every drop reason.
pub fn net_dropped(session: &ClassroomSession) -> u64 {
    let m = session.sim().metrics();
    DROP_COUNTERS.iter().map(|c| m.counter_value(c)).sum()
}

/// The invariants a finished run must keep; returns one line per breach.
pub fn violations(workload: Workload, session: &ClassroomSession) -> Vec<String> {
    let mut out = Vec::new();
    let m = session.sim().metrics();
    let (sent, delivered, dropped) =
        (m.counter_value("net.sent"), m.counter_value("net.delivered"), net_dropped(session));
    if delivered + dropped > sent {
        out.push(format!("delivered {delivered} + dropped {dropped} > sent {sent}"));
    }
    let cloud = session.sim().node_as::<CloudServerNode>(session.cloud()).expect("cloud node");
    for (queue, depth, capacity) in cloud.overload_queues() {
        if depth > capacity {
            out.push(format!("{queue}: depth {depth} over capacity {capacity}"));
        }
    }
    if workload == Workload::PlanetChurn && !all_remote_admitted(session) {
        out.push("a planet_churn tracer was not admitted by the end".to_string());
    }
    out
}
