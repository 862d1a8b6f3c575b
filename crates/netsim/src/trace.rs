//! Event tracing for audits and determinism tests.

use serde::{Deserialize, Serialize};

use crate::fault::FaultAction;
use crate::fnv::Fnv1a;
use crate::link::DropReason;
use crate::node::NodeId;
use crate::observe::SimEvent;
use crate::time::SimTime;

/// What happened at a traced instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A message was offered to the network by its source.
    Sent,
    /// A message reached its final destination.
    Delivered,
    /// A message was dropped en route.
    Dropped(DropReason),
    /// No route existed from the forwarding node to the destination.
    NoRoute,
    /// A timer fired at a node.
    TimerFired {
        /// The timer's tag.
        tag: u64,
    },
    /// A scripted fault action was executed by the engine.
    Fault {
        /// Discriminant of the executed [`FaultAction`](crate::FaultAction).
        code: u64,
    },
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Message source (or the timer's node).
    pub src: NodeId,
    /// Message destination (or the timer's node).
    pub dst: NodeId,
    /// Message wire size in bytes (zero for timers).
    pub size_bytes: u32,
}

impl TraceEvent {
    /// The record an engine event at `at` leaves in the trace, or `None`
    /// for events the trace does not keep (injections). Fault records name
    /// the affected link's endpoints or node, and node 0 for partitions
    /// and heals.
    pub(crate) fn of(at: SimTime, event: &SimEvent<'_>) -> Option<TraceEvent> {
        let (kind, src, dst, size_bytes) = match *event {
            SimEvent::Sent { src, dst, size_bytes } => (TraceKind::Sent, src, dst, size_bytes),
            SimEvent::Delivered { src, dst, size_bytes, .. } => {
                (TraceKind::Delivered, src, dst, size_bytes)
            }
            SimEvent::Dropped { src, dst, size_bytes, reason } => {
                (TraceKind::Dropped(reason), src, dst, size_bytes)
            }
            SimEvent::NoRoute { src, dst, size_bytes } => {
                (TraceKind::NoRoute, src, dst, size_bytes)
            }
            SimEvent::TimerFired { node, tag } => (TraceKind::TimerFired { tag }, node, node, 0),
            SimEvent::Fault { action } => {
                let (src, dst) = match *action {
                    FaultAction::LinkDown { a, b }
                    | FaultAction::LinkUp { a, b }
                    | FaultAction::LossBurstStart { a, b, .. }
                    | FaultAction::LossBurstEnd { a, b }
                    | FaultAction::LatencySpikeStart { a, b, .. }
                    | FaultAction::LatencySpikeEnd { a, b } => (a, b),
                    FaultAction::CrashNode { node } | FaultAction::RestartNode { node } => {
                        (node, node)
                    }
                    FaultAction::Partition { .. } | FaultAction::Heal => (NodeId(0), NodeId(0)),
                };
                (TraceKind::Fault { code: action.code() }, src, dst, 0)
            }
            SimEvent::Injected { .. } => return None,
        };
        Some(TraceEvent { at, kind, src, dst, size_bytes })
    }
}

/// A bounded in-memory event trace.
///
/// Recording stops silently once `capacity` events have been stored; the
/// [`Trace::truncated`] flag reports whether that happened.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    truncated: bool,
}

impl Trace {
    /// Creates a trace storing at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace { events: Vec::new(), capacity, truncated: false }
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.truncated = true;
        }
    }

    /// The recorded events, in order of occurrence.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether events were discarded because capacity was reached.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// An order-sensitive 64-bit digest of the trace (FNV-1a over the fields),
    /// for cheap determinism assertions: two runs with the same seed must
    /// produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for ev in &self.events {
            h.write_u64(ev.at.as_nanos());
            let kind_code: u64 = match ev.kind {
                TraceKind::Sent => 1,
                TraceKind::Delivered => 2,
                TraceKind::Dropped(DropReason::QueueFull) => 3,
                TraceKind::Dropped(DropReason::Loss) => 4,
                TraceKind::Dropped(DropReason::LinkDown) => 5,
                TraceKind::NoRoute => 6,
                TraceKind::TimerFired { tag } => 7 ^ (tag << 8),
                TraceKind::Dropped(DropReason::NodeDown) => 8,
                TraceKind::Fault { code } => 9 ^ (code << 8),
            };
            h.write_u64(kind_code);
            h.write_u64(ev.src.index() as u64);
            h.write_u64(ev.dst.index() as u64);
            h.write_u64(ev.size_bytes as u64);
        }
        h.finish()
    }

    /// The [`Trace::fingerprint`] rendered as a fixed-width lowercase hex
    /// string, the form used in machine-readable result files where a JSON
    /// number would lose precision past 2^53.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(nanos),
            kind,
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 10,
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Trace::new(2);
        t.push(ev(1, TraceKind::Sent));
        t.push(ev(2, TraceKind::Delivered));
        t.push(ev(3, TraceKind::Sent));
        assert_eq!(t.len(), 2);
        assert!(t.truncated());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::Sent));
        a.push(ev(2, TraceKind::Delivered));
        let mut b = Trace::new(10);
        b.push(ev(2, TraceKind::Delivered));
        b.push(ev(1, TraceKind::Sent));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_timer_tags() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::TimerFired { tag: 1 }));
        let mut b = Trace::new(10);
        b.push(ev(1, TraceKind::TimerFired { tag: 2 }));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_fault_codes() {
        let mut a = Trace::new(10);
        a.push(ev(1, TraceKind::Fault { code: 1 }));
        let mut b = Trace::new(10);
        b.push(ev(1, TraceKind::Fault { code: 2 }));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = Trace::new(10);
        c.push(ev(1, TraceKind::Dropped(DropReason::NodeDown)));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_hex_is_fixed_width_and_consistent() {
        let mut t = Trace::new(10);
        t.push(ev(1, TraceKind::Sent));
        let hex = t.fingerprint_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(hex, format!("{:016x}", t.fingerprint()));
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn identical_traces_match() {
        let mut a = Trace::new(10);
        let mut b = Trace::new(10);
        for t in [a.events.len() as u64, 5, 9] {
            a.push(ev(t, TraceKind::Sent));
            b.push(ev(t, TraceKind::Sent));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
