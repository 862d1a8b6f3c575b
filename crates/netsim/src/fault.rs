//! Scripted fault injection.
//!
//! A fault is scripted as a [`FaultWindow`] — a link flap, loss burst,
//! latency spike, network partition, or node crash/restart cycle over a
//! time span — and a list of windows is installed with
//! [`Simulation::apply_faults`](crate::Simulation::apply_faults), which
//! executes each window's opening and closing [`FaultAction`] as ordinary
//! engine events. Because the schedule is data (not callbacks), it is fully
//! replayable: the same seed and windows produce byte-identical traces and
//! metrics across runs.

use serde::{Deserialize, Serialize};

use crate::link::LossModel;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// One scripted fault, applied at a scheduled instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Administratively takes both directions between `a` and `b` down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restores both directions between `a` and `b`.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Replaces the loss process on both directions between `a` and `b`.
    LossBurstStart {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The loss process in effect during the burst.
        loss: LossModel,
    },
    /// Restores the configured loss process between `a` and `b`.
    LossBurstEnd {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Adds extra propagation delay on both directions between `a` and `b`.
    LatencySpikeStart {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Delay added on top of the configured propagation delay.
        extra: SimDuration,
    },
    /// Removes the extra delay between `a` and `b`.
    LatencySpikeEnd {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Severs every link whose endpoints fall in different groups.
    Partition {
        /// Disjoint node groups; nodes absent from all groups are unaffected.
        groups: Vec<Vec<NodeId>>,
    },
    /// Heals all partition-severed links (admin-down links stay down).
    Heal,
    /// Crashes a node: its state is reset via
    /// [`Node::on_crash`](crate::Node::on_crash), pending timers are voided,
    /// and traffic addressed to it is blackholed until restart.
    CrashNode {
        /// The node to crash.
        node: NodeId,
    },
    /// Restarts a crashed node; `on_start` runs again to re-arm timers.
    RestartNode {
        /// The node to restart.
        node: NodeId,
    },
}

impl FaultAction {
    /// Stable discriminant used in traces and metrics.
    pub fn code(&self) -> u64 {
        match self {
            FaultAction::LinkDown { .. } => 1,
            FaultAction::LinkUp { .. } => 2,
            FaultAction::LossBurstStart { .. } => 3,
            FaultAction::LossBurstEnd { .. } => 4,
            FaultAction::LatencySpikeStart { .. } => 5,
            FaultAction::LatencySpikeEnd { .. } => 6,
            FaultAction::Partition { .. } => 7,
            FaultAction::Heal => 8,
            FaultAction::CrashNode { .. } => 9,
            FaultAction::RestartNode { .. } => 10,
        }
    }

    /// Metrics counter name bumped when this action executes.
    pub fn metric(&self) -> &'static str {
        match self {
            FaultAction::LinkDown { .. } => "fault.link_down",
            FaultAction::LinkUp { .. } => "fault.link_up",
            FaultAction::LossBurstStart { .. } => "fault.loss_burst_start",
            FaultAction::LossBurstEnd { .. } => "fault.loss_burst_end",
            FaultAction::LatencySpikeStart { .. } => "fault.latency_spike_start",
            FaultAction::LatencySpikeEnd { .. } => "fault.latency_spike_end",
            FaultAction::Partition { .. } => "fault.partition",
            FaultAction::Heal => "fault.heal",
            FaultAction::CrashNode { .. } => "fault.crash",
            FaultAction::RestartNode { .. } => "fault.restart",
        }
    }
}

/// One self-contained disturbance over `[from, until)`: the only way to
/// script a fault.
///
/// Every start carries its end, so any subset of a window list is still a
/// well-formed schedule (no crash without restart, no partition without
/// heal). [`Simulation::apply_faults`](crate::Simulation::apply_faults)
/// lowers window *i* to its start [`FaultAction`] at `from` and its end
/// action at `until`, then orders all actions by time, keeping list order
/// for actions at the same instant. Serializable so failing schedules can be
/// persisted and replayed.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{FaultWindow, NodeId, SimTime};
///
/// let flap = FaultWindow::LinkFlap {
///     a: NodeId::from_index(0),
///     b: NodeId::from_index(1),
///     from: SimTime::from_secs(1),
///     until: SimTime::from_secs(2),
/// };
/// assert_eq!(flap.kind(), "link_flap");
/// assert_eq!(flap.until(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultWindow {
    /// Administrative link outage of the `a`–`b` connection.
    LinkFlap {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Loss-process override on the `a`–`b` connection.
    LossBurst {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Loss process in effect during the burst.
        loss: LossModel,
    },
    /// Extra propagation delay on the `a`–`b` connection.
    LatencySpike {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Added one-way delay.
        extra: SimDuration,
    },
    /// Network partition into the given groups, healed at `until`.
    Partition {
        /// Disjoint node groups; nodes absent from all groups are
        /// unaffected.
        groups: Vec<Vec<NodeId>>,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Node crash at `from`, restart at `until`.
    CrashRestart {
        /// The node to crash and restart.
        node: NodeId,
        /// Crash instant.
        from: SimTime,
        /// Restart instant.
        until: SimTime,
    },
}

impl FaultWindow {
    /// Window start time.
    pub fn from(&self) -> SimTime {
        match self {
            FaultWindow::LinkFlap { from, .. }
            | FaultWindow::LossBurst { from, .. }
            | FaultWindow::LatencySpike { from, .. }
            | FaultWindow::Partition { from, .. }
            | FaultWindow::CrashRestart { from, .. } => *from,
        }
    }

    /// Window end time.
    pub fn until(&self) -> SimTime {
        match self {
            FaultWindow::LinkFlap { until, .. }
            | FaultWindow::LossBurst { until, .. }
            | FaultWindow::LatencySpike { until, .. }
            | FaultWindow::Partition { until, .. }
            | FaultWindow::CrashRestart { until, .. } => *until,
        }
    }

    /// Short kind label for logs and file names.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultWindow::LinkFlap { .. } => "link_flap",
            FaultWindow::LossBurst { .. } => "loss_burst",
            FaultWindow::LatencySpike { .. } => "latency_spike",
            FaultWindow::Partition { .. } => "partition",
            FaultWindow::CrashRestart { .. } => "crash_restart",
        }
    }

    /// The actions that open and close this window.
    pub(crate) fn actions(&self) -> (FaultAction, FaultAction) {
        match self {
            FaultWindow::LinkFlap { a, b, .. } => {
                (FaultAction::LinkDown { a: *a, b: *b }, FaultAction::LinkUp { a: *a, b: *b })
            }
            FaultWindow::LossBurst { a, b, loss, .. } => (
                FaultAction::LossBurstStart { a: *a, b: *b, loss: *loss },
                FaultAction::LossBurstEnd { a: *a, b: *b },
            ),
            FaultWindow::LatencySpike { a, b, extra, .. } => (
                FaultAction::LatencySpikeStart { a: *a, b: *b, extra: *extra },
                FaultAction::LatencySpikeEnd { a: *a, b: *b },
            ),
            FaultWindow::Partition { groups, .. } => {
                (FaultAction::Partition { groups: groups.clone() }, FaultAction::Heal)
            }
            FaultWindow::CrashRestart { node, .. } => {
                (FaultAction::CrashNode { node: *node }, FaultAction::RestartNode { node: *node })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Runs `windows` on a quiet triangle (0-1, 1-2, 0-2) and returns the
    /// executed actions with their instants, as an observer sees them.
    fn executed(windows: &[FaultWindow]) -> Vec<(SimTime, FaultAction)> {
        use std::sync::{Arc, Mutex};
        struct Idle;
        impl crate::Node<()> for Idle {
            fn on_message(&mut self, _: &mut crate::Context<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut sim = crate::Simulation::new(1);
        let nodes: Vec<NodeId> = (0..3).map(|i| sim.add_node(format!("n{i}"), Idle)).collect();
        let cfg = crate::LinkConfig::new(SimDuration::from_millis(1));
        sim.connect(nodes[0], nodes[1], cfg);
        sim.connect(nodes[1], nodes[2], cfg);
        sim.connect(nodes[0], nodes[2], cfg);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        sim.set_observer(move |view: &crate::SimView<'_>, ev: &crate::SimEvent<'_>| {
            if let crate::SimEvent::Fault { action } = ev {
                log.lock().unwrap().push((view.time(), (*action).clone()));
            }
        });
        sim.apply_faults(windows);
        sim.run_until_idle();
        let out = seen.lock().unwrap().clone();
        out
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn windows_lower_to_paired_actions_in_time_order() {
        let got = executed(&[
            FaultWindow::LinkFlap { a: n(0), b: n(1), from: ms(5), until: ms(9) },
            FaultWindow::LossBurst {
                a: n(1),
                b: n(2),
                from: ms(1),
                until: ms(2),
                loss: LossModel::Iid { p: 0.5 },
            },
        ]);
        let times: Vec<SimTime> = got.iter().map(|(at, _)| *at).collect();
        assert_eq!(times, [ms(1), ms(2), ms(5), ms(9)]);
        assert!(matches!(got[0].1, FaultAction::LossBurstStart { .. }));
        assert!(matches!(got[1].1, FaultAction::LossBurstEnd { .. }));
        assert!(matches!(got[2].1, FaultAction::LinkDown { .. }));
        assert!(matches!(got[3].1, FaultAction::LinkUp { .. }));
    }

    #[test]
    fn actions_at_equal_times_run_in_list_order() {
        // Both crashes open at 3 ms; both restarts land at 7 ms.
        let got = executed(&[
            FaultWindow::CrashRestart { node: n(2), from: ms(3), until: ms(7) },
            FaultWindow::CrashRestart { node: n(0), from: ms(3), until: ms(7) },
        ]);
        assert_eq!(
            got,
            [
                (ms(3), FaultAction::CrashNode { node: n(2) }),
                (ms(3), FaultAction::CrashNode { node: n(0) }),
                (ms(7), FaultAction::RestartNode { node: n(2) }),
                (ms(7), FaultAction::RestartNode { node: n(0) }),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "restart must follow the crash")]
    fn inverted_crash_window_is_rejected() {
        executed(&[FaultWindow::CrashRestart { node: n(0), from: ms(5), until: ms(5) }]);
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn inverted_link_window_is_rejected() {
        executed(&[FaultWindow::LinkFlap { a: n(0), b: n(1), from: ms(5), until: ms(4) }]);
    }

    #[test]
    fn codes_and_metrics_are_distinct() {
        let actions = [
            FaultAction::LinkDown { a: n(0), b: n(1) },
            FaultAction::LinkUp { a: n(0), b: n(1) },
            FaultAction::LossBurstStart { a: n(0), b: n(1), loss: LossModel::None },
            FaultAction::LossBurstEnd { a: n(0), b: n(1) },
            FaultAction::LatencySpikeStart { a: n(0), b: n(1), extra: SimDuration::ZERO },
            FaultAction::LatencySpikeEnd { a: n(0), b: n(1) },
            FaultAction::Partition { groups: vec![] },
            FaultAction::Heal,
            FaultAction::CrashNode { node: n(0) },
            FaultAction::RestartNode { node: n(0) },
        ];
        let mut codes: Vec<u64> = actions.iter().map(|a| a.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), actions.len());
        let mut metrics: Vec<&str> = actions.iter().map(|a| a.metric()).collect();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), actions.len());
    }
}
