//! E15 — Flash crowd: admission control and goodput under join bursts.
//!
//! §4's always-on blended classroom admits latecomers continuously; the
//! failure mode worth measuring is the *flash crowd* — a whole cohort
//! arriving at once (a popular guest lecture, a campus-wide broadcast, a
//! reconnect storm after a regional outage). Without admission control the
//! burst's join and pose traffic competes head-on with the students already
//! in class.
//!
//! The scenario: one physical campus plus a steady remote cohort that joins
//! at a modest staggered rate, then a burst cohort whose entire membership
//! joins in the same instant — at least 8× the steady arrival rate for
//! every swept burst size. The cloud runs a deliberately tight token-bucket
//! admission gate (small burst allowance, bounded waiting room) so the
//! overload machinery actually engages.
//!
//! For each burst size we report the admission ledger (admitted / deferred
//! / rejected), the p99 join wait across the burst, the p99 capture→display
//! latency, and — the headline — **goodput retention**: display updates per
//! steady client per second after the burst lands, as a fraction of the
//! same window in an otherwise identical run with no burst. The blueprint
//! wants ≥ 80% retention; the quick-scale test enforces it.

use metaclass_core::{Activity, SessionBuilder, SessionConfig};
use metaclass_edge::{CloudServerNode, OverloadConfig, RemoteClientNode};
use metaclass_netsim::{LinkClass, Region, SimDuration};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// One burst-size measurement.
#[derive(Debug, Clone)]
pub struct BurstRow {
    /// Clients in the burst cohort (0 = the no-burst baseline row).
    pub burst: u32,
    /// Joins admitted / deferred / rejected at the cloud, cumulative.
    pub admitted: u64,
    /// Deferred count (waiting-room parks, including re-asks).
    pub deferred: u64,
    /// Rejected count (waiting-room overflow).
    pub rejected: u64,
    /// Clients admitted by the end of the run, out of everyone who tried.
    pub admitted_clients: usize,
    /// Expected total client population (steady + burst).
    pub population: usize,
    /// p99 of first-join-sent → admitted across all clients, ms.
    pub p99_join_wait_ms: f64,
    /// Display updates per steady client per second in the post-burst
    /// window.
    pub steady_goodput_hz: f64,
    /// `steady_goodput_hz` relative to the no-burst baseline window.
    pub goodput_ratio: f64,
    /// p99 capture→display latency at VR clients, ms.
    pub p99_display_ms: f64,
    /// Highest fill any bounded cloud queue reached, as max_depth/capacity.
    pub worst_queue_fill: f64,
}

/// Outcome of E15.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-client-per-second goodput of the baseline (no burst) window.
    pub baseline_goodput_hz: f64,
    /// One row per swept burst size.
    pub rows: Vec<BurstRow>,
    /// Rendered table.
    pub table: Table,
}

/// The deliberately tight admission tuning E15 runs under: 4 joins admitted
/// instantly, one token back every 50 ms (20 joins/s sustained), 32 parked
/// deferrals before outright rejection.
fn overload_config() -> OverloadConfig {
    let mut cfg = OverloadConfig::default();
    cfg.admission.burst = 4;
    cfg.admission.refill_every = SimDuration::from_millis(50);
    cfg.admission.waiting_room = 32;
    cfg
}

struct RunShape {
    students: u32,
    steady: u32,
    /// Steady cohort joins one client per this interval (the steady-state
    /// join rate the burst is measured against).
    stagger: SimDuration,
    burst_at: SimDuration,
    horizon: SimDuration,
}

fn shape(quick: bool) -> RunShape {
    if quick {
        RunShape {
            students: 2,
            steady: 4,
            stagger: SimDuration::from_millis(250),
            burst_at: SimDuration::from_secs(2),
            horizon: SimDuration::from_secs(6),
        }
    } else {
        RunShape {
            students: 4,
            steady: 8,
            stagger: SimDuration::from_millis(250),
            burst_at: SimDuration::from_secs(4),
            horizon: SimDuration::from_secs(14),
        }
    }
}

struct RunResult {
    admitted: u64,
    deferred: u64,
    rejected: u64,
    admitted_clients: usize,
    population: usize,
    p99_join_wait_ms: f64,
    steady_goodput_hz: f64,
    p99_display_ms: f64,
    worst_queue_fill: f64,
}

/// Runs one session: the steady cohort always, plus `burst` clients joining
/// all at once at `shape.burst_at`. Goodput is counted over the post-burst
/// window `[burst_at, horizon]` for the *steady* clients only.
fn run_once(ctx: &RunCtx, sh: &RunShape, burst: u32) -> RunResult {
    let mut cfg = SessionConfig::default();
    cfg.server.overload = overload_config();
    let mut builder = SessionBuilder::new()
        .seed(mix_seed(ctx.seed, 0xE15))
        .activity(Activity::Lecture)
        .server_config(cfg.server)
        .campus("CWB", Region::EastAsia, sh.students, true)
        .remote_cohort_joining(
            Region::EastAsia,
            sh.steady,
            LinkClass::ResidentialAccess,
            SimDuration::ZERO,
            sh.stagger,
        );
    if burst > 0 {
        builder = builder.remote_cohort_joining(
            Region::EastAsia,
            burst,
            LinkClass::ResidentialAccess,
            sh.burst_at,
            SimDuration::ZERO,
        );
    }
    let mut session = builder.build();

    // The steady cohort was added first, so its learners are the first
    // `steady` remote participants.
    let steady_nodes: Vec<_> = session
        .participants()
        .iter()
        .filter(|p| matches!(p.role, metaclass_core::Role::RemoteLearner { .. }))
        .take(sh.steady as usize)
        .map(|p| p.node)
        .collect();
    assert_eq!(steady_nodes.len(), sh.steady as usize);

    session.run_for(sh.burst_at);
    let before: u64 = steady_nodes
        .iter()
        .map(|&n| session.sim().node_as::<RemoteClientNode>(n).expect("client").updates_received())
        .sum();
    session.run_for(sh.horizon.saturating_sub(sh.burst_at));
    let after: u64 = steady_nodes
        .iter()
        .map(|&n| session.sim().node_as::<RemoteClientNode>(n).expect("client").updates_received())
        .sum();
    let window_secs = sh.horizon.saturating_sub(sh.burst_at).as_secs_f64();
    let steady_goodput_hz = (after - before) as f64 / sh.steady as f64 / window_secs;

    let cloud =
        session.sim().node_as::<CloudServerNode>(session.cloud()).expect("cloud server node");
    let (admitted, deferred, rejected) = cloud.admission().totals();
    let admitted_clients = cloud.admission().admitted_count();
    let mut worst_queue_fill = 0.0f64;
    for (name, depth, cap) in cloud.overload_queues() {
        assert!(depth <= cap, "bounded queue {name} overflowed: {depth} > {cap}");
        worst_queue_fill = worst_queue_fill.max(depth as f64 / cap.max(1) as f64);
    }

    let m = session.sim().metrics();
    let p99_join_wait_ms = m
        .histogram_if_present("client.join_wait_ns")
        .map(|h| h.summary().p99 as f64 / 1e6)
        .unwrap_or(f64::NAN);
    let report = session.report();

    RunResult {
        admitted,
        deferred,
        rejected,
        admitted_clients,
        population: (sh.steady + burst) as usize,
        p99_join_wait_ms,
        steady_goodput_hz,
        p99_display_ms: report.vr_display_latency.p99 as f64 / 1e6,
        worst_queue_fill,
    }
}

/// Burst sizes swept at each scale. Every size is at least 8× the steady
/// arrival rate: the steady cohort joins at 4 clients/s, the burst lands
/// its whole membership within one access-link RTT (< 100 ms), so even the
/// smallest sweep point is an arrival rate two orders above steady.
fn burst_sizes(quick: bool) -> &'static [u32] {
    if quick {
        &[16]
    } else {
        &[16, 32, 64]
    }
}

/// Runs the sweep.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let sh = shape(quick);

    let baseline = run_once(ctx, &sh, 0);
    let baseline_goodput_hz = baseline.steady_goodput_hz;

    let mut rows = Vec::new();
    for &burst in burst_sizes(quick) {
        let r = run_once(ctx, &sh, burst);
        rows.push(BurstRow {
            burst,
            admitted: r.admitted,
            deferred: r.deferred,
            rejected: r.rejected,
            admitted_clients: r.admitted_clients,
            population: r.population,
            p99_join_wait_ms: r.p99_join_wait_ms,
            steady_goodput_hz: r.steady_goodput_hz,
            goodput_ratio: r.steady_goodput_hz / baseline_goodput_hz.max(f64::EPSILON),
            p99_display_ms: r.p99_display_ms,
            worst_queue_fill: r.worst_queue_fill,
        });
    }

    let mut table = Table::new(
        "E15: flash crowd (join burst vs steady-client goodput, tight admission)",
        &[
            "burst",
            "admitted/deferred/rejected",
            "clients in",
            "p99 join wait (ms)",
            "goodput (Hz/client)",
            "vs baseline",
            "p99 display (ms)",
            "worst queue fill",
        ],
    );
    table.row_strings(vec![
        "0 (baseline)".into(),
        format!("{}/{}/{}", baseline.admitted, baseline.deferred, baseline.rejected),
        format!("{}/{}", baseline.admitted_clients, baseline.population),
        format!("{:.0}", baseline.p99_join_wait_ms),
        format!("{:.1}", baseline_goodput_hz),
        "1.00".into(),
        format!("{:.1}", baseline.p99_display_ms),
        format!("{:.0}%", baseline.worst_queue_fill * 100.0),
    ]);
    for r in &rows {
        table.row_strings(vec![
            format!("{}", r.burst),
            format!("{}/{}/{}", r.admitted, r.deferred, r.rejected),
            format!("{}/{}", r.admitted_clients, r.population),
            format!("{:.0}", r.p99_join_wait_ms),
            format!("{:.1}", r.steady_goodput_hz),
            format!("{:.2}", r.goodput_ratio),
            format!("{:.1}", r.p99_display_ms),
            format!("{:.0}%", r.worst_queue_fill * 100.0),
        ]);
    }
    Outcome { baseline_goodput_hz, rows, table }
}

/// E15 as a sweepable [`Experiment`].
pub struct E15FlashCrowd;

impl Experiment for E15FlashCrowd {
    fn id(&self) -> &'static str {
        "e15"
    }

    fn title(&self) -> &'static str {
        "flash crowd: admission control and goodput under join bursts"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        r.scalar("baseline_goodput_hz", out.baseline_goodput_hz);
        for row in &out.rows {
            let p = format!("b{}", row.burst);
            r.scalar(format!("{p}_goodput_ratio"), row.goodput_ratio);
            r.scalar(format!("{p}_goodput_hz"), row.steady_goodput_hz);
            if row.p99_join_wait_ms.is_finite() {
                r.scalar(format!("{p}_p99_join_wait_ms"), row.p99_join_wait_ms);
            }
            r.scalar(format!("{p}_p99_display_ms"), row.p99_display_ms);
            r.scalar(format!("{p}_worst_queue_fill"), row.worst_queue_fill);
            r.metrics.add(&format!("{p}_admitted"), row.admitted);
            r.metrics.add(&format!("{p}_deferred"), row.deferred);
            r.metrics.add(&format!("{p}_rejected"), row.rejected);
            r.flag(format!("{p}_all_admitted"), row.admitted_clients == row.population);
        }
        r.table(out.table);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn burst_defers_joins_but_goodput_holds_and_everyone_gets_in() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        assert!(out.baseline_goodput_hz > 1.0, "baseline goodput {}", out.baseline_goodput_hz);
        let row = &out.rows[0];
        assert_eq!(row.burst, 16);
        // A 16-at-once burst against a 4-token bucket must park someone.
        assert!(row.deferred > 0, "tight admission never deferred anyone");
        // The acceptance bar: steady clients keep ≥ 80% of their pre-burst
        // goodput while the burst is absorbed.
        assert!(
            row.goodput_ratio >= 0.8,
            "steady goodput collapsed to {:.0}% of baseline",
            row.goodput_ratio * 100.0
        );
        // The waiting room drains: every steady and burst client is
        // admitted by the end of the run.
        assert_eq!(
            row.admitted_clients, row.population,
            "waiting room failed to drain: {}/{} admitted",
            row.admitted_clients, row.population
        );
        // No bounded queue ever exceeded its capacity.
        assert!(row.worst_queue_fill <= 1.0, "queue fill {}", row.worst_queue_fill);
    }
}
