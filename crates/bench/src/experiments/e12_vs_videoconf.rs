//! E12 — Metaverse classroom vs video conferencing (§1, §3.3).
//!
//! The paper's motivating comparison: "Zoom enables synchronous teaching but
//! lacks motivation and engagement", and on the systems side avatar data
//! "account for less traffic than live video streaming". Measures the avatar
//! stack's per-participant bandwidth from real sessions and compares against
//! an SFU video-conference model at the same class sizes.

use metaclass_core::{Activity, SessionBuilder, TeachingModality};
use metaclass_media::VideoConfig;
use metaclass_netsim::{LinkClass, Region, SimDuration};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// One class-size row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Total participants.
    pub class_size: u32,
    /// Video-conference server egress, Mbit/s (SFU forwarding model).
    pub videoconf_egress_mbps: f64,
    /// Metaverse per-participant downstream, kbit/s (measured).
    pub metaverse_per_participant_kbps: f64,
    /// Metaverse total egress including one shared lecture video, Mbit/s.
    pub metaverse_egress_mbps: f64,
}

/// Outcome of E12.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Rendered tables.
    pub tables: Vec<Table>,
}

/// SFU egress: every participant receives up to `grid` webcam tiles.
fn sfu_egress_bps(class_size: u32, grid: u32) -> f64 {
    let tile = VideoConfig::webcam_tile().bitrate_bps as f64;
    class_size as f64 * (class_size.saturating_sub(1).min(grid)) as f64 * tile
}

fn measure(class_size: u32, secs: u64, ctx: &RunCtx) -> Row {
    // All participants remote (the honest comparison with a Zoom class).
    let mut session = SessionBuilder::new()
        .seed(mix_seed(ctx.seed, 0xE12 ^ class_size as u64))
        .activity(Activity::Seminar)
        .campus("studio", Region::EastAsia, 1, true) // the instructor's studio
        .remote_cohort(Region::EastAsia, class_size - 2, LinkClass::ResidentialAccess)
        .build();
    session.run_for(SimDuration::from_secs(secs));
    let report = session.report();

    let per_participant = report.fanout_bandwidth_bps() / (class_size - 2).max(1) as f64;
    // Shared lecture camera, multicast once per participant.
    let lecture_video = VideoConfig::lecture_camera().bitrate_bps as f64;
    let metaverse_egress = report.fanout_bandwidth_bps() + lecture_video * (class_size - 2) as f64;
    Row {
        class_size,
        videoconf_egress_mbps: sfu_egress_bps(class_size, 25) / 1e6,
        metaverse_per_participant_kbps: per_participant / 1e3,
        metaverse_egress_mbps: metaverse_egress / 1e6,
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let (sizes, secs): (&[u32], u64) =
        if quick { (&[10, 40], 3) } else { (&[10, 30, 100, 300], 10) };
    let rows: Vec<Row> = sizes.iter().map(|&n| measure(n, secs, ctx)).collect();

    let mut t1 = Table::new(
        "E12a: server egress — SFU video conference vs Metaverse classroom",
        &[
            "class size",
            "videoconf (Mbit/s)",
            "metaverse avatars (kbit/s/user)",
            "metaverse total (Mbit/s)",
            "ratio",
        ],
    );
    for r in &rows {
        t1.row_strings(vec![
            r.class_size.to_string(),
            format!("{:.0}", r.videoconf_egress_mbps),
            format!("{:.1}", r.metaverse_per_participant_kbps),
            format!("{:.1}", r.metaverse_egress_mbps),
            format!("{:.1}x", r.videoconf_egress_mbps / r.metaverse_egress_mbps),
        ]);
    }

    let mut t2 = Table::new(
        "E12b: modality comparison (the survey's qualitative table)",
        &["modality", "remote access", "immersive 3D", "blended", "engagement"],
    );
    for m in TeachingModality::ALL {
        t2.row_strings(vec![
            m.to_string(),
            if m.remote_access() { "yes".into() } else { "no".into() },
            if m.immersive_3d() { "yes".into() } else { "no".into() },
            if m.blends_physical_and_virtual() { "yes".into() } else { "no".into() },
            format!("{:.2}", m.engagement_score()),
        ]);
    }

    Outcome { rows, tables: vec![t1, t2] }
}

/// E12 as a sweepable [`Experiment`].
pub struct E12VsVideoconf;

impl Experiment for E12VsVideoconf {
    fn id(&self) -> &'static str {
        "e12"
    }

    fn title(&self) -> &'static str {
        "server egress: SFU video conference vs metaverse classroom"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let key = format!("class_{}", row.class_size);
            r.scalar(format!("{key}_videoconf_egress_mbps"), row.videoconf_egress_mbps);
            r.scalar(
                format!("{key}_metaverse_per_participant_kbps"),
                row.metaverse_per_participant_kbps,
            );
            r.scalar(format!("{key}_metaverse_egress_mbps"), row.metaverse_egress_mbps);
        }
        for t in out.tables {
            r.table(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::{RunCtx, Scale};

    #[test]
    fn avatar_sync_is_orders_of_magnitude_cheaper_than_per_user_video() {
        let out = super::run(&RunCtx::new(Scale::Quick, 0));
        for r in &out.rows {
            // Avatar traffic per user is far below a single webcam tile.
            assert!(
                r.metaverse_per_participant_kbps < 300.0,
                "size {}: {} kbit/s",
                r.class_size,
                r.metaverse_per_participant_kbps
            );
            // Even with a shared lecture video, total egress beats the SFU.
            assert!(
                r.videoconf_egress_mbps > 2.0 * r.metaverse_egress_mbps,
                "size {}: videoconf {} vs metaverse {}",
                r.class_size,
                r.videoconf_egress_mbps,
                r.metaverse_egress_mbps
            );
        }
        // The gap widens with class size (SFU grows ~quadratically to the cap).
        let first = &out.rows[0];
        let last = out.rows.last().unwrap();
        let gap = |r: &super::Row| r.videoconf_egress_mbps / r.metaverse_egress_mbps;
        assert!(gap(last) > gap(first));
    }
}
