//! Adaptive bitrate control.
//!
//! Remote learners sit behind wildly different access links (§3.3 mentions
//! "poorly interconnected" paths); a fixed-rate stream either starves good
//! links or drowns bad ones. This controller is a conservative
//! throughput-tracker with hysteresis: switch down immediately when the
//! estimated throughput can no longer carry the rung, switch up only after
//! the estimate has comfortably exceeded the next rung for several
//! consecutive observations.

use metaclass_netsim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::codec_model::VideoConfig;

/// The bitrate ladder, lowest rung first.
pub fn default_ladder() -> Vec<VideoConfig> {
    vec![
        VideoConfig {
            width: 640,
            height: 360,
            fps: 15.0,
            bitrate_bps: 300_000,
            keyframe_interval: 30,
        },
        VideoConfig {
            width: 854,
            height: 480,
            fps: 30.0,
            bitrate_bps: 800_000,
            keyframe_interval: 60,
        },
        VideoConfig {
            width: 1280,
            height: 720,
            fps: 30.0,
            bitrate_bps: 1_500_000,
            keyframe_interval: 60,
        },
        VideoConfig {
            width: 1920,
            height: 1080,
            fps: 30.0,
            bitrate_bps: 4_000_000,
            keyframe_interval: 60,
        },
        VideoConfig {
            width: 1920,
            height: 1080,
            fps: 60.0,
            bitrate_bps: 8_000_000,
            keyframe_interval: 120,
        },
    ]
}

/// Tuning of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbrConfig {
    /// A rung is sustainable if its bitrate ≤ `safety` × estimated throughput.
    pub safety: f64,
    /// Consecutive healthy observations required before switching up.
    pub up_stability: u32,
    /// EWMA factor for the throughput estimate (per observation).
    pub ewma_alpha: f64,
}

impl Default for AbrConfig {
    fn default() -> Self {
        AbrConfig { safety: 0.8, up_stability: 5, ewma_alpha: 0.25 }
    }
}

/// Throughput-tracking ABR controller over a bitrate ladder.
///
/// # Examples
///
/// ```
/// use metaclass_media::{default_ladder, AbrConfig, AbrController};
/// use metaclass_netsim::SimDuration;
///
/// let mut abr = AbrController::new(AbrConfig::default(), default_ladder());
/// for _ in 0..20 {
///     abr.observe(10_000_000.0, 0.0, SimDuration::from_millis(40)); // 10 Mbps, clean
/// }
/// assert_eq!(abr.current().bitrate_bps, 8_000_000); // climbed to the top rung
/// ```
#[derive(Debug, Clone)]
pub struct AbrController {
    cfg: AbrConfig,
    ladder: Vec<VideoConfig>,
    rung: usize,
    throughput_ewma: Option<f64>,
    healthy_streak: u32,
    switches: u64,
}

impl AbrController {
    /// Creates a controller starting on the lowest rung.
    ///
    /// # Panics
    ///
    /// Panics if `ladder` is empty or not sorted by ascending bitrate.
    pub fn new(cfg: AbrConfig, ladder: Vec<VideoConfig>) -> Self {
        assert!(!ladder.is_empty(), "ladder must be non-empty");
        assert!(
            ladder.windows(2).all(|w| w[0].bitrate_bps <= w[1].bitrate_bps),
            "ladder must be sorted by bitrate"
        );
        AbrController {
            cfg,
            ladder,
            rung: 0,
            throughput_ewma: None,
            healthy_streak: 0,
            switches: 0,
        }
    }

    /// The active rung.
    pub fn current(&self) -> &VideoConfig {
        &self.ladder[self.rung]
    }

    /// Index of the active rung.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Rung switches so far.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Feeds one observation window: measured goodput (bits/s), packet-loss
    /// fraction, and observed RTT, then applies the switching policy.
    pub fn observe(&mut self, goodput_bps: f64, loss: f64, _rtt: SimDuration) {
        // Loss deflates the usable-throughput estimate sharply.
        let effective = goodput_bps * (1.0 - loss.clamp(0.0, 1.0)).powi(2);
        let est = match self.throughput_ewma {
            None => effective,
            Some(prev) => prev + self.cfg.ewma_alpha * (effective - prev),
        };
        self.throughput_ewma = Some(est);

        let sustainable = |bps: u64| bps as f64 <= self.cfg.safety * est;

        if !sustainable(self.current().bitrate_bps) {
            // Down-switch immediately to the highest sustainable rung.
            let target = (0..=self.rung)
                .rev()
                .find(|&r| sustainable(self.ladder[r].bitrate_bps))
                .unwrap_or(0);
            if target != self.rung {
                self.rung = target;
                self.switches += 1;
            }
            self.healthy_streak = 0;
            return;
        }

        // Up-switch only after a stable healthy streak.
        if self.rung + 1 < self.ladder.len() && sustainable(self.ladder[self.rung + 1].bitrate_bps)
        {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.cfg.up_stability {
                self.rung += 1;
                self.switches += 1;
                self.healthy_streak = 0;
            }
        } else {
            self.healthy_streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt() -> SimDuration {
        SimDuration::from_millis(40)
    }

    #[test]
    fn starts_at_the_bottom() {
        let abr = AbrController::new(AbrConfig::default(), default_ladder());
        assert_eq!(abr.rung(), 0);
        assert_eq!(abr.current().bitrate_bps, 300_000);
    }

    #[test]
    fn climbs_gradually_on_a_clean_fat_pipe() {
        let mut abr = AbrController::new(AbrConfig::default(), default_ladder());
        let mut rungs = vec![abr.rung()];
        for _ in 0..30 {
            abr.observe(20_000_000.0, 0.0, rtt());
            rungs.push(abr.rung());
        }
        assert_eq!(*rungs.last().unwrap(), 4);
        // Never jumps more than one rung upward at a time.
        for w in rungs.windows(2) {
            assert!(w[1] <= w[0] + 1);
        }
    }

    #[test]
    fn drops_immediately_on_congestion() {
        let mut abr = AbrController::new(AbrConfig::default(), default_ladder());
        for _ in 0..40 {
            abr.observe(20_000_000.0, 0.0, rtt());
        }
        assert_eq!(abr.rung(), 4);
        // Throughput collapses to 500 kbps: once the EWMA catches up, only
        // the bottom rung (300 kbps) is sustainable.
        for _ in 0..30 {
            abr.observe(500_000.0, 0.0, rtt());
        }
        assert_eq!(abr.rung(), 0, "should fall to the bottom rung");
    }

    #[test]
    fn loss_deflates_the_estimate() {
        let mut abr = AbrController::new(AbrConfig::default(), default_ladder());
        // 10 Mbps but 30% loss: effective ~4.9 Mbps → top rung unsustainable.
        for _ in 0..30 {
            abr.observe(10_000_000.0, 0.3, rtt());
        }
        assert!(abr.rung() < 4, "rung {} with heavy loss", abr.rung());
        assert!(abr.rung() >= 2, "shouldn't collapse to the floor either");
    }

    #[test]
    fn flapping_throughput_does_not_flap_rungs() {
        let mut abr = AbrController::new(AbrConfig::default(), default_ladder());
        for i in 0..100 {
            // Oscillating between 1.2 and 2.4 Mbps around the 1.5 Mbps rung.
            let tp = if i % 2 == 0 { 1_200_000.0 } else { 2_400_000.0 };
            abr.observe(tp, 0.0, rtt());
        }
        assert!(abr.switch_count() < 10, "{} switches in 100 windows", abr.switch_count());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_ladder_is_rejected() {
        let mut ladder = default_ladder();
        ladder.swap(0, 3);
        AbrController::new(AbrConfig::default(), ladder);
    }
}
