//! Link presets and geography for blueprint topologies.
//!
//! The blueprint's Figure 3 names four transport classes — headset WiFi,
//! wired sensor links, the inter-campus WAN, and the public Internet reaching
//! remote learners — and its scalability discussion (§3.3) requires a
//! worldwide user population with regional servers. [`LinkClass`] provides
//! calibrated [`LinkConfig`] presets for the former; [`Region`] provides an
//! inter-region one-way latency matrix for the latter.

use serde::{Deserialize, Serialize};

use crate::link::{LinkConfig, LossModel};
use crate::time::SimDuration;

/// Calibrated presets for the transport classes in the blueprint.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::LinkClass;
///
/// let wifi = LinkClass::Wifi.config();
/// let wired = LinkClass::WiredLan.config();
/// assert!(wifi.delay() > wired.delay());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Classroom WiFi between a headset and the local edge server
    /// (802.11ac-class: ~2 ms, jittery, occasionally lossy).
    Wifi,
    /// Wired LAN between room sensors and the local edge server.
    WiredLan,
    /// Dedicated inter-campus backbone (e.g. HKUST CWB ↔ GZ, ~7.5 ms one-way).
    CampusBackbone,
    /// Edge server to a nearby cloud (metro distance).
    MetroWan,
    /// Residential last-mile access for remote learners.
    ResidentialAccess,
    /// Congested/cellular access: higher jitter and burst loss.
    CellularAccess,
}

impl LinkClass {
    /// The calibrated link configuration for this class.
    pub fn config(self) -> LinkConfig {
        match self {
            LinkClass::Wifi => LinkConfig::new(SimDuration::from_millis(2))
                .with_jitter(SimDuration::from_micros(1_500))
                .with_loss(LossModel::Iid { p: 0.005 })
                .with_bandwidth_bps(50_000_000)
                .with_queue_capacity_bytes(256 * 1024),
            LinkClass::WiredLan => LinkConfig::new(SimDuration::from_micros(200))
                .with_jitter(SimDuration::from_micros(50))
                .with_loss(LossModel::Iid { p: 0.0001 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(1024 * 1024),
            LinkClass::CampusBackbone => LinkConfig::new(SimDuration::from_micros(7_500))
                .with_jitter(SimDuration::from_micros(500))
                .with_loss(LossModel::Iid { p: 0.0005 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(4 * 1024 * 1024),
            LinkClass::MetroWan => LinkConfig::new(SimDuration::from_millis(4))
                .with_jitter(SimDuration::from_micros(800))
                .with_loss(LossModel::Iid { p: 0.0005 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(4 * 1024 * 1024),
            LinkClass::ResidentialAccess => LinkConfig::new(SimDuration::from_millis(8))
                .with_jitter(SimDuration::from_millis(2))
                .with_loss(LossModel::Iid { p: 0.002 })
                .with_bandwidth_bps(100_000_000)
                .with_queue_capacity_bytes(512 * 1024),
            LinkClass::CellularAccess => LinkConfig::new(SimDuration::from_millis(25))
                .with_jitter(SimDuration::from_millis(8))
                .with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.01,
                    p_bad_to_good: 0.25,
                    loss_good: 0.001,
                    loss_bad: 0.15,
                })
                .with_bandwidth_bps(30_000_000)
                .with_queue_capacity_bytes(512 * 1024),
        }
    }
}

/// A world region hosting remote learners or servers.
///
/// Indexes into a calibrated one-way inter-region latency matrix
/// (public-Internet medians, in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// East Asia (Hong Kong, Guangzhou, Seoul, Tokyo) — the blueprint's campuses.
    EastAsia,
    /// Southeast Asia (Singapore, Jakarta).
    SoutheastAsia,
    /// South Asia (Mumbai, Delhi).
    SouthAsia,
    /// Europe (Frankfurt, London, Cambridge).
    Europe,
    /// North America (Boston/MIT, Virginia, California).
    NorthAmerica,
    /// South America (São Paulo).
    SouthAmerica,
    /// Oceania (Sydney).
    Oceania,
    /// Africa (Johannesburg, Cairo).
    Africa,
}

impl Region {
    /// All regions, in declaration order.
    pub const ALL: [Region; 8] = [
        Region::EastAsia,
        Region::SoutheastAsia,
        Region::SouthAsia,
        Region::Europe,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Oceania,
        Region::Africa,
    ];

    fn idx(self) -> usize {
        match self {
            Region::EastAsia => 0,
            Region::SoutheastAsia => 1,
            Region::SouthAsia => 2,
            Region::Europe => 3,
            Region::NorthAmerica => 4,
            Region::SouthAmerica => 5,
            Region::Oceania => 6,
            Region::Africa => 7,
        }
    }

    /// One-way median latency in milliseconds between region cores.
    pub fn one_way_ms(self, other: Region) -> u64 {
        // Symmetric matrix of one-way medians (ms).
        const M: [[u64; 8]; 8] = [
            //  EA  SEA  SA   EU   NA  SAm   OC   AF
            [5, 25, 45, 90, 60, 130, 55, 110],    // EastAsia
            [25, 5, 30, 85, 85, 160, 45, 95],     // SoutheastAsia
            [45, 30, 5, 65, 110, 150, 75, 80],    // SouthAsia
            [90, 85, 65, 5, 40, 95, 140, 45],     // Europe
            [60, 85, 110, 40, 5, 75, 75, 90],     // NorthAmerica
            [130, 160, 150, 95, 75, 5, 140, 120], // SouthAmerica
            [55, 45, 75, 140, 75, 140, 5, 130],   // Oceania
            [110, 95, 80, 45, 90, 120, 130, 5],   // Africa
        ];
        M[self.idx()][other.idx()]
    }

    /// A backbone link configuration between two region cores: one-way
    /// propagation from the matrix, 5% jitter, light loss.
    pub fn backbone_to(self, other: Region) -> LinkConfig {
        let ms = self.one_way_ms(other);
        LinkConfig::new(SimDuration::from_millis(ms))
            .with_jitter(SimDuration::from_millis_f64(ms as f64 * 0.05))
            .with_loss(LossModel::Iid { p: 0.0005 })
            .with_bandwidth_bps(10_000_000_000)
            .with_queue_capacity_bytes(16 * 1024 * 1024)
    }

    /// The region nearest to `self` among `candidates` (by one-way latency);
    /// `None` if `candidates` is empty. Ties break toward the earlier
    /// candidate.
    pub fn nearest_of(self, candidates: &[Region]) -> Option<Region> {
        candidates.iter().copied().min_by_key(|c| self.one_way_ms(*c))
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Region::EastAsia => "east-asia",
            Region::SoutheastAsia => "southeast-asia",
            Region::SouthAsia => "south-asia",
            Region::Europe => "europe",
            Region::NorthAmerica => "north-america",
            Region::SouthAmerica => "south-america",
            Region::Oceania => "oceania",
            Region::Africa => "africa",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matrix_is_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(a.one_way_ms(b), b.one_way_ms(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn intra_region_is_cheapest() {
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert!(a.one_way_ms(a) < a.one_way_ms(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn nearest_of_picks_self_when_available() {
        assert_eq!(Region::Europe.nearest_of(&Region::ALL), Some(Region::Europe));
        assert_eq!(Region::Europe.nearest_of(&[]), None);
    }

    #[test]
    fn nearest_of_is_sensible_for_remote_learners() {
        // A South American learner with servers only in NA and EU goes to NA.
        let got = Region::SouthAmerica.nearest_of(&[Region::NorthAmerica, Region::Europe]);
        assert_eq!(got, Some(Region::NorthAmerica));
    }

    #[test]
    fn link_class_presets_are_ordered_by_delay() {
        let wired = LinkClass::WiredLan.config().delay();
        let wifi = LinkClass::Wifi.config().delay();
        let campus = LinkClass::CampusBackbone.config().delay();
        let cell = LinkClass::CellularAccess.config().delay();
        assert!(wired < wifi && wifi < campus && campus < cell);
    }

    #[test]
    fn presets_have_finite_bandwidth_and_queues() {
        for class in [
            LinkClass::Wifi,
            LinkClass::WiredLan,
            LinkClass::CampusBackbone,
            LinkClass::MetroWan,
            LinkClass::ResidentialAccess,
            LinkClass::CellularAccess,
        ] {
            let cfg = class.config();
            assert!(cfg.bandwidth_bps().is_some(), "{class:?}");
            assert!(cfg.queue_capacity_bytes().is_some(), "{class:?}");
        }
    }

    #[test]
    fn backbone_delay_matches_matrix() {
        let cfg = Region::EastAsia.backbone_to(Region::Europe);
        assert_eq!(cfg.delay(), SimDuration::from_millis(90));
    }
}
