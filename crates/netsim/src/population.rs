//! Deterministic population processes for the flyweight client-pool layer.
//!
//! A [`PopulationTimeline`] is the pre-computed arrival/departure schedule of
//! a pool of statistically-identical remote clients: every join and leave is
//! materialized once, at build time, from a [`PopulationProfile`] and a
//! [`DetRng`] stream. The pool actor then consumes the timeline with a
//! cursor — O(events) work total, never O(members × ticks) — so a run that
//! models a million pooled clients schedules exactly one entity per region.
//!
//! Determinism story: the timeline depends only on `(seed, profile, members,
//! class length)`. It is generated before the simulation starts, so every
//! run of the same configuration consumes a byte-identical schedule; the
//! pool actor itself performs no randomness beyond what its own derived
//! [`DetRng`] streams provide.

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// How pooled clients arrive over the course of a class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Flash crowd: everyone tries to join around `at`, spread uniformly
    /// over `spread` (the post-COVID "class start" stampede). With
    /// `spread == 0` every member joins at exactly `at`.
    FlashCrowd {
        /// Nominal class-start instant.
        at: SimTime,
        /// Uniform window over which the crowd actually arrives.
        spread: SimDuration,
    },
    /// Memoryless trickle: exponential inter-arrival times with the given
    /// mean, starting at `from`. Models drop-in MOOC-style audiences.
    Poisson {
        /// First arrival is sampled after this instant.
        from: SimTime,
        /// Mean inter-arrival gap between consecutive joins.
        mean_gap: SimDuration,
    },
}

/// Diurnal churn riding on top of the arrival process: each member that has
/// joined leaves independently with probability `leave_chance`, at a time
/// sampled uniformly from `(join + min_stay, horizon)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Per-member probability of leaving before the class ends.
    pub leave_chance: f64,
    /// Minimum attendance before a churned member may leave.
    pub min_stay: SimDuration,
}

/// The full statistical description of one pool's population behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationProfile {
    /// Join schedule generator.
    pub arrivals: ArrivalProcess,
    /// Optional departures; `None` means everyone stays to the end.
    pub churn: Option<ChurnModel>,
}

impl PopulationProfile {
    /// A flash crowd with no churn: all members join at `at`, spread over
    /// `spread`. This is the classic class-start stampede and the profile
    /// the pool-vs-expanded equivalence tests use (`spread == 0` makes every
    /// pooled member indistinguishable from a cohort of individually
    /// simulated clients with identical `join_delay`).
    pub fn flash_crowd(at: SimTime, spread: SimDuration) -> Self {
        PopulationProfile { arrivals: ArrivalProcess::FlashCrowd { at, spread }, churn: None }
    }

    /// A Poisson trickle with no churn.
    pub fn poisson(from: SimTime, mean_gap: SimDuration) -> Self {
        PopulationProfile { arrivals: ArrivalProcess::Poisson { from, mean_gap }, churn: None }
    }

    /// Adds diurnal churn to the profile.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }
}

/// One scheduled population change: `delta` members join (`+`) or leave
/// (`-`) at `at`. Events are sorted by time; same-time events are coalesced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PopulationEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Signed member-count change.
    pub delta: i64,
}

/// The materialized join/leave schedule of one pool.
///
/// Generated once per run from `(seed, profile, members, horizon)`;
/// consumed with [`PopulationTimeline::drain_until`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationTimeline {
    events: Vec<PopulationEvent>,
    cursor: usize,
    members: u64,
}

impl PopulationTimeline {
    /// Generates the timeline for `members` pooled clients over
    /// `[SimTime::ZERO, horizon]`.
    ///
    /// All randomness comes from `rng` (pass a derived stream); two calls
    /// with equal inputs yield equal timelines. Arrivals past `horizon` are
    /// clamped to `horizon` so the whole population is always accounted for.
    pub fn generate(
        profile: &PopulationProfile,
        members: u64,
        horizon: SimTime,
        rng: &mut DetRng,
    ) -> Self {
        let mut joins: Vec<SimTime> = Vec::with_capacity(members as usize);
        match profile.arrivals {
            ArrivalProcess::FlashCrowd { at, spread } => {
                let spread_ns = spread.as_nanos();
                for _ in 0..members {
                    let offset = if spread_ns == 0 { 0 } else { rng.next_u64() % spread_ns };
                    joins.push(at + SimDuration::from_nanos(offset));
                }
            }
            ArrivalProcess::Poisson { from, mean_gap } => {
                let rate = 1.0 / (mean_gap.as_nanos().max(1) as f64);
                let mut t = from;
                for _ in 0..members {
                    t += SimDuration::from_nanos(rng.exponential(rate) as u64);
                    joins.push(t);
                }
            }
        }

        let mut events: Vec<PopulationEvent> = Vec::with_capacity(joins.len() * 2);
        for &join in &joins {
            let join = join.min(horizon);
            events.push(PopulationEvent { at: join, delta: 1 });
            if let Some(churn) = profile.churn {
                if rng.chance(churn.leave_chance) {
                    let earliest = (join + churn.min_stay).as_nanos();
                    let latest = horizon.as_nanos();
                    if earliest < latest {
                        let leave = earliest + rng.next_u64() % (latest - earliest);
                        events.push(PopulationEvent { at: SimTime::from_nanos(leave), delta: -1 });
                    }
                }
            }
        }
        events.sort_by_key(|e| e.at);
        // Coalesce same-instant events so the pool sees one net delta per
        // distinct time — keeps cursor work proportional to distinct events.
        let mut coalesced: Vec<PopulationEvent> = Vec::with_capacity(events.len());
        for e in events {
            match coalesced.last_mut() {
                Some(last) if last.at == e.at => last.delta += e.delta,
                _ => coalesced.push(e),
            }
        }
        coalesced.retain(|e| e.delta != 0);
        PopulationTimeline { events: coalesced, cursor: 0, members }
    }

    /// Total pool size this timeline was generated for.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// All events, in time order (cursor-independent).
    pub fn events(&self) -> &[PopulationEvent] {
        &self.events
    }

    /// Net joins (`.0`) and leaves (`.1`) scheduled at or before `now` that
    /// have not been drained yet; advances the cursor past them.
    pub fn drain_until(&mut self, now: SimTime) -> (u64, u64) {
        let mut joins = 0i64;
        let mut leaves = 0i64;
        while let Some(e) = self.events.get(self.cursor) {
            if e.at > now {
                break;
            }
            if e.delta > 0 {
                joins += e.delta;
            } else {
                leaves -= e.delta;
            }
            self.cursor += 1;
        }
        (joins as u64, leaves as u64)
    }

    /// Time of the next undrained event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Rewinds the cursor to the beginning (e.g. after a crash-restart).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Splits off `tracers` members as fully simulated clients: returns the
    /// residual pooled timeline (with one join removed at each tracer's
    /// instant) and the tracers' join instants.
    ///
    /// Tracers are sampled by stride across the join order (see
    /// [`PopulationTimeline::tracer_joins`]), so the residual pool plus the
    /// tracer clients together reproduce the original population exactly.
    /// Churn events stay with the pool — tracer clients attend to the end.
    pub fn split_tracers(&self, tracers: u64) -> (PopulationTimeline, Vec<SimTime>) {
        let tracer_joins = self.tracer_joins(tracers);
        let mut events = self.events.clone();
        for &at in &tracer_joins {
            if let Some(e) = events.iter_mut().find(|e| e.at == at && e.delta > 0) {
                e.delta -= 1;
            }
        }
        events.retain(|e| e.delta != 0);
        let residual = PopulationTimeline {
            events,
            cursor: 0,
            members: self.members.saturating_sub(tracer_joins.len() as u64),
        };
        (residual, tracer_joins)
    }

    /// The join instants of the `tracers` members promoted to fully
    /// simulated clients, sampled by stride across the join order so tracers
    /// cover the whole arrival curve (first, last, and evenly between).
    ///
    /// Returned sorted ascending. When `tracers >= members` every join
    /// instant is returned.
    pub fn tracer_joins(&self, tracers: u64) -> Vec<SimTime> {
        let mut joins: Vec<SimTime> = self
            .events
            .iter()
            .filter(|e| e.delta > 0)
            .flat_map(|e| std::iter::repeat_n(e.at, e.delta.max(0) as usize))
            .collect();
        joins.sort();
        if tracers >= joins.len() as u64 {
            return joins;
        }
        let n = joins.len() as u64;
        (0..tracers).map(|i| joins[(i * n / tracers) as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn flash_crowd_with_zero_spread_is_one_event() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_millis(500), secs(0));
        let mut rng = DetRng::new(1);
        let tl = PopulationTimeline::generate(&profile, 1000, SimTime::from_secs(10), &mut rng);
        assert_eq!(tl.events().len(), 1);
        assert_eq!(tl.events()[0].delta, 1000);
        assert_eq!(tl.events()[0].at, SimTime::from_millis(500));
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = PopulationProfile::poisson(SimTime::ZERO, SimDuration::from_millis(10))
            .with_churn(ChurnModel { leave_chance: 0.2, min_stay: secs(1) });
        let a = PopulationTimeline::generate(
            &profile,
            5000,
            SimTime::from_secs(60),
            &mut DetRng::new(42).derive(7),
        );
        let b = PopulationTimeline::generate(
            &profile,
            5000,
            SimTime::from_secs(60),
            &mut DetRng::new(42).derive(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn drain_accounts_for_every_member() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(4));
        let mut rng = DetRng::new(9);
        let mut tl = PopulationTimeline::generate(&profile, 777, SimTime::from_secs(10), &mut rng);
        let mut joined = 0;
        let mut now = SimTime::ZERO;
        while let Some(next) = tl.next_event_at() {
            now = next;
            let (j, l) = tl.drain_until(now);
            joined += j;
            assert_eq!(l, 0, "no churn configured");
        }
        assert_eq!(joined, 777);
        assert!(now <= SimTime::from_secs(10));
    }

    #[test]
    fn churned_leaves_never_exceed_joins() {
        let profile = PopulationProfile::poisson(SimTime::ZERO, SimDuration::from_millis(5))
            .with_churn(ChurnModel { leave_chance: 0.5, min_stay: SimDuration::from_millis(50) });
        let mut rng = DetRng::new(3);
        let mut tl = PopulationTimeline::generate(&profile, 2000, SimTime::from_secs(30), &mut rng);
        let (joins, leaves) = tl.drain_until(SimTime::from_secs(30));
        assert_eq!(joins, 2000);
        assert!(leaves <= joins);
        assert!(leaves > 0, "with 50% churn over 2000 members some must leave");
    }

    #[test]
    fn tracer_joins_cover_the_arrival_curve() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(8));
        let mut rng = DetRng::new(5);
        let tl = PopulationTimeline::generate(&profile, 640, SimTime::from_secs(20), &mut rng);
        let tracers = tl.tracer_joins(16);
        assert_eq!(tracers.len(), 16);
        let all = tl.tracer_joins(u64::MAX);
        assert_eq!(all.len(), 640);
        assert_eq!(tracers[0], all[0], "stride sampling starts at the first join");
        for w in tracers.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
