//! The three benchmark workloads, built only through the public session API.
//!
//! Every workload is a pure function of its seed: the same seed gives the
//! same `SessionBuilder`, the same simulated run and the same fingerprint.

use metaclass_core::{Activity, ClassroomSession, Role, SessionBuilder, SessionConfig};
use metaclass_edge::RemoteClientNode;
use metaclass_netsim::{ChurnModel, LinkClass, PopulationProfile, Region, SimDuration, SimTime};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E3 topology: one MR campus and 200 remote VR clients in a seminar.
    SeminarFanout,
    /// Four East Asian campuses of 24 students doing group work, plus four
    /// remote learners in Europe.
    CampusGroupwork,
    /// E3's planet tier: a million pooled learners arriving and churning.
    PlanetChurn,
}

/// Remote VR clients in `seminar_fanout`.
pub const SEMINAR_CLIENTS: u32 = 200;
/// Learners modelled by `planet_churn`.
pub const PLANET_POPULATION: u64 = 1_000_000;
/// Fully simulated tracer clients per regional pool in `planet_churn`.
pub const PLANET_TRACERS_PER_REGION: u32 = 16;
/// `planet_churn` arrivals are spread over this opening stretch of class.
pub const PLANET_ARRIVAL_WINDOW: SimDuration = SimDuration::from_secs(4);

/// E4's worldwide enrolment mix (share per region), frozen here so the
/// workload does not drift with the experiment code.
pub const ENROLMENT: [(Region, f64); 8] = [
    (Region::EastAsia, 0.30),
    (Region::SoutheastAsia, 0.15),
    (Region::SouthAsia, 0.15),
    (Region::Europe, 0.12),
    (Region::NorthAmerica, 0.12),
    (Region::SouthAmerica, 0.06),
    (Region::Oceania, 0.05),
    (Region::Africa, 0.05),
];

/// Splits `population` over [`ENROLMENT`] exactly as E4's `regional_split`
/// does: floor of each share, rounding remainder to East Asia.
pub fn regional_split(population: u64) -> Vec<(Region, u64)> {
    let mut split: Vec<(Region, u64)> =
        ENROLMENT.iter().map(|&(r, share)| (r, (population as f64 * share) as u64)).collect();
    let assigned: u64 = split.iter().map(|&(_, n)| n).sum();
    split[0].1 += population - assigned;
    split
}

/// Timed slices per window.
pub const SLICES_PER_WINDOW: u64 = 200;

/// Warm-up always covers this much simulated time, so one lost join (the
/// client retries after 500 ms) does not shift the window.
const WARM_UP_MIN: SimDuration = SimDuration::from_secs(1);
/// Step used while waiting for the window's start condition.
const WARM_UP_STEP: SimDuration = SimDuration::from_millis(100);
/// Give up waiting for admission after this much simulated time.
const WARM_UP_LIMIT: SimDuration = SimDuration::from_secs(30);

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::SeminarFanout, Workload::CampusGroupwork, Workload::PlanetChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeminarFanout => "seminar_fanout",
            Workload::CampusGroupwork => "campus_groupwork",
            Workload::PlanetChurn => "planet_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The session builder for `seed` (default engine: serial, one thread).
    pub fn builder(self, seed: u64) -> SessionBuilder {
        let base = SessionBuilder::new().seed(seed);
        match self {
            Workload::SeminarFanout => base
                .activity(Activity::Seminar)
                .campus("CWB", Region::EastAsia, 4, true)
                .remote_cohort(Region::EastAsia, SEMINAR_CLIENTS, LinkClass::ResidentialAccess),
            Workload::CampusGroupwork => base
                .activity(Activity::GroupWork)
                .campus("CWB", Region::EastAsia, 24, true)
                .campus("GZ", Region::EastAsia, 24, false)
                .campus("HK", Region::EastAsia, 24, false)
                .campus("SZ", Region::EastAsia, 24, false)
                .remote_cohort(Region::Europe, 4, LinkClass::ResidentialAccess),
            Workload::PlanetChurn => {
                // Admission is provisioned for the whole population, as E3's
                // planet tier does, so accounting decides who gets in.
                let mut server = SessionConfig::default().server;
                server.overload.admission.burst = PLANET_POPULATION as u32;
                server.overload.admission.waiting_room = PLANET_POPULATION as usize;
                let churn =
                    ChurnModel { leave_chance: 0.3, min_stay: SimDuration::from_millis(500) };
                let mut builder = base
                    .activity(Activity::Seminar)
                    .campus("CWB", Region::EastAsia, 4, true)
                    .server_config(server);
                for (region, members) in regional_split(PLANET_POPULATION) {
                    let gap = SimDuration::from_nanos(PLANET_ARRIVAL_WINDOW.as_nanos() / members);
                    builder = builder.population(
                        region,
                        members,
                        PLANET_TRACERS_PER_REGION,
                        LinkClass::ResidentialAccess,
                        PopulationProfile::poisson(SimTime::ZERO, gap).with_churn(churn),
                    );
                }
                builder
            }
        }
    }

    /// Simulated length of one timed window. `campus_groupwork` repeats its
    /// work every 100 ms, so its window is long enough for 200 slices of
    /// whole 100 ms periods; shorter slices of it are multimodal and their
    /// median jumps between modes.
    pub fn window(self) -> SimDuration {
        match self {
            Workload::SeminarFanout => SimDuration::from_secs(2),
            Workload::CampusGroupwork => SimDuration::from_secs(20),
            Workload::PlanetChurn => SimDuration::from_secs(6),
        }
    }

    /// Simulated length of one timed slice: a two-hundredth of the window,
    /// so each episode's p95 slice has ten slices beyond it.
    pub fn slice(self) -> SimDuration {
        SimDuration::from_nanos(self.window().as_nanos() / SLICES_PER_WINDOW)
    }

    /// Runs `session` to the start of the timed window: one simulated
    /// second, then on until every remote client is admitted. The
    /// `planet_churn` window starts at t=0 instead, so the arrivals fall
    /// inside it.
    ///
    /// # Panics
    ///
    /// Panics if the clients are not all admitted within 30 simulated
    /// seconds.
    pub fn warm_up(self, session: &mut ClassroomSession) {
        if self == Workload::PlanetChurn {
            return;
        }
        session.run_for(WARM_UP_MIN);
        while !all_remote_admitted(session) {
            assert!(
                session.time() < SimTime::ZERO + WARM_UP_LIMIT,
                "{}: remote clients not admitted after {:?}",
                self.name(),
                WARM_UP_LIMIT
            );
            session.run_for(WARM_UP_STEP);
        }
    }
}

/// The fully simulated remote clients of `session` (pool tracers included).
pub fn remote_clients(session: &ClassroomSession) -> impl Iterator<Item = &RemoteClientNode> {
    session
        .participants()
        .iter()
        .filter(|p| matches!(p.role, Role::RemoteLearner { .. }))
        .map(|p| session.sim().node_as::<RemoteClientNode>(p.node).expect("remote client node"))
}

/// Whether every fully simulated remote client has been admitted.
pub fn all_remote_admitted(session: &ClassroomSession) -> bool {
    remote_clients(session).all(RemoteClientNode::is_admitted)
}

/// Display updates received so far, summed over the remote clients.
pub fn remote_updates(session: &ClassroomSession) -> u64 {
    remote_clients(session).map(RemoteClientNode::updates_received).sum()
}
