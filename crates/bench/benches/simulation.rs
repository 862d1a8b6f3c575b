//! Criterion macrobenchmarks: how much simulated classroom one host second
//! buys — the practical limit on the population sweeps of E3/E4.
//!
//! `session/e3_one_second` is the E3 scalability topology (one MR campus
//! plus 40 remote learners behind the cloud relay, in a seminar);
//! `scripts/perf_gate.sh` records its median beside the committed timing
//! baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use metaclass_avatar::Vec3;
use metaclass_core::{Activity, SessionBuilder};
use metaclass_netsim::{LinkClass, Region, SimDuration, SimTime};
use metaclass_sensors::{
    FusionConfig, HeadsetConfig, HeadsetModel, MotionScript, PoseFusion, Trajectory,
};

fn session_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("session");
    g.sample_size(10);
    for (label, students, remote) in [("small_12p", 5u32, 2u32), ("medium_40p", 16, 8)] {
        g.bench_function(format!("one_sim_second_{label}"), |b| {
            b.iter_batched(
                || {
                    SessionBuilder::new()
                        .seed(1)
                        .activity(Activity::Lecture)
                        .campus("CWB", Region::EastAsia, students, true)
                        .campus("GZ", Region::EastAsia, students, false)
                        .remote_cohort(Region::EastAsia, remote, LinkClass::ResidentialAccess)
                        .build()
                },
                |mut session| {
                    session.run_for(SimDuration::from_secs(1));
                    session
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.bench_function("e3_one_second", |b| {
        b.iter_batched(
            || {
                SessionBuilder::new()
                    .seed(1)
                    .activity(Activity::Seminar)
                    .campus("CWB", Region::EastAsia, 4, true)
                    .remote_cohort(Region::EastAsia, 40, LinkClass::ResidentialAccess)
                    .build()
            },
            |mut session| {
                session.run_for(SimDuration::from_secs(1));
                session
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn fusion_ingest(c: &mut Criterion) {
    let traj = Trajectory::new(
        MotionScript::Presenter {
            center: Vec3::new(10.0, 0.0, 2.0),
            area_half: Vec3::new(1.4, 0.0, 0.9),
        },
        3,
    );
    let mut headset = HeadsetModel::new(HeadsetConfig::default(), 4);
    // Pre-generate a measurement stream.
    let samples: Vec<_> = (0..1000)
        .filter_map(|i| {
            let t = i as f64 / 72.0;
            headset.measure_pose(&traj.state_at(t)).map(|m| (t, m))
        })
        .collect();
    c.bench_function("fusion_ingest_1000_samples", |b| {
        b.iter(|| {
            let mut fusion = PoseFusion::new(FusionConfig::default());
            for (t, m) in &samples {
                fusion.ingest(SimTime::from_nanos((*t * 1e9) as u64), m);
            }
            fusion.estimate()
        })
    });
}

criterion_group!(benches, session_second, fusion_ingest);
criterion_main!(benches);
