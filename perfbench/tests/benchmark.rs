//! The benchmark's own checks: deterministic workloads, metric names that
//! match `BENCHMARK.json`, and layer times that account for the traced wall
//! time.

use metaclass_netsim::SimDuration;
use metaclass_perfbench::check::fingerprint;
use metaclass_perfbench::layers::traced_window;
use metaclass_perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use metaclass_perfbench::runner;
use metaclass_perfbench::workload::{regional_split, Workload, PLANET_POPULATION};
use metaclass_perfbench::yardstick::Yardstick;

/// Fingerprint after a short stretch of simulated time.
fn short_run(workload: Workload, seed: u64) -> u64 {
    let mut session = workload.builder(seed).build();
    session.run_for(SimDuration::from_millis(300));
    fingerprint(&session)
}

#[test]
fn workload_builders_are_deterministic_per_seed() {
    for w in Workload::ALL {
        assert_eq!(short_run(w, 7), short_run(w, 7), "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_the_fingerprint() {
    for w in Workload::ALL {
        assert_ne!(short_run(w, 7), short_run(w, 8), "{}", w.name());
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("lecture"), None);
}

#[test]
fn planet_mix_is_e4s_regional_split() {
    let e4 = metaclass_bench::experiments::e4_regional_servers::regional_split(PLANET_POPULATION);
    assert_eq!(regional_split(PLANET_POPULATION), e4);
}

#[test]
fn metric_names_are_valid_and_listed_in_the_benchmark_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    let listed = spec.matches("\"name\": ").count();
    assert_eq!(listed, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn per_layer_self_times_sum_to_the_traced_wall_time() {
    let mut session = Workload::CampusGroupwork.builder(3).build();
    let end = session.time() + SimDuration::from_millis(300);
    let layers = traced_window(&mut session, end);
    let handlers: u64 = layers.self_ns.iter().sum();
    assert!(handlers <= layers.wall_ns, "{layers:?}");
    assert_eq!(handlers + layers.engine_ns(), layers.wall_ns);
    // Cloud, clients, edge servers and devices all ran; there is no pool.
    assert!(layers.handled[..4].iter().all(|&n| n > 0), "{layers:?}");
    assert_eq!(layers.handled[4], 0);
}

#[test]
fn tracing_and_slicing_do_not_perturb_the_run() {
    let w = Workload::CampusGroupwork;
    let mut yardstick = Yardstick::new();
    let plain = runner::stepped(w, 5, false, &mut yardstick);
    let traced = runner::stepped(w, 5, true, &mut yardstick);
    assert_eq!(plain.checked, traced.checked);
    assert_eq!(plain.events, traced.events);
    assert!(plain.checked.violations.is_empty(), "{:?}", plain.checked.violations);

    let sliced = runner::sliced(w, 5, &mut yardstick);
    let whole = runner::whole(w, 5);
    assert_eq!(sliced.checked, whole);
    assert!(sliced.goodput_hz > 0.0 && sliced.m2p_p99_ms > 0.0);
    assert_eq!(sliced.kernel_ms.len(), sliced.slices_ms.len() / runner::KERNEL_EVERY);
    assert!(plain.kernel_ms > 0.0 && traced.kernel_ms > 0.0);
}
