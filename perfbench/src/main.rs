//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload seminar_fanout --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! table. The last line of standard output is the JSON result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use metaclass_perfbench::check::{Checked, DROP_COUNTERS};
use metaclass_perfbench::layers::Layer;
use metaclass_perfbench::report::{result_json, unit_of, END_TO_END, PER_LAYER};
use metaclass_perfbench::runner::{self, Sliced, Stepped, WINDOW_COUNTERS};
use metaclass_perfbench::stats::{median, tail};
use metaclass_perfbench::workload::Workload;
use metaclass_perfbench::yardstick::{Yardstick, REFERENCE_MS};

/// Untimed builds before the set-up samples: the first builds of a process
/// run up to twice as long while the heap and caches warm up.
const SETUP_WARM_UP: usize = 5;
/// Set-up samples taken per run: at least this many...
const SETUP_SAMPLES: usize = 15;
/// ...and as many more as fit in this many seconds of building.
const SETUP_SECONDS: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Episode outcomes against the run's reference fingerprint.
#[derive(Default)]
struct Tally {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs `episode`, counting it as failed if it panics, breaks an
    /// invariant, or disagrees with the run's first fingerprint.
    fn run<T>(
        &mut self,
        episode: impl FnOnce() -> T,
        checked: impl FnOnce(&T) -> &Checked,
    ) -> Option<T> {
        self.attempted += 1;
        let Ok(value) = catch_unwind(AssertUnwindSafe(episode)) else {
            self.failed += 1;
            return None;
        };
        let checked = checked(&value);
        let reference = *self.reference.get_or_insert(checked.fingerprint);
        for v in &checked.violations {
            eprintln!("invariant broken: {v}");
        }
        if checked.fingerprint != reference {
            eprintln!("fingerprint {:016x} differs from {reference:016x}", checked.fingerprint);
        }
        if !checked.violations.is_empty() || checked.fingerprint != reference {
            self.failed += 1;
        }
        Some(value)
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(args: &Args, started: Instant) -> (Tally, Vec<(&'static str, f64)>) {
    let w = args.workload;
    let mut yardstick = Yardstick::new();
    // Set-up is timed back to back before the episodes, each build made
    // while the one before is still alive: it then reuses the memory of the
    // one before last instead of faulting in fresh pages, whose cost on a
    // VM follows the hypervisor more than the program. The kernel timed
    // after each build scales the samples to reference speed.
    let mut previous = None;
    for _ in 0..SETUP_WARM_UP {
        previous = Some(runner::build(w, args.seed).0);
    }
    let (mut setups, mut setup_kernel) = (Vec::new(), Vec::new());
    while setups.len() < SETUP_SAMPLES || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let (session, seconds) = runner::build(w, args.seed);
        previous = Some(session);
        setups.push(seconds);
        setup_kernel.push(yardstick.time_ms());
    }
    drop(previous);
    let mut tally = Tally::default();
    let mut episodes: Vec<Sliced> = Vec::new();
    while episodes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        if let Some(e) = tally.run(|| runner::sliced(w, args.seed, &mut yardstick), |e| &e.checked)
        {
            episodes.push(e);
        } else if tally.failed > 2 {
            break;
        }
    }
    // Non-perturbation: one run_for over the whole window must reach the
    // same state as the slices did.
    tally.run(|| runner::whole(w, args.seed), |c| c);
    if episodes.is_empty() {
        return (tally, Vec::new());
    }

    // Host times at reference speed (see the yardstick module): each
    // episode's slices are scaled by the kernel timed between them. Every
    // episode repeats the same simulated work, so slice i of each episode
    // times the same computation; its median over the episodes is its
    // typical cost.
    let scaled: Vec<Vec<f64>> = episodes
        .iter()
        .map(|e| {
            let scale = REFERENCE_MS / median(&e.kernel_ms);
            e.slices_ms.iter().map(|ms| ms * scale).collect()
        })
        .collect();
    let slices: Vec<f64> = (0..scaled[0].len())
        .map(|i| median(&scaled.iter().map(|e| e[i]).collect::<Vec<_>>()))
        .collect();
    let raw: Vec<f64> = episodes.iter().map(|e| e.slices_ms.iter().sum::<f64>()).collect();
    let kernel: Vec<f64> = episodes.iter().flat_map(|e| e.kernel_ms.iter().copied()).collect();
    let speed = REFERENCE_MS / median(&kernel);
    let first = &episodes[0];
    let sim_s = w.window().as_secs_f64();
    let (tail_p, tail_ms) = tail(&slices);
    println!(
        "{}: {} slices of {} ms simulated, each the median of {} episodes, tail = p{tail_p}; \
         {} set-ups; host at {:.3}x reference speed, raw host {:.1} ms per simulated s, \
         raw set-up {:.4} ms",
        w.name(),
        slices.len(),
        w.slice().as_secs_f64() * 1e3,
        episodes.len(),
        setups.len(),
        speed,
        median(&raw) / sim_s,
        median(&setups) * 1e3
    );
    let metrics = vec![
        ("host_ms_per_sim_s", slices.iter().sum::<f64>() / sim_s),
        ("slice_p50_ms", median(&slices)),
        ("slice_tail_ms", tail_ms),
        ("setup_s", median(&setups) * REFERENCE_MS / median(&setup_kernel)),
        ("peak_rss_mb", peak_rss_mb()),
        ("m2p_p99_ms", first.m2p_p99_ms),
        ("goodput_hz", first.goodput_hz),
    ];
    (tally, metrics)
}

fn per_layer(args: &Args, started: Instant) -> (Tally, Vec<(&'static str, f64)>) {
    let w = args.workload;
    let mut yardstick = Yardstick::new();
    let mut tally = Tally::default();
    let mut untraced_ns = 0.0;
    let mut traced: Vec<Stepped> = Vec::new();
    // Alternate untraced and traced episodes so drift hits both alike.
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let plain =
            tally.run(|| runner::stepped(w, args.seed, false, &mut yardstick), |e| &e.checked);
        let with_trace =
            tally.run(|| runner::stepped(w, args.seed, true, &mut yardstick), |e| &e.checked);
        match (plain, with_trace) {
            (Some(p), Some(t)) => {
                untraced_ns += p.wall_ns as f64 * REFERENCE_MS / p.kernel_ms;
                traced.push(t);
            }
            _ if tally.failed > 2 => break,
            _ => {}
        }
    }
    if traced.is_empty() {
        return (tally, Vec::new());
    }

    // Host times at reference speed, as in the end-to-end run.
    let mut wall = 0.0;
    let mut self_ns = [0.0; Layer::ALL.len()];
    let mut handled = [0u64; Layer::ALL.len()];
    let mut counters = [0u64; WINDOW_COUNTERS.len()];
    let mut events = 0u64;
    for t in &traced {
        let scale = REFERENCE_MS / t.kernel_ms;
        let layers = t.layers.as_ref().expect("traced episode");
        wall += layers.wall_ns as f64 * scale;
        for i in 0..Layer::ALL.len() {
            self_ns[i] += layers.self_ns[i] as f64 * scale;
            handled[i] += layers.handled[i];
        }
        for (sum, c) in counters.iter_mut().zip(t.counters) {
            *sum += c;
        }
        events += t.events;
    }
    let engine_ns = wall - self_ns.iter().sum::<f64>();
    let count = |name: &str| {
        let i = WINDOW_COUNTERS.iter().position(|&c| c == name).expect("window counter");
        counters[i] as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sim_s = w.window().as_secs_f64() * traced.len() as f64;

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    println!("{}: {} traced windows, {} s simulated in all", w.name(), traced.len(), sim_s);
    println!(
        "{:<18} {:>14} {:>12} {:>14} {:>8}",
        "layer", "self ms/sim-s", "ns/event", "events/sim-s", "share"
    );
    let rows = Layer::ALL
        .iter()
        .enumerate()
        .map(|(i, layer)| (layer.name(), self_ns[i], handled[i] as f64))
        .chain(std::iter::once(("netsim", engine_ns, events as f64)));
    for (prefix, ns, runs) in rows {
        let self_ms = ns / 1e6 / sim_s;
        let per_event = ratio(ns, runs);
        let rate = runs / sim_s;
        let share = ns / wall;
        println!("{prefix:<18} {self_ms:>14.3} {per_event:>12.1} {rate:>14.1} {share:>8.4}");
        let suffixes = if prefix == "netsim" {
            ["self_ms_per_sim_s", "engine_ns_per_event", "events_per_sim_s", "engine_share"]
        } else {
            ["self_ms_per_sim_s", "ns_per_event", "events_per_sim_s", "share"]
        };
        for (suffix, value) in suffixes.into_iter().zip([self_ms, per_event, rate, share]) {
            let name = format!("{prefix}.{suffix}");
            if let Some(&(listed, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
                metrics.push((listed, value));
            }
        }
    }
    let dropped: f64 = DROP_COUNTERS.iter().map(|c| count(c)).sum();
    let admitted = count("overload.joins_admitted") + count("overload.pool_joins_admitted");
    let asked = admitted
        + count("overload.joins_deferred")
        + count("overload.joins_rejected")
        + count("overload.pool_joins_deferred");
    let updates = count("cloud.fanout_updates");
    let deferred = count("overload.fanout_deferred");
    let (sent, suppressed) = (count("edge.updates_sent"), count("edge.updates_suppressed"));
    let (hits, misses) = (count("engine.ops_pool.hit"), count("engine.ops_pool.miss"));
    let delivered = count("net.delivered");
    let population = count("pool.members_arrived") + count("pool.members_left");
    let high_water = traced.iter().map(|t| t.env_slab_high_water).max().unwrap_or(0);
    metrics.extend([
        ("edge.cloud.fanout_updates_per_sim_s", updates / sim_s),
        ("edge.cloud.fanout_deferred_ratio", ratio(deferred, updates + deferred)),
        ("edge.cloud.admit_ratio", ratio(admitted, asked)),
        ("sync.deadreckon.suppression_ratio", ratio(suppressed, sent + suppressed)),
        ("netsim.population.events", population / traced.len() as f64),
        ("netsim.ops_pool.hit_ratio", ratio(hits, hits + misses)),
        ("netsim.env_slab.high_water", high_water as f64),
        ("netsim.delivery_ratio", ratio(delivered, delivered + dropped)),
        ("trace.overhead_ratio", ratio(wall, untraced_ns)),
    ]);
    let order = |name: &str| PER_LAYER.iter().position(|(n, _)| *n == name).expect("listed metric");
    metrics.sort_by_key(|(name, _)| order(name));
    (tally, metrics)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) =
        if args.trace { per_layer(&args, started) } else { end_to_end(&args, started) };
    for (name, value) in &metrics {
        println!("  {name:<40} {value:>16.6} {}", unit_of(name));
    }
    let expected = if args.trace { PER_LAYER.len() } else { END_TO_END.len() };
    let correct = tally.failed == 0
        && metrics.len() == expected
        && metrics.iter().all(|(_, v)| v.is_finite());
    println!("{}", result_json(correct, tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}
