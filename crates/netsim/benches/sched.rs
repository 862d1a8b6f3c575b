//! Scheduler microbenchmarks: the timer wheel against the binary-heap
//! baseline it replaced, plus whole-engine fan-out and fault-plan runs.
//!
//! The `sched_*` groups drive the two [`EventQueue`] implementations with
//! the engine's real access patterns; `engine/*` benches run a complete
//! [`Simulation`] so dispatch batching and op pooling are measured too.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use metaclass_netsim::sched::{BinaryHeapQueue, EventQueue, TimerWheel};
use metaclass_netsim::{
    Context, DetRng, FaultWindow, LinkConfig, Node, NodeId, SimDuration, SimTime, Simulation,
};

/// Deterministic event-time pattern mixing slot-local, horizon-scale, and
/// far-future delays, mirroring link delays, retransmit timers, and session
/// schedules.
fn delay_pattern(rng: &mut DetRng, i: usize) -> u64 {
    match i % 8 {
        0 => 0,                                            // same-instant (loopback)
        1..=4 => rng.range_u64(1, 1_000_000),              // sub-slot jitter
        5 | 6 => rng.range_u64(1_000_000, 200_000_000),    // within the wheel horizon
        _ => rng.range_u64(1_000_000_000, 10_000_000_000), // overflow heap
    }
}

/// Fill-then-drain: `n` pushes followed by `n` pops.
fn fill_drain<Q: EventQueue<u64>>(mut queue: Q, times: &[u64]) -> u64 {
    for (seq, &t) in times.iter().enumerate() {
        queue.push(SimTime::from_nanos(t), seq as u64, seq as u64);
    }
    let mut acc = 0u64;
    while let Some((_, _, v)) = queue.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Steady-state: keep ~`pending` events in flight; each pop schedules a
/// follow-up relative to the popped time — the engine's actual usage.
fn steady_state<Q: EventQueue<u64>>(mut queue: Q, pending: usize, ops: usize) -> u64 {
    let mut rng = DetRng::new(7);
    let mut seq = 0u64;
    for i in 0..pending {
        queue.push(SimTime::from_nanos(delay_pattern(&mut rng, i)), seq, seq);
        seq += 1;
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (at, _, v) = queue.pop().expect("queue stays non-empty");
        acc = acc.wrapping_add(v);
        let next = at.as_nanos() + delay_pattern(&mut rng, i);
        queue.push(SimTime::from_nanos(next), seq, seq);
        seq += 1;
    }
    acc
}

/// Streaming fan-out: `bursts` broadcast instants 11 ms apart, each pushing
/// `width` same-time events and draining the previous burst — the pattern
/// E1/E3 generate at every avatar tick, where a broadcast is scheduled one
/// link delay ahead of delivery.
fn fanout_stream<Q: EventQueue<u64>>(mut queue: Q, bursts: usize, width: usize) -> u64 {
    let mut seq = 0u64;
    let mut acc = 0u64;
    for b in 0..bursts {
        let t = SimTime::from_nanos((b as u64) * 11_000_000);
        for _ in 0..width {
            queue.push(t, seq, seq);
            seq += 1;
        }
        for _ in 0..width {
            let (_, _, v) = queue.pop().expect("burst just pushed");
            acc = acc.wrapping_add(v);
        }
    }
    acc
}

/// Active-batch churn: all events stay inside the live wheel slot, so every
/// push after warm-up takes the sorted-active insert (a binary search over
/// the dense `(time, seq)` key lane) and every pop walks the key/item deques
/// in lockstep — exactly the paths the struct-of-arrays split optimizes.
/// The heap row is the AoS baseline for the same workload.
fn soa_active_churn<Q: EventQueue<u64>>(mut queue: Q, pending: usize, ops: usize) -> u64 {
    let mut rng = DetRng::new(11);
    let mut seq = 0u64;
    for _ in 0..pending {
        queue.push(SimTime::from_nanos(rng.range_u64(0, 1 << 14)), seq, seq);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let (at, _, v) = queue.pop().expect("queue stays non-empty");
        acc = acc.wrapping_add(v);
        // Follow-ups land within ~16 µs of the popped instant, far inside
        // the ~1 ms slot width, so they join the already-sorted batch.
        queue.push(SimTime::from_nanos(at.as_nanos() + rng.range_u64(1, 1 << 14)), seq, seq);
        seq += 1;
    }
    acc
}

fn sched_throughput(c: &mut Criterion) {
    let mut rng = DetRng::new(42);
    let mixed: Vec<u64> = (0..10_000).map(|i| delay_pattern(&mut rng, i)).collect();

    let mut g = c.benchmark_group("sched_fill_drain");
    g.throughput(Throughput::Elements(mixed.len() as u64));
    g.bench_function("wheel/mixed_10k", |b| b.iter(|| fill_drain(TimerWheel::new(), &mixed)));
    g.bench_function("heap/mixed_10k", |b| b.iter(|| fill_drain(BinaryHeapQueue::new(), &mixed)));
    g.finish();

    let mut g = c.benchmark_group("sched_fanout");
    g.throughput(Throughput::Elements(100 * 100));
    g.bench_function("wheel/stream_100x100", |b| {
        b.iter(|| fanout_stream(TimerWheel::new(), 100, 100))
    });
    g.bench_function("heap/stream_100x100", |b| {
        b.iter(|| fanout_stream(BinaryHeapQueue::new(), 100, 100))
    });
    g.finish();

    let mut g = c.benchmark_group("sched_soa_active");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("wheel/in_slot_churn_20k", |b| {
        b.iter(|| soa_active_churn(TimerWheel::new(), 256, 20_000))
    });
    g.bench_function("heap/in_slot_churn_20k", |b| {
        b.iter(|| soa_active_churn(BinaryHeapQueue::new(), 256, 20_000))
    });
    g.finish();

    let mut g = c.benchmark_group("sched_steady");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("wheel/pending1k_ops20k", |b| {
        b.iter(|| steady_state(TimerWheel::new(), 1_000, 20_000))
    });
    g.bench_function("heap/pending1k_ops20k", |b| {
        b.iter(|| steady_state(BinaryHeapQueue::new(), 1_000, 20_000))
    });
    g.finish();
}

/// A hub node that broadcasts a tick to every spoke on a periodic timer.
struct Hub {
    spokes: Vec<NodeId>,
    ticks_left: u32,
}

impl Node<u64> for Hub {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(11), 1);
    }
    fn on_message(&mut self, _: &mut Context<'_, u64>, _: NodeId, _: u64) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: metaclass_netsim::Timer) {
        for &s in &self.spokes {
            ctx.send(s, 1, 256);
        }
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            ctx.set_timer(SimDuration::from_millis(11), 1);
        }
    }
}

/// A spoke that acks every message back to its sender.
struct Spoke;
impl Node<u64> for Spoke {
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg, 64);
    }
}

fn build_fanout_sim(spokes: u32) -> Simulation<u64> {
    let mut sim = Simulation::new(9);
    let ids: Vec<NodeId> = (0..spokes).map(|i| sim.add_node(format!("spoke{i}"), Spoke)).collect();
    let hub = sim.add_node("hub", Hub { spokes: ids.clone(), ticks_left: 90 });
    for id in ids {
        // Identical delays so every broadcast arrives as one same-instant
        // burst — the dispatch-batching fast path.
        sim.connect(hub, id, LinkConfig::new(SimDuration::from_millis(5)));
    }
    sim
}

fn engine_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("fanout_64spokes_90ticks", |b| {
        b.iter_batched(
            || build_fanout_sim(64),
            |mut sim| {
                sim.run_until_idle();
                sim.events_processed()
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("fanout_with_fault_plan", |b| {
        b.iter_batched(
            || {
                let mut sim = build_fanout_sim(64);
                // Periodic flaps of one hub link: fault events interleave
                // with the broadcast bursts.
                let flaps: Vec<FaultWindow> = (0..20u64)
                    .map(|k| FaultWindow::LinkFlap {
                        a: NodeId::from_index(64),
                        b: NodeId::from_index(0),
                        from: SimTime::from_millis(20 + k * 40),
                        until: SimTime::from_millis(40 + k * 40),
                    })
                    .collect();
                sim.apply_faults(&flaps);
                sim
            },
            |mut sim| {
                sim.run_until_idle();
                sim.events_processed()
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, sched_throughput, engine_fanout);
criterion_main!(benches);
