//! Micro-benchmarks of the simulation substrates: event queue, RNG,
//! network delay computation, schedule reservation, damage sets.

use std::hint::black_box;

use lockss_bench::Harness;
use lockss_core::schedule::TaskSchedule;
use lockss_net::{LinkSpec, Network};
use lockss_sim::{Duration, Engine, SimRng, SimTime};
use lockss_storage::Replica;

fn bench_engine(h: &mut Harness) {
    h.bench("engine/schedule+run 10k events", || {
        let mut eng: Engine<u64> = Engine::new();
        for i in 0..10_000u64 {
            eng.schedule_at(SimTime(i % 997), |w: &mut u64, _| *w += 1);
        }
        let mut w = 0u64;
        eng.run_until(&mut w, SimTime(1_000));
        black_box(w)
    });

    h.bench("engine/self-rescheduling chain 10k", || {
        fn tick(w: &mut u64, e: &mut Engine<u64>) {
            *w += 1;
            if *w < 10_000 {
                e.schedule_in(Duration(1), tick);
            }
        }
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule_at(SimTime(0), tick);
        let mut w = 0u64;
        eng.run_until(&mut w, SimTime(u64::MAX - 1));
        black_box(w)
    });
}

fn bench_rng(h: &mut Harness) {
    let mut rng = SimRng::seed_from_u64(1);
    let mean = Duration::from_days(100);
    h.bench("rng/exponential", move || black_box(rng.exponential(mean)));

    let mut rng = SimRng::seed_from_u64(2);
    let items: Vec<u32> = (0..100).collect();
    h.bench("rng/sample 20 of 100", move || {
        black_box(rng.sample(&items, 20))
    });

    // A range that is not a power of two: the rejection-sampling path.
    let mut rng = SimRng::seed_from_u64(4);
    h.bench("rng/below 37", move || black_box(rng.below(black_box(37))));
}

fn bench_network(h: &mut Harness) {
    let mut rng = SimRng::seed_from_u64(3);
    let mut net = Network::new();
    let nodes = net.add_sampled_nodes(100, &mut rng);
    h.bench("net/transfer_delay", move || {
        black_box(net.transfer_delay(nodes[3], nodes[77], 10_256))
    });

    let mut net = Network::new();
    let a = net.add_node(LinkSpec {
        bandwidth_bps: 10_000_000,
        latency: Duration::from_millis(5),
    });
    let z = net.add_node(LinkSpec {
        bandwidth_bps: 1_500_000,
        latency: Duration::from_millis(20),
    });
    h.bench("net/send (counted)", move || {
        black_box(net.send(a, z, 4_096))
    });
}

fn bench_schedule(h: &mut Harness) {
    h.bench_with_setup(
        "schedule/reserve under load",
        || {
            let mut s = TaskSchedule::new();
            for k in 0..50u64 {
                let _ = s.try_reserve(
                    SimTime(0),
                    SimTime(k * 100_000),
                    SimTime(k * 100_000 + 60_000),
                    Duration::from_secs(30),
                );
            }
            s
        },
        |mut s| {
            black_box(s.try_reserve(
                SimTime(0),
                SimTime(0),
                SimTime(10_000_000),
                Duration::from_secs(40),
            ))
        },
    );
}

fn bench_replica(h: &mut Harness) {
    let mut a = Replica::pristine();
    for i in 0..16 {
        a.damage(i * 31);
    }
    h.bench("replica/snapshot 16 damaged", move || {
        black_box(a.snapshot())
    });
}

fn main() {
    let mut h = Harness::new("substrates");
    bench_engine(&mut h);
    bench_rng(&mut h);
    bench_network(&mut h);
    bench_schedule(&mut h);
    bench_replica(&mut h);
    h.finish();
}
