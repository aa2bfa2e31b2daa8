//! Benchmarks of the protocol layers: SHA-256 (the trace seal's hash) and
//! whole simulated worlds.

use std::hint::black_box;

use lockss_adversary::MobileTakeover;
use lockss_bench::Harness;
use lockss_core::{World, WorldConfig};
use lockss_crypto::sha256::sha256;
use lockss_sim::{Duration, Engine, SimTime};
use lockss_storage::AuSpec;

fn bench_crypto(h: &mut Harness) {
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = vec![0xABu8; size];
        h.bench_bytes(&format!("crypto/sha256/{size}B"), size as u64, move || {
            black_box(sha256(&data))
        });
    }
}

fn sim_config(n_peers: usize, n_aus: usize) -> WorldConfig {
    WorldConfig {
        n_peers,
        n_aus,
        au_spec: AuSpec {
            size_bytes: 100_000_000,
        },
        mtbf_years: 5.0,
        seed: 1,
        ..WorldConfig::default()
    }
}

fn bench_world(h: &mut Harness) {
    h.bench("world/build 100 peers x 10 AUs", || {
        black_box(World::new(sim_config(100, 10)))
    });
    h.bench("world/simulate 30 days, 50 peers x 5 AUs", || {
        let mut world = World::new(sim_config(50, 5));
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(30));
        black_box(eng.executed())
    });
    // The compromise/cure/poisoned-repair machinery under a weekly
    // migration: holds the mobile-adversary overhead on the same world
    // shape as the plain simulate bench above.
    h.bench(
        "world/simulate 30 days mobile-takeover, 50 peers x 5 AUs",
        || {
            let mut world = World::new(sim_config(50, 5));
            world.install_adversary(Box::new(
                MobileTakeover::new(8).with_period(Duration::from_days(7)),
            ));
            let mut eng: Engine<World> = Engine::new();
            world.start(&mut eng);
            eng.run_until(&mut world, SimTime::ZERO + Duration::from_days(30));
            black_box(eng.executed())
        },
    );
}

fn main() {
    let mut h = Harness::new("protocol");
    bench_crypto(&mut h);
    bench_world(&mut h);
    h.finish();
}
