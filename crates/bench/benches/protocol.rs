//! Benchmarks of the protocol layers: real crypto substrates (SHA-256,
//! MBF, sessions), the real-mode exchange, and whole simulated worlds.

use std::hint::black_box;

use lockss_adversary::MobileTakeover;
use lockss_bench::Harness;
use lockss_core::realproto::{run_real_exchange, RealParams, RealPoller, RealVoter};
use lockss_core::types::Identity;
use lockss_core::{World, WorldConfig};
use lockss_crypto::mbf::{MbfParams, MbfPuzzle};
use lockss_crypto::sha256::sha256;
use lockss_effort::CostModel;
use lockss_net::session::Session;
use lockss_sim::{Duration, Engine, SimTime};
use lockss_storage::AuSpec;

fn bench_crypto(h: &mut Harness) {
    for size in [1usize << 10, 1 << 16, 1 << 20] {
        let data = vec![0xABu8; size];
        h.bench_bytes(&format!("crypto/sha256/{size}B"), size as u64, move || {
            black_box(sha256(&data))
        });
    }

    let params = MbfParams {
        table_bits: 14,
        walk_len: 128,
        n_walks: 4,
        difficulty_bits: 2,
    };
    let puzzle = MbfPuzzle::new(params, 99);
    let mut i = 0u64;
    h.bench("mbf/prove", move || {
        i += 1;
        black_box(puzzle.prove(&i.to_le_bytes()))
    });
    let puzzle = MbfPuzzle::new(params, 99);
    let proof = puzzle.prove(b"fixed");
    h.bench("mbf/verify", move || {
        black_box(puzzle.verify(b"fixed", &proof))
    });

    let (mut tx, mut rx) = Session::pair(42);
    let payload = vec![0u8; 1_024];
    h.bench("session/seal+open", move || {
        let sealed = tx.seal(&payload);
        black_box(rx.open(&payload, &sealed))
    });
}

fn bench_real_exchange(h: &mut Harness) {
    h.bench("realproto/full exchange (intact)", || {
        let params = RealParams::small();
        let mut poller = RealPoller::new(Identity::loyal(0), 1, &params);
        let mut voter = RealVoter::new(Identity::loyal(1), 2, &params);
        black_box(run_real_exchange(&mut poller, &mut voter, b"bench-nonce"))
    });
    h.bench("realproto/full exchange (1 repair)", || {
        let params = RealParams::small();
        let mut poller = RealPoller::new(Identity::loyal(0), 1, &params);
        poller.replica.damage(2);
        let mut voter = RealVoter::new(Identity::loyal(1), 2, &params);
        black_box(run_real_exchange(&mut poller, &mut voter, b"bench-nonce"))
    });
    // The poll-level hash cache at work: ten votes against one poller, one
    // AU hashing pass shared by all evaluations.
    let params = RealParams::small();
    let mut poller = RealPoller::new(Identity::loyal(0), 1, &params);
    let votes: Vec<_> = (0..10)
        .map(|i| {
            let mut voter = RealVoter::new(Identity::loyal(1 + i), 2 + i as u64, &params);
            let (challenge, intro) = poller.solicit_effort(b"bench-nonce", voter.identity);
            voter
                .solicit(&challenge, &intro, b"bench-nonce")
                .expect("honest voter")
        })
        .collect();
    h.bench("realproto/evaluate 10 votes (one poll)", move || {
        for v in &votes {
            black_box(poller.evaluate(b"bench-nonce", v).expect("valid vote"));
        }
    });
}

fn sim_config(n_peers: usize, n_aus: usize) -> WorldConfig {
    let au_spec = AuSpec {
        size_bytes: 100_000_000,
        block_bytes: 1_000_000,
    };
    let mut cfg = WorldConfig {
        n_peers,
        n_aus,
        au_spec,
        mtbf_years: 5.0,
        seed: 1,
        ..WorldConfig::default()
    };
    cfg.cost = CostModel::default().with_au_bytes(au_spec.size_bytes);
    cfg
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
    bench_real_exchange(&mut h);
    bench_world(&mut h);
    h.finish();
}
