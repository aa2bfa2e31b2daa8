//! Benchmarks of the protocol layers: real crypto substrates (SHA-256,
//! MBF, sessions), the real-mode exchange, the per-cell admission,
//! reputation and voter-session tables, and whole simulated worlds.

use std::hint::black_box;

use lockss_adversary::MobileTakeover;
use lockss_bench::Harness;
use lockss_core::admission::AdmissionControl;
use lockss_core::realproto::{run_real_exchange, RealParams, RealPoller, RealVoter};
use lockss_core::reflist::RefList;
use lockss_core::reputation::{Grade, KnownPeers};
use lockss_core::schedule::TaskSchedule;
use lockss_core::types::{Identity, PollId};
use lockss_core::voter::VoterSession;
use lockss_core::{AuState, PeerTable, ProtocolConfig, World, WorldConfig};
use lockss_crypto::mbf::{MbfParams, MbfPuzzle};
use lockss_crypto::sha256::sha256;
use lockss_effort::CostModel;
use lockss_net::session::Session;
use lockss_net::NodeId;
use lockss_sim::{Duration, Engine, SimRng, SimTime};
use lockss_storage::{AuId, AuSpec};

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
    h.bench("mbf/prove", || {
        i += 1;
        black_box(puzzle.prove(&i.to_le_bytes()))
    });
    let proof = puzzle.prove(b"fixed");
    h.bench("mbf/verify", || black_box(puzzle.verify(b"fixed", &proof)));

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

/// The per-cell tables every invitation, vote and receipt goes through,
/// each at the occupancy the paper world holds it at.
fn bench_tables(h: &mut Harness) {
    let cfg = ProtocolConfig::default();
    let mut known = KnownPeers::new();
    known.assume_population(100, Identity::loyal(0), Grade::Even, SimTime::ZERO);

    // One invitation a simulated minute: 46% from the founding population
    // (standing lookup, rate-limit stamp), the rest from 4,096 recurring
    // minion identities (refractory check or random drop).
    let mut admission = AdmissionControl::new();
    let mut rng = SimRng::seed_from_u64(13);
    let mut i = 0u64;
    h.bench("admission/filter (100 known, 46% admit)", || {
        i += 1;
        let poller = if i % 1000 < 460 {
            Identity::loyal(1 + (i % 99) as u32)
        } else {
            Identity(Identity::MINION_BASE + i % 4096)
        };
        black_box(admission.filter(poller, &known, SimTime(i * 60_000), &cfg, &mut rng))
    });

    // A full table (8), so every call finds the oldest, evicts it and
    // files the newcomer in identity order.
    let mut admission = AdmissionControl::new();
    let mut i = 0u64;
    h.bench("admission/introduce at cap", || {
        i += 1;
        let introducee = Identity::loyal(1 + (i.wrapping_mul(7919) % 97) as u32);
        let introducer = Identity::loyal(1 + (i % 10) as u32);
        admission.introduce(introducee, introducer, SimTime(i * 60_000), &cfg);
        black_box(admission.outstanding_introductions())
    });

    // What a concluded poll does per vote (raise) and a receipt does at the
    // voter (lower), over materialized entries.
    let mut i = 0u64;
    h.bench("reputation/raise+lower", || {
        i += 1;
        let now = SimTime(i * 60_000);
        known.raise(Identity::loyal(1 + (i % 99) as u32), now, cfg.grade_decay);
        known.lower(
            Identity::loyal(1 + (i.wrapping_mul(31) % 99) as u32),
            now,
            cfg.grade_decay,
        );
    });

    // One peer holding 200 open commitments: a new one arrives, one in the
    // middle is looked up, the oldest is closed.
    let mut peers = PeerTable::new(1);
    let cell = AuState::new(RefList::new(vec![], vec![]));
    peers.push(
        NodeId(0),
        Identity::loyal(0),
        vec![cell],
        SimRng::seed_from_u64(1),
    );
    let reservation = TaskSchedule::new().reserve(SimTime::ZERO, Duration::SECOND);
    let session = |poll: u64| {
        VoterSession::new(
            AuId(0),
            Identity::loyal(1 + (poll % 99) as u32),
            NodeId(1),
            reservation,
            SimTime(poll),
            false,
        )
    };
    for poll in 0..200 {
        peers.voting_mut(0).insert(PollId(poll), session(poll));
    }
    let mut oldest = 0u64;
    h.bench("voter/session insert+lookup+remove (200 open)", || {
        let voting = peers.voting_mut(0);
        voting.insert(PollId(oldest + 200), session(oldest + 200));
        let open = voting.get(&PollId(oldest + 100)).map(|s| s.stage);
        voting.remove(&PollId(oldest));
        oldest += 1;
        black_box(open)
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
    bench_tables(&mut h);
    bench_world(&mut h);
    h.finish();
}
