//! Layer kernels: one layer's hot operation driven alone, from outside,
//! at the size the workload itself measured (pending-queue depth, peer
//! count, message share, admit ratio). Each runs for a fixed wall budget
//! and reports nanoseconds per operation.
//!
//! A kernel runs hot and alone, so `ns × count ÷ simulate_s` is an
//! estimate of the layer's share, not a measurement of it.

use std::hint::black_box;
use std::time::Instant;

use lockss_core::admission::AdmissionControl;
use lockss_core::reputation::{Grade, KnownPeers};
use lockss_core::schedule::TaskSchedule;
use lockss_core::types::Identity;
use lockss_core::{Message, ProtocolConfig};
use lockss_crypto::sha256::sha256;
use lockss_net::Network;
use lockss_sim::{Duration, Engine, SimRng, SimTime};

/// Calls between looks at the wall clock.
const BATCH: u64 = 4096;

/// Drives `op` in batches until `budget_s` has passed; ns per call.
fn drive(budget_s: f64, mut op: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < budget_s {
        for i in calls..calls + BATCH {
            op(i);
        }
        calls += BATCH;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// What a delivery event captures beside its two node ids.
const MSG: usize = std::mem::size_of::<Message>();

/// Simulated span the hold model spreads its events over, in ms.
const HOLD_SPAN: u64 = 1 << 20;

struct Hold {
    rng: u64,
    ran: u64,
    /// Of every 1000 events, how many carry a message-sized capture.
    fat_permille: u64,
}

/// One hold-model event: schedule exactly one successor a pseudo-random
/// delay ahead, so the queue depth stays where the pre-fill put it.
fn hold(w: &mut Hold, e: &mut Engine<Hold>) {
    w.ran += 1;
    w.rng = w
        .rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let delay = Duration(1 + (w.rng >> 33) % HOLD_SPAN);
    if w.ran % 1000 < w.fat_permille {
        let pad = [w.rng as u8; MSG];
        e.schedule_in(delay, move |w: &mut Hold, e: &mut Engine<Hold>| {
            black_box(&pad);
            hold(w, e)
        });
    } else {
        e.schedule_in(delay, hold);
    }
}

/// Queue kernel: a bare engine pre-filled to `pending` events, each
/// scheduling one successor (the classic hold model), `msg_share` of them
/// with a `Message`-sized capture as message deliveries have. Returns ns
/// per pop + dispatch + push at that depth.
pub fn queue_hold_ns(pending: usize, msg_share: f64, budget_s: f64) -> f64 {
    let mut w = Hold {
        rng: 0x9E3779B97F4A7C15,
        ran: 0,
        fat_permille: (msg_share.clamp(0.0, 1.0) * 1000.0).round() as u64,
    };
    let mut eng: Engine<Hold> = Engine::with_capacity(pending.max(1024));
    for i in 0..pending.max(1) as u64 {
        eng.schedule_at(SimTime(i % HOLD_SPAN), hold);
    }
    let t = Instant::now();
    let mut until = 0u64;
    while t.elapsed().as_secs_f64() < budget_s {
        until += HOLD_SPAN / 64;
        eng.run_until(&mut w, SimTime(until));
    }
    t.elapsed().as_nanos() as f64 / (w.ran.max(1)) as f64
}

/// `Network::send` between pseudo-random pairs of an `n`-node network.
pub fn net_send_ns(n_nodes: usize, budget_s: f64) -> f64 {
    let mut rng = SimRng::seed_from_u64(11);
    let mut net = Network::new();
    let nodes = net.add_sampled_nodes(n_nodes.max(2), &mut rng);
    let n = nodes.len() as u64;
    drive(budget_s, |i| {
        let from = nodes[(i % n) as usize];
        let to = nodes[((i.wrapping_mul(7919) + 1) % n) as usize];
        black_box(net.send(from, to, 4_096));
    })
}

/// A known-peers list holding the founding population of `n` peers.
fn known(n: usize) -> KnownPeers {
    let mut k = KnownPeers::new();
    k.assume_population(n as u32, Identity::loyal(0), Grade::Even, SimTime::ZERO);
    k
}

/// `AdmissionControl::filter` on a stream that is `admit_share` founding
/// population (the privileged path: rate-limit lookup, admit) and the rest
/// unknown minion identities (refractory check, random drop).
pub fn admission_filter_ns(n_peers: usize, admit_share: f64, budget_s: f64) -> f64 {
    let cfg = ProtocolConfig::default();
    let known = known(n_peers);
    let mut rng = SimRng::seed_from_u64(13);
    let mut adm = AdmissionControl::new();
    let known_permille = (admit_share.clamp(0.0, 1.0) * 1000.0).round() as u64;
    let n = n_peers.max(2) as u64;
    drive(budget_s, |i| {
        // One invitation a simulated minute; compaction as the world does
        // it is out of scope, so identities cycle to bound the maps.
        let now = SimTime(i * 60_000);
        let poller = if i % 1000 < known_permille {
            Identity::loyal((1 + i % (n - 1)) as u32)
        } else {
            Identity(Identity::MINION_BASE + i % 4096)
        };
        black_box(adm.filter(poller, &known, now, &cfg, &mut rng));
    })
}

/// `KnownPeers::standing` followed by `raise` or `lower`, cycling over
/// the founding population: what every evaluated vote costs.
pub fn reputation_update_ns(n_peers: usize, budget_s: f64) -> f64 {
    let decay = ProtocolConfig::default().grade_decay;
    let mut known = known(n_peers);
    let n = n_peers.max(2) as u64;
    drive(budget_s, |i| {
        let id = Identity::loyal((1 + i % (n - 1)) as u32);
        let now = SimTime(i * 60_000);
        black_box(known.standing(id, now, decay));
        if i % 2 == 0 {
            known.raise(id, now, decay);
        } else {
            known.lower(id, now, decay);
        }
    })
}

/// `TaskSchedule::try_reserve` under load: every call books 60 s of work
/// 50 steps ahead of a clock that advances one step per call, so the scan
/// always walks ~50 live reservations and pruning drops one.
pub fn schedule_reserve_ns(budget_s: f64) -> f64 {
    const STEP: u64 = 100_000;
    let mut s = TaskSchedule::new();
    drive(budget_s, |i| {
        let now = SimTime(i * STEP);
        let earliest = SimTime((i + 50) * STEP);
        let deadline = SimTime((i + 60) * STEP);
        black_box(s.try_reserve(now, earliest, deadline, Duration::from_secs(60)));
    })
}

/// SHA-256 throughput over `bytes` (the sealed trace), MiB/s.
pub fn sha256_mib_per_s(bytes: &[u8], budget_s: f64) -> f64 {
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed().as_secs_f64() < budget_s {
        black_box(sha256(black_box(bytes)));
        passes += 1;
    }
    (passes * bytes.len() as u64) as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: f64 = 0.01;

    #[test]
    fn every_kernel_returns_a_positive_finite_time() {
        let all = [
            queue_hold_ns(1000, 0.4, BUDGET),
            queue_hold_ns(0, 0.0, BUDGET),
            net_send_ns(100, BUDGET),
            admission_filter_ns(100, 0.9, BUDGET),
            admission_filter_ns(100, 0.01, BUDGET),
            reputation_update_ns(100, BUDGET),
            schedule_reserve_ns(BUDGET),
            sha256_mib_per_s(&[7u8; 4096], BUDGET),
        ];
        for v in all {
            assert!(v.is_finite() && v > 0.0, "{all:?}");
        }
    }

    #[test]
    fn the_hold_model_keeps_the_queue_at_its_prefill_depth() {
        let mut w = Hold {
            rng: 1,
            ran: 0,
            fat_permille: 400,
        };
        let mut eng: Engine<Hold> = Engine::new();
        for i in 0..500 {
            eng.schedule_at(SimTime(i), hold);
        }
        eng.run_until(&mut w, SimTime(HOLD_SPAN));
        assert_eq!(eng.queued(), 500);
        assert!(w.ran >= 500);
    }

    #[test]
    fn the_schedule_kernel_really_runs_under_load() {
        let mut s = TaskSchedule::new();
        for i in 0..200u64 {
            let now = SimTime(i * 100_000);
            let r = s.try_reserve(
                now,
                SimTime((i + 50) * 100_000),
                SimTime((i + 60) * 100_000),
                Duration::from_secs(60),
            );
            assert!(r.is_some(), "call {i} must find a gap");
        }
        assert!((45..=55).contains(&s.live()), "{} live", s.live());
    }
}
