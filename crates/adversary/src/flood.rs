//! The admission burst shared by the flood-shaped strategies.
//!
//! The §7.3 admission flood, the sybil ramp and the §7.4 brute force all
//! aim one burst timer at each (victim, AU) and, with insider information
//! (§3.1), come back exactly when the victim's refractory period expires.
//! They differ in what a burst sends: garbage invitations from fresh
//! identities ([`garbage_burst`]) or one invitation with a real
//! introductory effort (the brute force's own poll exchange).

use lockss_core::adversary::schedule_adversary_timer;
use lockss_core::{Identity, Label, World};
use lockss_effort::Purpose;
use lockss_sim::{Duration, Engine};

/// The burst timer tag for (victim, au): the strategy's `kind` in the low
/// nibble, the victim in the next 24 bits, the AU from bit 28 up.
pub(crate) fn burst_tag(kind: u64, victim: usize, au: u32) -> u64 {
    kind | ((victim as u64) << 4) | ((au as u64) << 28)
}

/// The (victim, au) a burst tag aims at, if both exist in `world`.
pub(crate) fn burst_target(world: &World, tag: u64) -> Option<(usize, u32)> {
    let (victim, au) = (((tag >> 4) & 0xFF_FFFF) as usize, (tag >> 28) as u32);
    (victim < world.n_loyal() && (au as usize) < world.cfg.n_aus).then_some((victim, au))
}

/// Arms the opening burst against each of `victim`'s AUs, staggered inside
/// the first refractory period so victims are not hit in lockstep. Draws
/// one jitter per AU, in AU order.
pub(crate) fn open_bursts(world: &mut World, eng: &mut Engine<World>, kind: u64, victim: usize) {
    for au in 0..world.cfg.n_aus as u32 {
        let jitter = world
            .rng
            .duration_between(Duration::SECOND, world.cfg.protocol.refractory);
        schedule_adversary_timer(world, eng, jitter, burst_tag(kind, victim, au));
    }
}

/// Insider timing: if (victim, au) is still refractory (e.g. a loyal
/// unknown was admitted just before us), re-arms the burst one second
/// after expiry and returns true.
pub(crate) fn wait_out_refractory(
    world: &World,
    eng: &mut Engine<World>,
    kind: u64,
    victim: usize,
    au: u32,
) -> bool {
    let now = eng.now();
    match world
        .peers
        .au(victim, au as usize)
        .admission
        .refractory_until()
    {
        Some(until) if now < until => {
            let delay = until.since(now) + Duration::SECOND;
            schedule_adversary_timer(world, eng, delay, burst_tag(kind, victim, au));
            true
        }
        _ => false,
    }
}

/// One burst against (victim, au): garbage invitations, each from the
/// fresh identity `*next_identity` (then advanced), until one is admitted;
/// the next burst is armed at refractory expiry.
///
/// Garbage invitations are free to make and free for the victim to drop;
/// one eventually gets admitted (p = 1 - drop_unknown each), and the victim
/// pays consideration plus cheap bogus-proof detection (§6.3). With the
/// refractory period ablated, nothing stops the flood at one admission:
/// every invitation that survives the random drop costs a consideration —
/// the unbounded cost the defense exists to bound. The burst is capped at
/// one wave per scheduling cycle.
pub(crate) fn garbage_burst(
    world: &mut World,
    eng: &mut Engine<World>,
    kind: u64,
    (victim, au): (usize, u32),
    next_identity: &mut u64,
    label: Label,
) {
    if wait_out_refractory(world, eng, kind, victim, au) {
        return;
    }
    let now = eng.now();
    let refractory = world.cfg.protocol.refractory;
    let no_refractory = world.cfg.protocol.ablation.no_refractory;
    let consider = world.costs().consider;
    let detect = world.balanced_effort(world.costs().bogus_intro_detect);
    let mut sent = 0u64;
    for _ in 0..1_000 {
        sent += 1;
        let id = Identity(*next_identity);
        *next_identity += 1;
        let verdict = {
            let (au_state, rng) = world.peers.au_and_rng_mut(victim, au as usize);
            let protocol = &world.cfg.protocol;
            au_state
                .admission
                .filter(id, &au_state.known, now, protocol, rng)
        };
        if verdict.is_admitted() {
            world.charge_loyal(victim, Purpose::Consider, consider);
            world.charge_loyal(victim, Purpose::VerifyIntro, detect);
            if !no_refractory {
                break;
            }
        }
    }
    // The burst short-circuits the message layer (the invitations are
    // modelled directly against the admission filter), so this provenance
    // tag is the trace's only witness of it.
    world.note_adversary_action(eng, label, sent);
    schedule_adversary_timer(
        world,
        eng,
        refractory + Duration::SECOND,
        burst_tag(kind, victim, au),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockss_core::WorldConfig;

    fn world() -> (World, Engine<World>) {
        let cfg = WorldConfig {
            n_peers: 30,
            n_aus: 3,
            seed: 5,
            ..WorldConfig::default()
        };
        (World::new(cfg), Engine::new())
    }

    #[test]
    fn stale_targets_are_dropped() {
        let (world, _) = world();
        assert_eq!(burst_target(&world, burst_tag(2, 29, 2)), Some((29, 2)));
        // A victim or AU the world does not have is no target.
        assert_eq!(burst_target(&world, burst_tag(2, 30, 0)), None);
        assert_eq!(burst_target(&world, burst_tag(2, 0, 3)), None);
        // The packing itself holds the full 24-bit victim and 32-bit AU.
        let tag = burst_tag(1, 54321, 599);
        assert_eq!(((tag >> 4) & 0xFF_FFFF, tag >> 28), (54321, 599));
    }

    #[test]
    fn a_burst_admits_once_then_waits_out_the_refractory_period() {
        let (mut world, mut eng) = world();
        let base = Identity::MINION_BASE + (1 << 40);
        let mut next = base;
        garbage_burst(
            &mut world,
            &mut eng,
            1,
            (3, 1),
            &mut next,
            Label::SybilRampBurst,
        );
        assert!(next > base, "fresh identities were minted");
        let admission = &world.peers.au(3, 1).admission;
        assert!(admission.in_refractory(eng.now()), "one invitation got in");
        // While refractory, the next burst sends nothing and re-arms.
        let sent = next;
        garbage_burst(
            &mut world,
            &mut eng,
            1,
            (3, 1),
            &mut next,
            Label::SybilRampBurst,
        );
        assert_eq!(next, sent);
        assert!(wait_out_refractory(&world, &mut eng, 1, 3, 1));
        assert!(!wait_out_refractory(&world, &mut eng, 1, 3, 0));
    }
}
