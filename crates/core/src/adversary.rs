//! The adversary interface.
//!
//! Attack strategies (implemented in `lockss-adversary`) plug into the
//! world through this trait. The adversary owns minion nodes (created with
//! [`crate::world::World::add_minions`]) that sit *outside* the loyal
//! population: loyal peers never invite them to vote, and the adversary
//! only ever invites loyal peers (§6.2). Its effort is charged to the
//! run's adversary ledger, its coordination is free and instantaneous
//! (total information awareness, §3.1).

use lockss_net::NodeId;
use lockss_sim::Engine;

use crate::msg::Message;
use crate::trace::Label;
use crate::world::World;

/// An attack strategy.
pub trait Adversary {
    /// The strategy's name (for reports and phase marks), a declared
    /// [`Label`].
    fn name(&self) -> Label;

    /// Called once after the world is built; schedule attack events here.
    fn begin(&mut self, world: &mut World, eng: &mut Engine<World>);

    /// A message from a loyal peer arrived at one of the adversary's
    /// minion nodes.
    fn on_message(
        &mut self,
        world: &mut World,
        eng: &mut Engine<World>,
        minion: NodeId,
        from: NodeId,
        msg: Message,
    ) {
        let _ = (world, eng, minion, from, msg);
    }

    /// A timer scheduled via [`schedule_adversary_timer`] fired.
    ///
    /// `tag` is strategy-defined (cycle phases, per-victim bursts, ...).
    fn on_timer(&mut self, world: &mut World, eng: &mut Engine<World>, tag: u64) {
        let _ = (world, eng, tag);
    }
}

/// Schedules a wake-up for the installed adversary after `delay`.
///
/// The event re-enters the adversary through [`Adversary::on_timer`] with
/// the given tag; if no adversary is installed when it fires, it is a
/// no-op.
///
/// The world's current *adversary channel* is captured with the timer and
/// restored when it fires, so a composite adversary can stamp a channel per
/// child strategy, dispatch `on_timer` by [`World::adversary_channel`], and
/// let children keep their strategy-private tag encodings without
/// collisions. Simple (non-composite) adversaries run entirely on the
/// default channel 0 and never notice any of this.
pub fn schedule_adversary_timer(
    world: &World,
    eng: &mut Engine<World>,
    delay: lockss_sim::Duration,
    tag: u64,
) {
    let channel = world.adversary_channel();
    eng.schedule_in(delay, move |w: &mut World, e| {
        if let Some(mut adv) = w.adversary.take() {
            w.set_adversary_channel(channel);
            w.trace(e, || crate::trace::TraceEvent::AdversaryTimer {
                channel,
                tag,
            });
            adv.on_timer(w, e, tag);
            w.adversary = Some(adv);
        }
    });
}

/// The no-attack adversary (baseline runs).
#[derive(Default)]
pub struct NullAdversary;

impl Adversary for NullAdversary {
    fn name(&self) -> Label {
        Label::NoAttack
    }

    fn begin(&mut self, _world: &mut World, _eng: &mut Engine<World>) {}
}
