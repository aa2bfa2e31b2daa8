//! Pre-registered metric handles for the protocol layer (see `lockss-obs`).
//!
//! The handles count the event vocabulary ([`crate::trace`]): the world's
//! one emission point hands every [`TraceEvent`] to [`CoreObs::observe`],
//! whose one `match` picks the handle the fact bumps. Only
//! `repairs_requested` is fed elsewhere — no event carries that fact. As
//! with [`crate::trace::TraceSink`], the world builds events only while
//! handles or a sink are installed, and nothing counted here feeds back
//! into the protocol, so results are byte-identical with or without them.

use lockss_obs::{Counter, Histogram, RegistryBuilder};

use crate::trace::{AdmissionVerdict, PollConclusion, TraceEvent};

/// Counter and histogram handles for the poll lifecycle, admission
/// (suppression) verdicts, and repair traffic.
#[derive(Clone)]
pub struct CoreObs {
    /// Polls opened by pollers.
    pub polls_started: Counter,
    /// Polls concluded with a landslide win.
    pub polls_win: Counter,
    /// Polls concluded with a landslide loss.
    pub polls_loss: Counter,
    /// Quorate polls with a non-landslide split.
    pub polls_inconclusive: Counter,
    /// Polls that never reached quorum.
    pub polls_inquorate: Counter,
    /// Votes received per concluded poll.
    pub poll_votes: Histogram,
    /// Protocol messages handed to the network.
    pub msgs_sent: Counter,
    /// Messages suppressed at the source (pipe stoppage).
    pub msgs_suppressed: Counter,
    /// Invitations admitted the ordinary way.
    pub admission_admitted: Counter,
    /// Invitations admitted via a valid introduction.
    pub admission_introduced: Counter,
    /// Invitations dropped by the random-drop defense.
    pub admission_random_drop: Counter,
    /// Invitations refused by the per-AU refractory period.
    pub admission_refractory: Counter,
    /// Invitations refused by the per-peer rate limit.
    pub admission_rate_limited: Counter,
    /// Repair blocks requested by outvoted pollers.
    pub repairs_requested: Counter,
    /// Repair blocks received and applied by pollers.
    pub repairs_applied: Counter,
    /// Storage bit-rot damage events.
    pub damage_events: Counter,
    /// Loyal peers that joined after the start (churn).
    pub peer_joins: Counter,
    /// Provenance-tagged adversary decision points.
    pub adversary_actions: Counter,
    /// Loyal peers taken over by the mobile adversary.
    pub compromises: Counter,
    /// Compromised peers restored to loyal behavior (replica still damaged).
    pub cures: Counter,
    /// Repair blocks applied from compromised servers (no heal: the block
    /// stays or becomes damaged).
    pub poisoned_repairs: Counter,
}

impl CoreObs {
    /// Registers the protocol metrics on `b` and returns the handles.
    pub fn register(b: &mut RegistryBuilder) -> CoreObs {
        CoreObs {
            polls_started: b.counter("polls_started_total", "Polls opened by pollers"),
            polls_win: b.counter("polls_win_total", "Polls concluded with a landslide win"),
            polls_loss: b.counter("polls_loss_total", "Polls concluded with a landslide loss"),
            polls_inconclusive: b.counter(
                "polls_inconclusive_total",
                "Quorate polls with a non-landslide split",
            ),
            polls_inquorate: b.counter("polls_inquorate_total", "Polls that never reached quorum"),
            poll_votes: b.histogram(
                "poll_votes",
                "Votes received per concluded poll",
                &[1, 2, 4, 8, 16, 32],
            ),
            msgs_sent: b.counter("msgs_sent_total", "Protocol messages handed to the network"),
            msgs_suppressed: b.counter(
                "msgs_suppressed_total",
                "Messages suppressed at the source by pipe stoppage",
            ),
            admission_admitted: b.counter(
                "admission_admitted_total",
                "Invitations admitted the ordinary way",
            ),
            admission_introduced: b.counter(
                "admission_introduced_total",
                "Invitations admitted via a valid introduction",
            ),
            admission_random_drop: b.counter(
                "admission_random_drop_total",
                "Invitations dropped by the random-drop defense",
            ),
            admission_refractory: b.counter(
                "admission_refractory_total",
                "Invitations refused by the per-AU refractory period",
            ),
            admission_rate_limited: b.counter(
                "admission_rate_limited_total",
                "Invitations refused by the per-peer rate limit",
            ),
            repairs_requested: b.counter(
                "repairs_requested_total",
                "Repair blocks requested by outvoted pollers",
            ),
            repairs_applied: b.counter(
                "repairs_applied_total",
                "Repair blocks received and applied by pollers",
            ),
            damage_events: b.counter("damage_events_total", "Storage bit-rot damage events"),
            peer_joins: b.counter(
                "peer_joins_total",
                "Loyal peers that joined after the start",
            ),
            adversary_actions: b.counter(
                "adversary_actions_total",
                "Provenance-tagged adversary decision points",
            ),
            compromises: b.counter(
                "peer_compromises_total",
                "Loyal peers taken over by the mobile adversary",
            ),
            cures: b.counter(
                "peer_cures_total",
                "Compromised peers restored to loyal behavior",
            ),
            poisoned_repairs: b.counter(
                "poisoned_repairs_total",
                "Repair blocks applied from compromised servers",
            ),
        }
    }

    /// Counts one emitted event: the handle (or handles) its fact bumps.
    pub fn observe(&self, event: &TraceEvent) {
        let counter = match event {
            TraceEvent::PollStart { .. } => &self.polls_started,
            TraceEvent::PollOutcome {
                conclusion, votes, ..
            } => {
                self.poll_votes.observe(u64::from(*votes));
                match conclusion {
                    PollConclusion::Win => &self.polls_win,
                    PollConclusion::Loss => &self.polls_loss,
                    PollConclusion::Inconclusive => &self.polls_inconclusive,
                    PollConclusion::Inquorate => &self.polls_inquorate,
                }
            }
            TraceEvent::MessageSend {
                suppressed: true, ..
            } => &self.msgs_suppressed,
            TraceEvent::MessageSend { .. } => &self.msgs_sent,
            TraceEvent::Admission { verdict, .. } => match verdict {
                AdmissionVerdict::Admitted => &self.admission_admitted,
                AdmissionVerdict::AdmittedIntroduced => &self.admission_introduced,
                AdmissionVerdict::RandomDrop => &self.admission_random_drop,
                AdmissionVerdict::Refractory => &self.admission_refractory,
                AdmissionVerdict::RateLimited => &self.admission_rate_limited,
            },
            TraceEvent::Damage { .. } => &self.damage_events,
            TraceEvent::Repair { .. } => &self.repairs_applied,
            TraceEvent::AdversaryAction { .. } => &self.adversary_actions,
            TraceEvent::PeerJoin { .. } => &self.peer_joins,
            TraceEvent::Compromise { .. } => &self.compromises,
            TraceEvent::Cure { .. } => &self.cures,
            TraceEvent::PoisonedRepair { .. } => &self.poisoned_repairs,
            // Adversary timers and phase marks are not counted.
            _ => return,
        };
        counter.inc();
    }
}
