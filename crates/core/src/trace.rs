//! The event vocabulary: every fact a run reports, and the sink trait the
//! world emits it through.
//!
//! Each kind of [`TraceEvent`] — poll lifecycle, message sends, admission
//! verdicts, damage and repair, adversary timers and actions, churn,
//! phase marks, the compromise lifecycle — is one row of
//! [`trace_event_table!`](crate::trace_event_table): code, label, typed
//! fields. This module expands the table into [`TraceEventKind`] and
//! [`TraceEvent`]; `lockss-trace` expands it into its wire codecs. The
//! world states each fact at one emission point, which builds the event
//! only while a [`TraceSink`] or [`crate::obs::CoreObs`] is installed.
//!
//! Everything *about* traces — the binary format, the recorder, replay
//! verification, diffing, and statistics — lives in `lockss-trace`, which
//! depends on this crate.

use lockss_sim::SimTime;

/// Declares a `u8`-coded enum from one variant list — each variant's code
/// and label written once — with `ALL` (in code order), `code`,
/// `from_code` and `label` generated from it. Codes are append-only: new
/// variants take fresh numbers and existing numbers are never reused, so
/// traces recorded by older builds stay decodable.
macro_rules! coded_enum {
    ($(#[$attr:meta])* $name:ident {
        $($(#[$doc:meta])* $variant:ident = $code:literal => $label:literal,)+
    }) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$doc])* $variant = $code,)+
        }

        impl $name {
            /// Every variant, in code order.
            pub const ALL: [$name; [$($code),+].len()] = [$($name::$variant),+];

            /// The wire code.
            pub fn code(self) -> u8 {
                self as u8
            }

            /// Decodes a wire code.
            pub fn from_code(code: u8) -> Option<$name> {
                match code {
                    $($code => Some($name::$variant),)+
                    _ => None,
                }
            }

            /// Short label for reports.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

/// The event table: one row per kind — its doc, `Kind = code => "label"`,
/// and its payload fields in encoding order, each with its type and doc.
///
/// Every consumer expands the same rows by naming a callback macro:
/// `trace_event_table!(cb)` expands to `cb! { rows }`. This crate
/// generates [`TraceEventKind`](crate::TraceEventKind) and
/// [`TraceEvent`](crate::TraceEvent) from it; `lockss-trace` generates
/// its payload codecs. A new kind is one row here, one arm in
/// `TraceEvent`'s `Display`, one row in docs/FORMATS.md and, if it is
/// counted, one arm in [`CoreObs::observe`](crate::CoreObs::observe).
/// Kind codes are append-only and capped at 64 (the per-block kind
/// bitmap assigns bit `code - 1`).
#[macro_export]
macro_rules! trace_event_table {
    ($callback:ident) => {
        $callback! {
            /// A poll opened at loyal peer `peer` on `au`.
            PollStart = 1 => "poll-start" {
                /// Poller peer index.
                peer: u32,
                /// Archival unit index.
                au: u32,
                /// The globally unique poll id.
                poll: u64,
            }
            /// A poll concluded, with its outcome.
            PollOutcome = 2 => "poll-outcome" {
                /// Poller peer index.
                peer: u32,
                /// Archival unit index.
                au: u32,
                /// The poll id.
                poll: u64,
                /// How it concluded.
                conclusion: $crate::trace::PollConclusion,
                /// Valid votes recorded when it concluded.
                votes: u32,
            }
            /// A message was handed to the network (or suppressed at the
            /// source).
            MessageSend = 3 => "message-send" {
                /// Source network node index.
                from: u32,
                /// Destination network node index.
                to: u32,
                /// Message kind.
                kind: $crate::trace::MsgKind,
                /// The AU the message concerns.
                au: u32,
                /// The poll the message belongs to.
                poll: u64,
                /// True if the network suppressed the send at the source
                /// (pipe stoppage): the suppression verdict.
                suppressed: bool,
            }
            /// An invitation hit the admission filter at a voter.
            Admission = 4 => "admission" {
                /// The filtering peer index.
                peer: u32,
                /// The raw identity the poller presented.
                poller: u64,
                /// The verdict.
                verdict: $crate::trace::AdmissionVerdict,
            }
            /// A storage-damage arrival hit a replica block.
            Damage = 5 => "damage" {
                /// The hit peer index.
                peer: u32,
                /// Archival unit index.
                au: u32,
                /// Damaged block index.
                block: u64,
                /// True if the replica was intact before this hit.
                was_intact: bool,
            }
            /// A repair block was applied at a poller.
            Repair = 6 => "repair" {
                /// The repairing poller's peer index.
                peer: u32,
                /// Archival unit index.
                au: u32,
                /// The poll that planned the repair.
                poll: u64,
                /// The repaired block index.
                block: u64,
                /// True if the replica became fully intact with this repair.
                intact_after: bool,
            }
            /// An adversary timer fired and is about to dispatch.
            AdversaryTimer = 7 => "adversary-timer" {
                /// The adversary channel the timer was scheduled on.
                channel: u64,
                /// The strategy-private tag.
                tag: u64,
            }
            /// A strategy-declared adversary action (provenance tag).
            AdversaryAction = 8 => "adversary-action" {
                /// The adversary channel active when the action was declared.
                channel: u64,
                /// The strategy's declared action, e.g. `churn-storm/depart`.
                label: $crate::trace::Label,
                /// Strategy-chosen magnitude (victims this wave, sybils
                /// minted...).
                magnitude: u64,
            }
            /// A loyal peer joined the population after the start of the run.
            PeerJoin = 9 => "peer-join" {
                /// The new peer's index.
                peer: u32,
            }
            /// A named phase boundary was recorded in the run metrics.
            PhaseMark = 10 => "phase-mark" {
                /// The strategy whose phase begins.
                label: $crate::trace::Label,
            }
            /// The mobile adversary took over a loyal peer: shadow replicas
            /// were snapshotted and the real replicas corrupted.
            Compromise = 11 => "compromise" {
                /// The victim's peer index.
                peer: u32,
                /// Blocks newly corrupted across the victim's replicas.
                corrupted: u64,
            }
            /// A compromised peer returned to loyal behavior (cure ≠ heal:
            /// the replica damage persists until the repair machinery
            /// removes it).
            Cure = 12 => "cure" {
                /// The cured peer's index.
                peer: u32,
                /// Damaged blocks left behind across the peer's replicas.
                residual: u64,
            }
            /// A repair block served by a compromised peer was applied: the
            /// target block stays (or becomes) damaged instead of healing.
            PoisonedRepair = 13 => "poisoned-repair" {
                /// The repairing poller's peer index.
                peer: u32,
                /// Archival unit index.
                au: u32,
                /// The poll that planned the repair.
                poll: u64,
                /// The poisoned block index.
                block: u64,
                /// The compromised serving peer's index.
                server: u32,
            }
        }
    };
}

/// Expands the event table into the kind enum and the event enum.
macro_rules! declare_events {
    ($($(#[$doc:meta])* $kind:ident = $code:literal => $label:literal {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty,)+
    })+) => {
        coded_enum! {
            /// The kind of a [`TraceEvent`]; its code is the wire code in
            /// `lockss-trace`.
            #[derive(PartialOrd, Ord, Hash)]
            TraceEventKind {
                $($(#[$doc])* $kind = $code => $label,)+
            }
        }

        /// One fact of a run.
        ///
        /// Identities, nodes, and polls are carried as their raw integer
        /// forms so the vocabulary encodes compactly and compares exactly;
        /// the semantic wrappers ([`crate::types::Identity`],
        /// [`crate::types::PollId`], `lockss_net::NodeId`) all expose these
        /// integers losslessly. Adversary labels are [`Label`]s, so an event
        /// is plain `Copy` data that owns no heap.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum TraceEvent {
            $($(#[$doc])* $kind { $($(#[$field_doc])* $field: $ty,)+ },)+
        }

        impl TraceEvent {
            /// This event's kind.
            pub fn kind(&self) -> TraceEventKind {
                match self {
                    $(TraceEvent::$kind { .. } => TraceEventKind::$kind,)+
                }
            }
        }
    };
}

trace_event_table!(declare_events);

impl TraceEventKind {
    /// Number of registered kinds (codes run `1..=COUNT`).
    pub const COUNT: usize = Self::ALL.len();

    /// This kind's bit in a kind bitmap (bit `code - 1`), the presence
    /// mask the block-columnar trace format keeps per block so readers
    /// can skip whole blocks — and whole payload columns — by kind.
    /// Kind codes are append-only and capped at 64 by this encoding.
    pub fn bit(self) -> u64 {
        1u64 << (self.code() - 1)
    }
}

impl std::fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

coded_enum! {
    /// How a poll concluded (the [`TraceEvent::PollOutcome`] payload).
    PollConclusion {
        /// Landslide agreement: the replica was audited clean (§4.3).
        Win = 0 => "win",
        /// Landslide disagreement: repairs were needed (alarm raised).
        Loss = 1 => "loss",
        /// Quorate but no landslide either way (alarm raised).
        Inconclusive = 2 => "inconclusive",
        /// Fewer votes than the quorum: the poll failed silently.
        Inquorate = 3 => "inquorate",
    }
}

coded_enum! {
    /// An admission-control verdict on one invitation (§5.1): what
    /// [`crate::admission::AdmissionControl::filter`] returns and the
    /// [`TraceEvent::Admission`] payload.
    AdmissionVerdict {
        /// Admitted through the ordinary reputation path.
        Admitted = 0 => "admitted",
        /// Admitted by consuming an introduction.
        AdmittedIntroduced = 1 => "admitted-introduced",
        /// Silently dropped by the random-drop filter.
        RandomDrop = 2 => "random-drop",
        /// Auto-rejected by an active refractory period.
        Refractory = 3 => "refractory",
        /// Rate-limited: the identity already used its admission slot.
        RateLimited = 4 => "rate-limited",
    }
}

impl AdmissionVerdict {
    /// True for either admitted variant.
    pub fn is_admitted(self) -> bool {
        matches!(
            self,
            AdmissionVerdict::Admitted | AdmissionVerdict::AdmittedIntroduced
        )
    }
}

coded_enum! {
    /// A protocol-message kind ([`crate::msg::Message::kind`], the
    /// [`TraceEvent::MessageSend`] payload).
    MsgKind {
        /// A poll invitation.
        Poll = 0 => "Poll",
        /// Acceptance/refusal of an invitation.
        PollAck = 1 => "PollAck",
        /// The remaining effort proof.
        PollProof = 2 => "PollProof",
        /// A vote.
        Vote = 3 => "Vote",
        /// A repair-block request.
        RepairRequest = 4 => "RepairRequest",
        /// A repair block.
        Repair = 5 => "Repair",
        /// An evaluation receipt.
        EvaluationReceipt = 6 => "EvaluationReceipt",
    }
}

/// Declares a label vocabulary from one row list — each label's variant
/// and string written once — with `ALL` (in table order), `label` and
/// `from_label` generated from it. A label travels as its string (a
/// length-prefixed `str` in `lockss-trace`); the variant's in-memory code
/// never reaches the wire, so a decoder accepts exactly the strings the
/// table declares.
macro_rules! label_table {
    ($(#[$attr:meta])* $name:ident {
        $($variant:ident => $label:literal,)+
    }) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum $name {
            $(#[doc = $label] $variant,)+
        }

        impl $name {
            /// Every label, in table order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// The label's string, as the trace carries it.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// The declared label whose string is exactly `bytes`, if
            /// there is one. Bytes that match are the label's UTF-8, so a
            /// decoder needs no UTF-8 pass of its own.
            pub fn from_label(bytes: &[u8]) -> Option<$name> {
                match bytes {
                    $(b if b == $label.as_bytes() => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

label_table! {
    /// Every label a run can emit: the action an
    /// [`TraceEvent::AdversaryAction`] declares, and the strategy name an
    /// [`crate::Adversary`] reports and a [`TraceEvent::PhaseMark`] carries.
    /// An event holds its label by value, so events own no heap; a trace
    /// string the table does not declare is a decode error.
    Label {
        AdmissionFloodCycleStart => "admission-flood/cycle-start",
        AdmissionFloodCycleEnd => "admission-flood/cycle-end",
        AdmissionFloodBurst => "admission-flood/burst",
        SybilRampEscalate => "sybil-ramp/escalate",
        SybilRampBurst => "sybil-ramp/burst",
        VoteFloodWave => "vote-flood/wave",
        BruteForcePoll => "brute-force/poll",
        PipeStoppageStop => "pipe-stoppage/stop",
        PipeStoppageRestore => "pipe-stoppage/restore",
        ChurnStormDepart => "churn-storm/depart",
        ChurnStormRejoin => "churn-storm/rejoin",
        MobileTakeoverCompromise => "mobile-takeover/compromise",
        MobileTakeoverCure => "mobile-takeover/cure",
        NoAttack => "none",
        Composite => "composite",
        AdmissionFlood => "admission-flood",
        SybilRamp => "sybil-ramp",
        VoteFlood => "vote-flood",
        BruteForceIntro => "brute-force/INTRO",
        BruteForceRemaining => "brute-force/REMAINING",
        BruteForceNone => "brute-force/NONE",
        PipeStoppage => "pipe-stoppage",
        ChurnStorm => "churn-storm",
        MobileTakeover => "mobile-takeover",
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::PollStart { peer, au, poll } => {
                write!(f, "poll-start peer#{peer} au{au} poll{poll}")
            }
            TraceEvent::PollOutcome {
                peer,
                au,
                poll,
                conclusion,
                votes,
            } => write!(
                f,
                "poll-outcome peer#{peer} au{au} poll{poll} {} ({votes} votes)",
                conclusion.label()
            ),
            TraceEvent::MessageSend {
                from,
                to,
                kind,
                au,
                poll,
                suppressed,
            } => write!(
                f,
                "send {} node{from}->node{to} au{au} poll{poll}{}",
                kind.label(),
                if *suppressed { " SUPPRESSED" } else { "" }
            ),
            TraceEvent::Admission {
                peer,
                poller,
                verdict,
            } => write!(
                f,
                "admission peer#{peer} <- id{poller}: {}",
                verdict.label()
            ),
            TraceEvent::Damage {
                peer,
                au,
                block,
                was_intact,
            } => write!(
                f,
                "damage peer#{peer} au{au} block{block}{}",
                if *was_intact { " (first hit)" } else { "" }
            ),
            TraceEvent::Repair {
                peer,
                au,
                poll,
                block,
                intact_after,
            } => write!(
                f,
                "repair peer#{peer} au{au} poll{poll} block{block}{}",
                if *intact_after { " (now intact)" } else { "" }
            ),
            TraceEvent::AdversaryTimer { channel, tag } => {
                write!(f, "adversary-timer ch{channel} tag{tag}")
            }
            TraceEvent::AdversaryAction {
                channel,
                label,
                magnitude,
            } => write!(f, "adversary ch{channel} {label} x{magnitude}"),
            TraceEvent::PeerJoin { peer } => write!(f, "peer-join peer#{peer}"),
            TraceEvent::PhaseMark { label } => write!(f, "phase-mark '{label}'"),
            TraceEvent::Compromise { peer, corrupted } => {
                write!(f, "compromise peer#{peer} ({corrupted} blocks corrupted)")
            }
            TraceEvent::Cure { peer, residual } => {
                write!(f, "cure peer#{peer} ({residual} blocks still damaged)")
            }
            TraceEvent::PoisonedRepair {
                peer,
                au,
                poll,
                block,
                server,
            } => write!(
                f,
                "poisoned-repair peer#{peer} au{au} poll{poll} block{block} from peer#{server}"
            ),
        }
    }
}

/// Receives the causal event stream of a traced run.
///
/// Implementations live in `lockss-trace` (the binary recorder, the replay
/// verifier); the world calls [`TraceSink::record`] once per emitted event
/// with the simulated instant and the engine's executed-event ordinal, a
/// causal position that a faithful replay must reproduce exactly.
pub trait TraceSink {
    /// One event, in causal order. `seq` is the engine's executed-event
    /// count at emission (all events emitted by one engine event share it).
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent);

    /// Polled after each [`TraceSink::record`]; returning true makes the
    /// world abort the run via `Engine::request_stop` (used by replay
    /// verification to stop at the first divergence).
    fn wants_stop(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for kind in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TraceEventKind::from_code(0), None);
        assert_eq!(TraceEventKind::from_code(200), None);
        assert_eq!(TraceEventKind::PoisonedRepair.label(), "poisoned-repair");
    }

    #[test]
    fn kind_bits_are_distinct_and_dense() {
        let mut mask = 0u64;
        for kind in TraceEventKind::ALL {
            assert_eq!(mask & kind.bit(), 0, "{kind} bit collides");
            mask |= kind.bit();
        }
        assert_eq!(mask, (1u64 << TraceEventKind::COUNT) - 1);
        // Rows are appended in code order: readers index by `code - 1`.
        let codes = TraceEventKind::ALL.map(TraceEventKind::code);
        assert!(codes.windows(2).all(|w| w[0] + 1 == w[1]), "{codes:?}");
    }

    #[test]
    fn payload_codes_roundtrip() {
        for c in PollConclusion::ALL {
            assert_eq!(PollConclusion::from_code(c.code()), Some(c));
        }
        assert_eq!(PollConclusion::from_code(9), None);
        for v in AdmissionVerdict::ALL {
            assert_eq!(AdmissionVerdict::from_code(v.code()), Some(v));
        }
        // The verdict codes are pinned: recorded traces and the benchmark
        // index counts by them.
        assert_eq!(
            AdmissionVerdict::ALL.map(AdmissionVerdict::code),
            [0, 1, 2, 3, 4]
        );
        assert!(AdmissionVerdict::AdmittedIntroduced.is_admitted());
        assert!(!AdmissionVerdict::Refractory.is_admitted());
        for k in MsgKind::ALL {
            assert_eq!(MsgKind::from_code(k.code()), Some(k));
        }
        assert_eq!(MsgKind::ALL.len(), 7);
        assert_eq!(MsgKind::from_code(7), None);
    }

    #[test]
    fn labels_roundtrip_through_their_strings() {
        for label in Label::ALL {
            assert_eq!(Label::from_label(label.label().as_bytes()), Some(label));
            assert_eq!(label.to_string(), label.label());
        }
        assert_eq!(Label::ALL.len(), 24);
        for undeclared in ["", "none ", "Composite", "churn-storm/", "attack/1"] {
            assert_eq!(
                Label::from_label(undeclared.as_bytes()),
                None,
                "{undeclared:?}"
            );
        }
    }

    #[test]
    fn events_display_compactly() {
        let e = TraceEvent::PollOutcome {
            peer: 3,
            au: 1,
            poll: 99,
            conclusion: PollConclusion::Win,
            votes: 7,
        };
        assert_eq!(e.kind(), TraceEventKind::PollOutcome);
        let s = e.to_string();
        assert!(s.contains("poll99") && s.contains("win") && s.contains("7 votes"));
        let e = TraceEvent::MessageSend {
            from: 1,
            to: 2,
            kind: MsgKind::Poll,
            au: 0,
            poll: 5,
            suppressed: true,
        };
        assert!(e.to_string().contains("SUPPRESSED"));
        let e = TraceEvent::Compromise {
            peer: 4,
            corrupted: 6,
        };
        assert_eq!(e.kind(), TraceEventKind::Compromise);
        assert!(e.to_string().contains("compromise peer#4"));
        let e = TraceEvent::Cure {
            peer: 4,
            residual: 3,
        };
        assert_eq!(e.kind(), TraceEventKind::Cure);
        assert!(e.to_string().contains("3 blocks still damaged"));
        let e = TraceEvent::PoisonedRepair {
            peer: 2,
            au: 1,
            poll: 7,
            block: 9,
            server: 5,
        };
        assert_eq!(e.kind(), TraceEventKind::PoisonedRepair);
        assert!(e.to_string().contains("from peer#5"));
    }
}
