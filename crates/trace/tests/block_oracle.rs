//! Differential oracle for the LTRC2 block writer.
//!
//! [`Recorder`] is the fast path: every event is written field by field
//! into the open block's columns as it arrives, full blocks are sealed on
//! a worker thread, and one LZ table and one set of scratch buffers serve
//! every column of every block. `reference` below is its slow twin, kept
//! from before any of that existed: events buffered as whole records, a
//! block transposed into freshly allocated columns when it closes, every
//! column compressed through a new hash table, the index entry built by a
//! second walk over the records — all on the calling thread. It shares no
//! code with the library beyond the two varint/string primitives: the
//! per-kind payload layout is spelled out again here, by hand, so the
//! `payload_schema!` table is held to an independent statement of
//! docs/FORMATS.md as well.
//!
//! Both sides are fed the same events and must seal the same file, byte
//! for byte. The recorder's file must then decode back to the events
//! pushed — through `decode_all` and through `for_each_block` at 1, 2 and
//! 5 threads — so a writer and a reader that were wrong together would
//! still be caught by the reference's bytes.
//!
//! What the streams are built to reach:
//!
//! - every [`TraceEventKind`], string payloads included, in random order;
//! - block budgets 1, 2 and 16 (hundreds of blocks from a short stream:
//!   every hand-over, the worker's queue full, a partial last block, no
//!   last block at all) and 65,536 (the budget real recordings use, with
//!   columns long enough for far copies and multi-megabyte buffers);
//! - columns that pick each of the four encodings: constant, monotone,
//!   noisy and string-valued fields;
//! - streams shorter than one block, which never start the worker.
//!
//! The second test records every registered scenario and holds the
//! recorder to the reference on what a real run emits.
//!
//! `LOCKSS_ORACLE_SEEDS=<n>` sets the number of random streams, as it does
//! for the engine and admission oracles; when it is set the registry runs
//! at the registered quick scale instead of the shrunken worlds `cargo
//! test` uses (the nightly CI job sets it, on a release build).

use std::cell::RefCell;
use std::rc::Rc;

use lockss_core::trace::{
    AdmissionVerdict, MsgKind, PollConclusion, TraceEvent, TraceEventKind, TraceSink,
};
use lockss_core::World;
use lockss_crypto::sha256::sha256;
use lockss_experiments::scenario::Scenario;
use lockss_experiments::{Scale, ScenarioRegistry};
use lockss_sim::{Duration, Engine, SimTime};
use lockss_trace::columnar::{put_index, BlockEntry};
use lockss_trace::wire::{put_str, put_varint};
use lockss_trace::{for_each_block, Recorder, Trace, TraceMeta, TraceRecord};

const DEFAULT_SEEDS: u64 = 12;

/// `Some(n)` when `LOCKSS_ORACLE_SEEDS=n` asks for the nightly depth.
fn depth() -> Option<u64> {
    std::env::var("LOCKSS_ORACLE_SEEDS").ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("LOCKSS_ORACLE_SEEDS={v:?} is not a seed count"))
    })
}

/// The reference side: the block writer as it stood before events were
/// pushed straight into columns. `compress`, `zigzag_delta`,
/// `put_column_opts`, `encode_block_body`, `block_entry` and the
/// recorder's `flush_block`/`finish` (here `file`) are the parent commit's,
/// verbatim but for three things: the round-trip `debug_assert` in
/// `put_column_opts` is gone, `zigzag_delta` reads varints with a reader
/// of its own instead of the library's `Cursor`, and `put_event`,
/// `field_count` and `field_is_varint` restate the payload schema by hand.
mod reference {
    use super::*;

    const MIN_MATCH: usize = 4;
    const MAX_OFFSET: usize = 65_535;
    const HASH_BITS: u32 = 14;

    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    fn emit_literals(out: &mut Vec<u8>, input: &[u8], pos: usize, lit: usize) {
        let mut start = pos - lit;
        while start < pos {
            let n = (pos - start).min(64);
            out.push(((n - 1) as u8) << 2);
            out.extend_from_slice(&input[start..start + n]);
            start += n;
        }
    }

    fn emit_copy(out: &mut Vec<u8>, offset: usize, len: usize) {
        if len <= 11 && offset < 2048 {
            out.push(0x01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
            out.push((offset & 0xff) as u8);
        } else {
            out.push(0x02 | (((len - 4) as u8) << 2));
            out.extend_from_slice(&(offset as u16).to_le_bytes());
        }
    }

    fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let n = input.len();
        if n < MIN_MATCH {
            emit_literals(&mut out, input, n, n);
            return out;
        }
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut lit = 0usize;
        let limit = n - (MIN_MATCH - 1);
        while pos < limit {
            let h = hash4(&input[pos..]);
            let cand = table[h];
            table[h] = pos;
            let matched = cand != usize::MAX
                && pos - cand <= MAX_OFFSET
                && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH];
            if !matched {
                lit += 1;
                pos += 1;
                continue;
            }
            emit_literals(&mut out, input, pos, lit);
            let offset = pos - cand;
            let mut len = MIN_MATCH;
            while pos + len < n && input[cand + len] == input[pos + len] {
                len += 1;
            }
            let mut rest = len;
            while rest >= MIN_MATCH {
                let chunk = rest.min(67);
                let chunk = if rest - chunk > 0 && rest - chunk < MIN_MATCH {
                    rest - MIN_MATCH
                } else {
                    chunk
                };
                emit_copy(&mut out, offset, chunk);
                rest -= chunk;
            }
            lit = rest;
            pos += len - rest;
        }
        lit += n - pos;
        emit_literals(&mut out, input, n, lit);
        out
    }

    /// Reads one canonical LEB128 varint off the front of `bytes`.
    fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let (&byte, rest) = bytes.split_first()?;
            *bytes = rest;
            if shift == 9 && byte > 0x01 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << (7 * shift);
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn zigzag_delta(raw: &[u8]) -> Option<Vec<u8>> {
        let mut cur = raw;
        let mut out = Vec::with_capacity(raw.len());
        let mut prev = 0u64;
        let mut first = true;
        while !cur.is_empty() {
            let v = take_varint(&mut cur)?;
            if first {
                put_varint(&mut out, v);
                first = false;
            } else {
                let d = v.wrapping_sub(prev) as i64;
                put_varint(&mut out, ((d << 1) ^ (d >> 63)) as u64);
            }
            prev = v;
        }
        Some(out)
    }

    const ENC_RAW: u8 = 0;
    const ENC_LZ: u8 = 1;
    const ENC_DELTA: u8 = 2;
    const ENC_DELTA_LZ: u8 = 3;

    fn put_column_opts(out: &mut Vec<u8>, raw: &[u8], delta_ok: bool) {
        let packed = compress(raw);
        let (mut enc, mut basis_len, mut stored) = if packed.len() < raw.len() {
            (ENC_LZ, raw.len(), packed)
        } else {
            (ENC_RAW, raw.len(), raw.to_vec())
        };
        if delta_ok {
            if let Some(delta) = zigzag_delta(raw) {
                let dpacked = compress(&delta);
                if dpacked.len() < delta.len() && dpacked.len() < stored.len() {
                    (enc, basis_len, stored) = (ENC_DELTA_LZ, delta.len(), dpacked);
                } else if delta.len() < stored.len() {
                    (enc, basis_len, stored) = (ENC_DELTA, delta.len(), delta);
                }
            }
        }
        out.push(enc);
        put_varint(out, basis_len as u64);
        put_varint(out, stored.len() as u64);
        out.extend_from_slice(&stored);
    }

    /// Payload fields per kind, in kind-code order (docs/FORMATS.md).
    const FIELDS: [usize; TraceEventKind::COUNT] = [3, 5, 6, 3, 4, 5, 2, 3, 1, 1, 2, 2, 5];

    fn field_count(kind: TraceEventKind) -> usize {
        FIELDS[kind.code() as usize - 1]
    }

    /// Every field but the two strings is a canonical varint stream.
    fn field_is_varint(kind: TraceEventKind, field: usize) -> bool {
        !matches!(
            (kind, field),
            (TraceEventKind::AdversaryAction, 1) | (TraceEventKind::PhaseMark, 0)
        )
    }

    /// Writes field `i` of `event`'s payload to `cols[i]`.
    fn put_event(cols: &mut [Vec<u8>], event: &TraceEvent) {
        let mut next = 0;
        let mut varint = |v: u64| {
            put_varint(&mut cols[next], v);
            next += 1;
        };
        match event {
            TraceEvent::PollStart { peer, au, poll } => {
                varint(u64::from(*peer));
                varint(u64::from(*au));
                varint(*poll);
            }
            TraceEvent::PollOutcome {
                peer,
                au,
                poll,
                conclusion,
                votes,
            } => {
                varint(u64::from(*peer));
                varint(u64::from(*au));
                varint(*poll);
                varint(u64::from(conclusion.code()));
                varint(u64::from(*votes));
            }
            TraceEvent::MessageSend {
                from,
                to,
                kind,
                au,
                poll,
                suppressed,
            } => {
                varint(u64::from(*from));
                varint(u64::from(*to));
                varint(u64::from(kind.code()));
                varint(u64::from(*au));
                varint(*poll);
                varint(u64::from(*suppressed));
            }
            TraceEvent::Admission {
                peer,
                poller,
                verdict,
            } => {
                varint(u64::from(*peer));
                varint(*poller);
                varint(u64::from(verdict.code()));
            }
            TraceEvent::Damage {
                peer,
                au,
                block,
                was_intact,
            } => {
                varint(u64::from(*peer));
                varint(u64::from(*au));
                varint(*block);
                varint(u64::from(*was_intact));
            }
            TraceEvent::Repair {
                peer,
                au,
                poll,
                block,
                intact_after,
            } => {
                varint(u64::from(*peer));
                varint(u64::from(*au));
                varint(*poll);
                varint(*block);
                varint(u64::from(*intact_after));
            }
            TraceEvent::AdversaryTimer { channel, tag } => {
                varint(*channel);
                varint(*tag);
            }
            TraceEvent::AdversaryAction {
                channel,
                label,
                magnitude,
            } => {
                put_varint(&mut cols[0], *channel);
                put_str(&mut cols[1], label);
                put_varint(&mut cols[2], *magnitude);
            }
            TraceEvent::PeerJoin { peer } => varint(u64::from(*peer)),
            TraceEvent::PhaseMark { label } => put_str(&mut cols[0], label),
            TraceEvent::Compromise { peer, corrupted } => {
                varint(u64::from(*peer));
                varint(*corrupted);
            }
            TraceEvent::Cure { peer, residual } => {
                varint(u64::from(*peer));
                varint(*residual);
            }
            TraceEvent::PoisonedRepair {
                peer,
                au,
                poll,
                block,
                server,
            } => {
                varint(u64::from(*peer));
                varint(u64::from(*au));
                varint(*poll);
                varint(*block);
                varint(u64::from(*server));
            }
        }
    }

    fn encode_block_body(records: &[TraceRecord]) -> Vec<u8> {
        let mut kinds = Vec::with_capacity(records.len());
        let mut d_at = Vec::with_capacity(records.len());
        let mut d_seq = Vec::with_capacity(records.len());
        let mut payloads: Vec<Vec<Vec<u8>>> = TraceEventKind::ALL
            .iter()
            .map(|k| vec![Vec::new(); field_count(*k)])
            .collect();
        let mut bitmap = 0u64;

        let base_at = records.first().map_or(0, |r| r.at.as_millis());
        let base_seq = records.first().map_or(0, |r| r.seq);
        let mut prev_at = base_at;
        let mut prev_seq = base_seq;
        for record in records {
            let kind = record.event.kind();
            bitmap |= kind.bit();
            kinds.push(kind.code());
            put_varint(&mut d_at, record.at.as_millis() - prev_at);
            put_varint(&mut d_seq, record.seq - prev_seq);
            prev_at = record.at.as_millis();
            prev_seq = record.seq;
            put_event(&mut payloads[kind.code() as usize - 1], &record.event);
        }

        let mut body = Vec::with_capacity(records.len() * 4 + 64);
        put_varint(&mut body, records.len() as u64);
        put_varint(&mut body, base_at);
        put_varint(&mut body, base_seq);
        put_varint(&mut body, bitmap);
        put_column_opts(&mut body, &kinds, true);
        put_column_opts(&mut body, &d_at, true);
        put_column_opts(&mut body, &d_seq, true);
        for kind in TraceEventKind::ALL {
            if bitmap & kind.bit() != 0 {
                let cols = &payloads[kind.code() as usize - 1];
                put_varint(&mut body, cols.len() as u64);
                for (i, col) in cols.iter().enumerate() {
                    put_column_opts(&mut body, col, field_is_varint(kind, i));
                }
            }
        }
        body
    }

    fn block_entry(offset: u64, body: &[u8], records: &[TraceRecord]) -> BlockEntry {
        let mut bitmap = 0u64;
        for record in records {
            bitmap |= record.event.kind().bit();
        }
        BlockEntry {
            offset,
            body_len: body.len() as u64,
            n_events: records.len() as u64,
            kind_bitmap: bitmap,
            first_at_ms: records.first().map_or(0, |r| r.at.as_millis()),
            last_at_ms: records.last().map_or(0, |r| r.at.as_millis()),
            digest: sha256(body),
        }
    }

    /// The sealed LTRC2 file of `records` at `block_events` per block.
    pub fn file(meta: &TraceMeta, records: &[TraceRecord], block_events: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTRC2\n");
        put_str(&mut buf, &meta.scenario);
        put_str(&mut buf, &meta.scale);
        put_varint(&mut buf, meta.seed);
        put_varint(&mut buf, meta.run_length_ms);
        let mut blocks = Vec::new();
        for pending in records.chunks(block_events) {
            let body = encode_block_body(pending);
            let offset = buf.len() as u64;
            buf.push(1);
            put_varint(&mut buf, body.len() as u64);
            buf.extend_from_slice(&body);
            blocks.push(block_entry(offset, &body, pending));
        }
        let index_offset = buf.len() as u64;
        buf.push(0);
        put_index(&mut buf, &blocks);
        buf.extend_from_slice(&index_offset.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
        let digest = sha256(&buf);
        buf.extend_from_slice(&digest);
        buf
    }
}

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn peer(&mut self) -> u32 {
        self.below(300) as u32
    }
}

/// One event of kind `kind`. `poll` climbs slowly across the stream, so
/// the poll-id columns are monotone (the delta encodings' case) while the
/// peer columns are noise and the AU and code columns near-constant; one
/// value in 64 is drawn from the whole `u64`/`u32` range so multi-byte
/// varints and wrapping deltas occur.
fn event_of(kind: TraceEventKind, rng: &mut Rng, poll: u64) -> TraceEvent {
    let wide = rng.below(64) == 0;
    let big = |rng: &mut Rng, small: u64| if wide { rng.next() } else { rng.below(small) };
    let au = rng.below(3) as u32;
    let block = rng.below(500);
    let label = |rng: &mut Rng| match rng.below(8) {
        0 => String::new(),
        1 => "é-phase/∆".repeat(1 + rng.below(40) as usize),
        n => format!("attack-{n}/step"),
    };
    match kind {
        TraceEventKind::PollStart => TraceEvent::PollStart {
            peer: rng.peer(),
            au,
            poll,
        },
        TraceEventKind::PollOutcome => TraceEvent::PollOutcome {
            peer: rng.peer(),
            au,
            poll,
            conclusion: PollConclusion::from_code(rng.below(4) as u8).expect("4 conclusions"),
            votes: big(rng, 20) as u32,
        },
        TraceEventKind::MessageSend => TraceEvent::MessageSend {
            from: rng.peer(),
            to: rng.peer(),
            kind: MsgKind::from_code(rng.below(7) as u8).expect("7 message kinds"),
            au,
            poll,
            suppressed: rng.below(5) == 0,
        },
        TraceEventKind::Admission => TraceEvent::Admission {
            peer: rng.peer(),
            poller: big(rng, 300),
            verdict: AdmissionVerdict::from_code(rng.below(5) as u8).expect("5 verdicts"),
        },
        TraceEventKind::Damage => TraceEvent::Damage {
            peer: rng.peer(),
            au,
            block,
            was_intact: rng.below(2) == 0,
        },
        TraceEventKind::Repair => TraceEvent::Repair {
            peer: rng.peer(),
            au,
            poll,
            block,
            intact_after: rng.below(2) == 0,
        },
        TraceEventKind::AdversaryTimer => TraceEvent::AdversaryTimer {
            channel: rng.below(4),
            tag: big(rng, 1000),
        },
        TraceEventKind::AdversaryAction => TraceEvent::AdversaryAction {
            channel: rng.below(4),
            label: label(rng),
            magnitude: big(rng, 10_000),
        },
        TraceEventKind::PeerJoin => TraceEvent::PeerJoin {
            peer: big(rng, 300) as u32,
        },
        TraceEventKind::PhaseMark => TraceEvent::PhaseMark { label: label(rng) },
        TraceEventKind::Compromise => TraceEvent::Compromise {
            peer: rng.peer(),
            corrupted: big(rng, 50),
        },
        TraceEventKind::Cure => TraceEvent::Cure {
            peer: rng.peer(),
            residual: big(rng, 50),
        },
        TraceEventKind::PoisonedRepair => TraceEvent::PoisonedRepair {
            peer: rng.peer(),
            au,
            poll,
            block,
            server: rng.peer(),
        },
    }
}

/// `n` events with monotone time and ordinal (the sink contract): bursts
/// at one instant, long idle gaps, and message-sends as the bulk, as in a
/// real run.
fn random_stream(seed: u64, n: usize) -> Vec<TraceRecord> {
    let mut rng = Rng(seed);
    let (mut at, mut seq, mut poll) = (rng.below(1 << 40), rng.below(1000), rng.below(1 << 20));
    (0..n)
        .map(|_| {
            at += match rng.below(8) {
                0..=3 => 0,
                4..=6 => rng.below(5_000),
                _ => rng.below(30 * 24 * 3600 * 1000),
            };
            seq += rng.below(3);
            poll += u64::from(rng.below(50) == 0);
            let kind = if rng.below(2) == 0 {
                TraceEventKind::MessageSend
            } else {
                TraceEventKind::ALL[rng.below(TraceEventKind::COUNT as u64) as usize]
            };
            TraceRecord {
                at: SimTime(at),
                seq,
                event: event_of(kind, &mut rng, poll),
            }
        })
        .collect()
}

fn meta() -> TraceMeta {
    TraceMeta {
        scenario: "block-oracle".into(),
        scale: "quick".into(),
        seed: 1 << 40,
        run_length_ms: 12_345_678_901,
    }
}

/// Holds the recorder to the reference on `records` at `block_events`.
fn check(what: &str, meta: &TraceMeta, records: &[TraceRecord], block_events: usize) {
    let recorder = Recorder::with_block_events(meta, block_events);
    let mut sink: Box<dyn TraceSink> = Box::new(recorder.clone());
    for r in records {
        sink.record(r.at, r.seq, &r.event);
    }
    drop(sink);
    check_sealed(what, meta, records, block_events, &recorder.finish());
}

/// The sealed `trace` is the reference's file and decodes to `records`.
fn check_sealed(
    what: &str,
    meta: &TraceMeta,
    records: &[TraceRecord],
    block_events: usize,
    trace: &Trace,
) {
    let what = format!("{what}, {} event(s), budget {block_events}", records.len());
    let want = reference::file(meta, records, block_events);
    // Not assert_eq!: a failure would print both files.
    assert!(
        trace.as_bytes() == want,
        "{what}: the recorder sealed {} bytes, the reference {}; first difference at byte {:?}",
        trace.as_bytes().len(),
        want.len(),
        trace.as_bytes().iter().zip(&want).position(|(a, b)| a != b)
    );
    assert_eq!(trace.events(), records.len() as u64, "{what}");
    assert_eq!(
        trace.blocks().len(),
        records.len().div_ceil(block_events),
        "{what}"
    );
    let reread = Trace::from_bytes(want).expect("the reference's file validates");
    assert!(
        reread.decode_all().expect("decodes") == records,
        "{what}: decode_all"
    );
    for threads in [1, 2, 5] {
        let mut folded = Vec::with_capacity(records.len());
        let mut calls = 0;
        for_each_block(trace, threads, |block| {
            calls += 1;
            folded.extend_from_slice(block);
        })
        .expect("decodes");
        assert_eq!(calls, trace.blocks().len(), "{what}: {threads} thread(s)");
        assert!(folded == records, "{what}: {threads} thread(s)");
    }
}

#[test]
fn recorder_seals_the_reference_bytes_on_random_streams() {
    let seeds = depth().unwrap_or(DEFAULT_SEEDS);
    for seed in 0..seeds {
        let mut rng = Rng(seed ^ 0xB10C);
        let records = random_stream(seed, 300 + rng.below(500) as usize);
        for budget in [1, 2, 16] {
            check(&format!("seed {seed}"), &meta(), &records, budget);
        }
        // One block, never full: sealed on the recording thread.
        check(&format!("seed {seed}"), &meta(), &records, 65_536);
    }
    // The budget real recordings use, filled: one stream in twelve (they
    // are 200× longer). Two full blocks and a partial third, and a
    // stream that ends exactly on a block boundary.
    for seed in 0..seeds.div_ceil(12) {
        let records = random_stream(!seed, 2 * 65_536 + 10_000);
        check(&format!("long seed {seed}"), &meta(), &records, 65_536);
        check(
            &format!("long seed {seed}"),
            &meta(),
            &records[..65_536],
            65_536,
        );
    }
    check("empty", &meta(), &[], 16);
}

/// Forwards to the recorder under test and keeps what went in.
struct Tee {
    recorder: Recorder,
    seen: Rc<RefCell<Vec<TraceRecord>>>,
}

impl TraceSink for Tee {
    fn record(&mut self, at: SimTime, seq: u64, event: &TraceEvent) {
        self.seen.borrow_mut().push(TraceRecord {
            at,
            seq,
            event: event.clone(),
        });
        self.recorder.record(at, seq, event);
    }
}

/// Runs `scenario` with a [`Tee`] as its sink: the events a real run
/// emits, kept beside the recorder they were pushed into.
fn record_with_tee(scenario: &Scenario, seed: u64, recorder: &Recorder) -> Vec<TraceRecord> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = World::new(cfg);
    world.set_trace_sink(Box::new(Tee {
        recorder: recorder.clone(),
        seen: Rc::clone(&seen),
    }));
    if let Some(adversary) = scenario.attack.build() {
        world.install_adversary(adversary);
    }
    let mut engine: Engine<World> = Engine::new();
    world.start(&mut engine);
    engine.run_until(&mut world, SimTime::ZERO + scenario.run_length);
    drop(world);
    Rc::try_unwrap(seen)
        .expect("the world dropped its sink")
        .into_inner()
}

#[test]
fn recorder_seals_the_reference_bytes_on_every_registered_scenario() {
    let full = depth().is_some();
    for entry in ScenarioRegistry::standard().entries() {
        let mut scenario = entry.build(Scale::Quick);
        if !full {
            scenario.cfg.n_peers = 30;
            scenario.cfg.n_aus = 2;
            scenario.run_length = Duration::from_days(150);
        }
        let meta = TraceMeta {
            scenario: entry.name().to_string(),
            scale: "quick".to_string(),
            seed: 7,
            run_length_ms: scenario.run_length.as_millis(),
        };
        // The shrunken worlds emit less than one default block; a budget
        // of 4,096 gives them several, so the worker path is the one
        // under test either way.
        let budget = if full { 65_536 } else { 4_096 };
        let recorder = Recorder::with_block_events(&meta, budget);
        let records = record_with_tee(&scenario, 7, &recorder);
        assert!(!records.is_empty(), "{}: empty stream", entry.name());
        check_sealed(entry.name(), &meta, &records, budget, &recorder.finish());
    }
}
