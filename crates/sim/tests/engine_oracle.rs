//! Differential oracle for the event engine.
//!
//! [`Engine`] is a fast path (inline closures stored in a timing wheel's
//! chunks);
//! `RefEngine` below is its slow twin: one `Vec` of `(time, seq, boxed
//! closure)` kept sorted, nothing else. A seeded random program — events
//! that log themselves and spawn more events, driven in `run_until` slices
//! from outside — runs on both, and the two execution logs must be equal
//! entry for entry. The program's only randomness is one [`SimRng`] inside
//! the world, drawn in execution order, so a single transposed pair of
//! events changes every draw after it.
//!
//! What the program is built to reach:
//!
//! - heavy same-instant ties (bursts at one instant, zero-delay children
//!   scheduled while their instant is draining, past times clamped to now);
//! - bursts of more than two of the engine's 32-entry chunks, at one
//!   instant or a few adjacent ones, some far enough ahead that the slot
//!   holding them cascades while it spans several chunks;
//! - delays from 1 ms to 10 years, and absolute times one below, at and one
//!   above multiples of 64ⁿ (the wheel's digit boundaries);
//! - `run_until` cut at arbitrary instants — empty slices, slices into the
//!   past — with events scheduled between slices, including exactly at
//!   `until`;
//! - `request_stop` in the middle of a same-instant run, then resume;
//! - events at `SimTime(u64::MAX)`, run by `run_to_exhaustion`;
//! - inline and boxed closure representations;
//! - every event's captures dropped exactly once, run or not.
//!
//! `LOCKSS_ORACLE_SEEDS=<n>` sets the number of seeds (the nightly CI job
//! runs 20× the default).

use std::cell::RefCell;
use std::rc::Rc;

use lockss_sim::{Duration, Engine, SimRng, SimTime};

const DEFAULT_SEEDS: u64 = 400;

/// Entries per chunk of the engine's wheel (`CHUNK` in `engine.rs`); a
/// large burst holds more than two chunks' worth.
const CHUNK: u32 = 32;

/// One observation both engines must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Entry {
    /// Event `id` executed with the clock at `at`.
    Ran { id: u32, at: SimTime },
    /// A run loop returned (`until` is `None` for `run_to_exhaustion`).
    Slice {
        until: Option<SimTime>,
        ran: u64,
        now: SimTime,
        queued: usize,
        executed: u64,
        stopped: bool,
    },
}

/// Counts its own drop, per event id.
struct Token {
    id: u32,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Drop for Token {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id as usize] += 1;
    }
}

/// One scheduled event as plain data; each engine wraps it in its own
/// closure type.
struct Ev {
    token: Token,
    /// Calls `request_stop` when it runs.
    stop: bool,
    /// Scheduled with a 64-byte capture beside it (the boxed fallback).
    fat: bool,
}

struct World {
    rng: SimRng,
    log: Vec<Entry>,
    /// Events that may still be created; bounds the run.
    budget: u32,
    drops: Rc<RefCell<Vec<u32>>>,
    /// Instants a large burst was scheduled for at least one wheel digit
    /// (64 ms) ahead of the clock, so that its slot cascades.
    far_bursts: Vec<SimTime>,
}

impl World {
    fn spawn(&mut self) -> Option<Ev> {
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        let id = {
            let mut drops = self.drops.borrow_mut();
            drops.push(0);
            (drops.len() - 1) as u32
        };
        Some(Ev {
            token: Token {
                id,
                drops: Rc::clone(&self.drops),
            },
            stop: self.rng.below(16) == 0,
            fat: self.rng.below(3) == 0,
        })
    }

    /// An instant to schedule at, seen from `now`.
    fn pick_time(&mut self, now: SimTime) -> SimTime {
        let rng = &mut self.rng;
        let t = now.0;
        SimTime(match rng.below(12) {
            // The draining instant itself.
            0 | 1 => t,
            // The past: the engine clamps it to now.
            2 => t.saturating_sub(rng.u64() % 1_000),
            // One below, at, or one above a multiple of 64^n.
            3..=5 => {
                let shift = 6 * (1 + rng.below(7)) as u32;
                let multiple = (t >> shift).saturating_add(1 + rng.u64() % 3);
                let boundary = multiple.saturating_mul(1 << shift);
                (boundary - 1).saturating_add(rng.u64() % 3)
            }
            // The end of time.
            6 if rng.below(8) == 0 => u64::MAX,
            // Log-uniform delay in [1 ms, 10 years].
            _ => {
                let bits = rng.below(39) as u32;
                let delay = (1u64 << bits) | (rng.u64() & ((1u64 << bits) - 1));
                t.saturating_add(delay.min(10 * Duration::YEAR.0))
            }
        })
    }
}

/// The operations the program needs, implemented by both engines.
trait Sim {
    fn now(&self) -> SimTime;
    fn queued(&self) -> usize;
    fn executed(&self) -> u64;
    fn stop_requested(&self) -> bool;
    fn request_stop(&mut self);
    fn schedule(&mut self, at: SimTime, ev: Ev);
    fn run_until(&mut self, w: &mut World, until: SimTime) -> u64;
    fn run_to_exhaustion(&mut self, w: &mut World) -> u64;
}

/// The body of every event: log, maybe stop, spawn children.
fn fire<S: Sim>(ev: Ev, w: &mut World, sim: &mut S) {
    let now = sim.now();
    w.log.push(Entry::Ran {
        id: ev.token.id,
        at: now,
    });
    if ev.stop {
        sim.request_stop();
    }
    match w.rng.below(8) {
        0..=2 => {}
        // A burst at one instant; one in eight spans several chunks, and
        // of those one in two spreads over three adjacent instants.
        7 => {
            let at = w.pick_time(now);
            let (n, spread) = match w.rng.below(16) {
                0 => (2 * CHUNK + 1 + w.rng.below(64) as u32, 1),
                1 => (2 * CHUNK + 1 + w.rng.below(64) as u32, 3),
                _ => (5, 1),
            };
            if n > 5 && at.0 >= now.0.saturating_add(64) {
                w.far_bursts.push(at);
            }
            for _ in 0..n {
                let t = SimTime(at.0.saturating_add(w.rng.below(spread) as u64));
                if let Some(child) = w.spawn() {
                    sim.schedule(t, child);
                }
            }
        }
        n => {
            for _ in 0..(n as u32 / 3) {
                let at = w.pick_time(now);
                if let Some(child) = w.spawn() {
                    sim.schedule(at, child);
                }
            }
        }
    }
}

impl Sim for Engine<World> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn queued(&self) -> usize {
        Engine::queued(self)
    }
    fn executed(&self) -> u64 {
        Engine::executed(self)
    }
    fn stop_requested(&self) -> bool {
        Engine::stop_requested(self)
    }
    fn request_stop(&mut self) {
        Engine::request_stop(self)
    }
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        if ev.fat {
            let pad = [u64::from(ev.token.id); 8];
            self.schedule_at(at, move |w: &mut World, e: &mut Engine<World>| {
                assert_eq!(pad, [u64::from(ev.token.id); 8], "boxed capture intact");
                fire(ev, w, e)
            });
        } else {
            self.schedule_at(at, move |w: &mut World, e: &mut Engine<World>| {
                fire(ev, w, e)
            });
        }
    }
    fn run_until(&mut self, w: &mut World, until: SimTime) -> u64 {
        Engine::run_until(self, w, until)
    }
    fn run_to_exhaustion(&mut self, w: &mut World) -> u64 {
        Engine::run_to_exhaustion(self, w)
    }
}

type RefFn = Box<dyn FnOnce(&mut World, &mut RefEngine)>;

/// The reference: a `Vec` sorted by descending `(time, seq)`, so the next
/// event is the last element. Same contract as [`Engine`], no shared code.
#[derive(Default)]
struct RefEngine {
    now: SimTime,
    seq: u64,
    executed: u64,
    stop: bool,
    queue: Vec<(SimTime, u64, RefFn)>,
}

impl RefEngine {
    /// Pops and runs the next event if it is due before `until`.
    fn step(&mut self, w: &mut World, until: Option<SimTime>) -> bool {
        match self.queue.last() {
            Some(&(at, _, _)) if until.is_none_or(|u| at < u) => {
                let (at, _, f) = self.queue.pop().expect("peeked");
                assert!(at >= self.now, "reference clock is monotone");
                self.now = at;
                self.executed += 1;
                f(w, self);
                true
            }
            _ => false,
        }
    }
}

impl Sim for RefEngine {
    fn now(&self) -> SimTime {
        self.now
    }
    fn queued(&self) -> usize {
        self.queue.len()
    }
    fn executed(&self) -> u64 {
        self.executed
    }
    fn stop_requested(&self) -> bool {
        self.stop
    }
    fn request_stop(&mut self) {
        self.stop = true;
    }
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        let pos = self.queue.partition_point(|&(t, s, _)| (t, s) > key);
        let f: RefFn = Box::new(move |w, e| fire(ev, w, e));
        self.queue.insert(pos, (key.0, key.1, f));
    }
    fn run_until(&mut self, w: &mut World, until: SimTime) -> u64 {
        self.stop = false;
        let before = self.executed;
        while self.step(w, Some(until)) {
            if self.stop {
                return self.executed - before;
            }
        }
        self.now = self.now.max(until);
        self.executed - before
    }
    fn run_to_exhaustion(&mut self, w: &mut World) -> u64 {
        self.stop = false;
        let before = self.executed;
        while self.step(w, None) && !self.stop {}
        self.executed - before
    }
}

fn log_slice<S: Sim>(sim: &S, w: &mut World, until: Option<SimTime>, ran: u64) {
    w.log.push(Entry::Slice {
        until,
        ran,
        now: sim.now(),
        queued: sim.queued(),
        executed: sim.executed(),
        stopped: sim.stop_requested(),
    });
}

/// Schedules a handful of events from outside a run loop.
fn schedule_from_outside<S: Sim>(sim: &mut S, w: &mut World, max: usize) {
    for _ in 0..w.rng.below(max + 1) {
        let at = w.pick_time(sim.now());
        if let Some(ev) = w.spawn() {
            sim.schedule(at, ev);
        }
    }
}

/// What [`drive`] hands back: the log, the per-event drop counts after the
/// engine is gone, whether the queue was run dry, and the far bursts.
type Drive = (Vec<Entry>, Vec<u32>, bool, Vec<SimTime>);

/// Runs the program for `seed` on `sim`.
fn drive<S: Sim>(mut sim: S, seed: u64) -> Drive {
    let drops = Rc::new(RefCell::new(Vec::new()));
    let mut w = World {
        rng: SimRng::seed_from_u64(seed),
        log: Vec::new(),
        budget: 200 + 600 * (seed % 4) as u32,
        drops: Rc::clone(&drops),
        far_bursts: Vec::new(),
    };
    schedule_from_outside(&mut sim, &mut w, 80);
    for _ in 0..2 + w.rng.below(12) {
        let now = sim.now();
        let until = match w.rng.below(6) {
            0 => now,
            1 => SimTime(now.0.saturating_sub(5)),
            _ => w.pick_time(now),
        };
        // An event exactly at the cut must wait for the next slice.
        if w.rng.below(2) == 0 {
            if let Some(ev) = w.spawn() {
                sim.schedule(until, ev);
            }
        }
        let ran = sim.run_until(&mut w, until);
        log_slice(&sim, &mut w, Some(until), ran);
        // Not stopped: now == until, so some of these land exactly on it.
        // Stopped mid-instant: they queue behind what is left of it.
        schedule_from_outside(&mut sim, &mut w, 12);
    }
    let exhaust = w.rng.below(3) != 0;
    if exhaust {
        for _ in 0..3 {
            if let Some(ev) = w.spawn() {
                sim.schedule(SimTime(u64::MAX), ev);
            }
        }
        loop {
            let ran = sim.run_to_exhaustion(&mut w);
            log_slice(&sim, &mut w, None, ran);
            if !sim.stop_requested() {
                break;
            }
        }
        assert_eq!(sim.queued(), 0, "seed {seed}: exhausted");
    }
    drop(sim);
    let World {
        log, far_bursts, ..
    } = w;
    let drops = drops.borrow().clone();
    (log, drops, exhaust, far_bursts)
}

fn seeds() -> u64 {
    match std::env::var("LOCKSS_ORACLE_SEEDS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("LOCKSS_ORACLE_SEEDS={v:?} is not a seed count")),
        Err(_) => DEFAULT_SEEDS,
    }
}

#[test]
fn engine_matches_the_sorted_vec_reference() {
    let (mut events, mut stops, mut unrun) = (0usize, 0usize, 0usize);
    let (mut widest, mut widest_far) = (0usize, 0usize);
    for seed in 0..seeds() {
        let (fast, fast_drops, exhausted, far) = drive(Engine::<World>::new(), seed);
        let (slow, slow_drops, _, _) = drive(RefEngine::default(), seed);
        if let Some(i) = (0..fast.len().max(slow.len())).find(|&i| fast.get(i) != slow.get(i)) {
            panic!(
                "seed {seed}: logs diverge at entry {i}\n  engine:    {:?}\n  reference: {:?}\n  \
                 before it: {:?}",
                fast.get(i),
                slow.get(i),
                &fast[i.saturating_sub(4)..i],
            );
        }
        assert_eq!(fast_drops, slow_drops, "seed {seed}: drop counts");
        assert!(
            fast_drops.iter().all(|&n| n == 1),
            "seed {seed}: every event's captures are dropped exactly once"
        );
        let ran = fast
            .iter()
            .filter(|e| matches!(e, Entry::Ran { .. }))
            .count();
        if exhausted {
            assert_eq!(ran, fast_drops.len(), "seed {seed}: exhaustion runs all");
        }
        // Events run per instant, in log order (times never go back).
        let mut instants: Vec<(SimTime, usize)> = Vec::new();
        for e in &fast {
            if let Entry::Ran { at, .. } = *e {
                match instants.last_mut() {
                    Some((t, n)) if *t == at => *n += 1,
                    _ => instants.push((at, 1)),
                }
            }
        }
        for &(at, n) in &instants {
            widest = widest.max(n);
            if far.contains(&at) {
                widest_far = widest_far.max(n);
            }
        }
        events += ran;
        unrun += fast_drops.len() - ran;
        stops += fast
            .iter()
            .filter(|e| matches!(e, Entry::Slice { stopped: true, .. }))
            .count();
    }
    // The sweep must actually reach what it claims to cover.
    assert!(events > 100 * seeds() as usize, "only {events} events ran");
    assert!(stops > 0, "no run loop was ever stopped mid-run");
    assert!(unrun > 0, "no event was ever dropped unrun");
    let chunks = 2 * CHUNK as usize;
    assert!(widest > chunks, "no instant ran more than {chunks} events");
    assert!(
        widest_far > chunks,
        "no cascaded instant ran more than {chunks} events"
    );
}
