//! The discrete-event engine.
//!
//! Events are closures over a caller-supplied world type `W`. Popping an
//! event hands `&mut W` and `&mut Engine<W>` to the closure, which may
//! schedule further events. Ties in time are broken by insertion order, so a
//! run is a pure function of (initial world, seed).
//!
//! # Storage
//!
//! Closures live in a slab-backed arena (`EventArena`) whose slots are
//! recycled through a free list as events execute. Closures at most
//! `INLINE_BYTES` (32) bytes — the protocol's common captures — are stored
//! *inline* in their slot; oversized ones transparently fall back to a
//! boxed representation. The queue proper holds only 16-byte
//! `(time, arena slot)` keys.
//!
//! # The queue: a monotone hierarchical timing wheel
//!
//! The queue (`Wheel`) reads a time in milliseconds as eleven base-64
//! digits (6 bits each; 11 × 6 ≥ 64, so every `u64` fits) and keeps one
//! row of 64 slots per digit position — *level* 0 is the least significant
//! digit — with one `u64` occupancy mask per level. It remembers `last`,
//! the time of the last key it released.
//!
//! - **Push.** A key for time `at ≥ last` goes to level `l` = the highest
//!   digit position in which `at` differs from `last` (0 if none), slot =
//!   that digit of `at`: a `leading_zeros`, a `Vec::push` and a mask `|=`.
//!   So level 0 holds keys that share all higher digits with `last` — each
//!   of its slots is *one instant* — and an occupied slot of level `l`
//!   always has a digit above `last`'s digit `l`.
//! - **Pop.** The level-0 slot of `last` is consumed through a read cursor.
//!   When it is drained, the next set bit of the level-0 mask is the next
//!   instant. When level 0 is empty, the first set bit of the lowest
//!   non-empty level names the slot holding the overall minimum: scan it
//!   for its minimum time, make that `last`, and redistribute the slot's
//!   keys — each now agrees with `last` in digit `l` and above, so each
//!   lands on a strictly lower level. A key moves at most once per level
//!   (a slot holding a single key, the common case when events are seconds
//!   apart, hands it out directly).
//!
//! **Why the order is exactly `(time, seq)` although no `seq` is stored.**
//! Every slot is, at all times, in schedule order. A push appends, and every
//! key already in the slot was scheduled earlier. A cascade only fills
//! slots of lower levels, all of which are empty at that moment (it runs
//! only when everything below the cascading level has drained), and copies
//! the source slot front to back, so relative order survives the move. A
//! level-0 slot holds a single instant, so its FIFO order *is* `seq` order
//! within that instant; an event scheduled for the instant being drained
//! appends behind the cursor and runs in the same drain, after everything
//! queued before it. Times are released in increasing order because the
//! slot chosen at each step holds the minimum. The resulting execution
//! order is bitwise identical to that of the binary heap of `(time, seq)`
//! keys this replaced, which is what keeps recorded traces replayable
//! across the change (`tests/engine_oracle.rs` checks it against a sorted
//! `Vec`).
//!
//! **Invariant: `last ≤ now`.** Placement is relative to `last`, and
//! `schedule_at` clamps to the clock, so a key is always pushed at or after
//! `last` provided `last` never runs ahead of the clock. `pop` therefore
//! takes the run loop's limit and, when the next candidate instant is past
//! it, returns *without* advancing `last` or cascading: between two
//! `run_until` slices the caller may schedule at any `at ≥ until`.

use std::mem::{self, MaybeUninit};

use lockss_obs::{Counter, Gauge, RegistryBuilder};

use crate::time::{Duration, SimTime};

/// Pre-registered metric handles for one engine (see `lockss-obs`).
///
/// The engine publishes into these when a run loop *exits* — never per
/// event — so an instrumented engine pays one null-check per `run_until`
/// call, and an un-instrumented one pays nothing in the hot loop.
/// Metrics are strictly out-of-band: they never influence event order.
#[derive(Clone)]
pub struct EngineObs {
    /// Events executed, accumulated across run loops (and, when the
    /// registry is shared, across every engine in a sweep).
    pub events_executed: Counter,
    /// Events still queued when the last run loop exited.
    pub events_queued: Gauge,
    /// Live arena slots when the last run loop exited.
    pub arena_live: Gauge,
    /// High-water mark of arena slots across all observed engines.
    pub arena_total: Gauge,
}

impl EngineObs {
    /// Registers the engine's metrics on `b` and returns the handles.
    pub fn register(b: &mut RegistryBuilder) -> EngineObs {
        EngineObs {
            events_executed: b.counter(
                "engine_events_executed_total",
                "Events executed by the discrete-event engine",
            ),
            events_queued: b.gauge(
                "engine_events_queued",
                "Events queued when the last run loop exited",
            ),
            arena_live: b.gauge(
                "engine_arena_live",
                "Live event-arena slots when the last run loop exited",
            ),
            arena_total: b.gauge("engine_arena_total", "High-water mark of event-arena slots"),
        }
    }
}

/// A boxed event body: runs against the world and may schedule more events.
///
/// Retained as the engine's public name for an owned event closure;
/// internally events of ordinary size are stored inline in the arena and
/// never boxed.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// Inline storage per arena slot. Sized for the protocol layer's common
/// captures — a few ids and indices — while keeping a slot at one cache
/// line, so scheduling moves at most 48 bytes. Rare fat closures (message
/// deliveries capturing a whole `Message`) take the boxed fallback, which
/// is exactly what the previous all-boxed representation paid for *every*
/// event.
const INLINE_BYTES: usize = 32;

/// Maximum supported alignment for inline closures; larger-aligned ones are
/// boxed.
const INLINE_ALIGN: usize = 16;

/// Raw closure storage: an aligned byte array written and read via typed
/// raw pointers.
#[repr(C, align(16))]
struct Payload([MaybeUninit<u8>; INLINE_BYTES]);

type CallFn<W> = unsafe fn(*mut u8, &mut W, &mut Engine<W>);
type DropFn = unsafe fn(*mut u8);

/// Reads an `F` out of the payload and runs it.
///
/// # Safety
///
/// `p` must point to a valid, initialized `F` that is never read again.
unsafe fn call_inline<W, F: FnOnce(&mut W, &mut Engine<W>)>(
    p: *mut u8,
    w: &mut W,
    eng: &mut Engine<W>,
) {
    let f = unsafe { p.cast::<F>().read() };
    f(w, eng);
}

/// Reads a `Box<F>` out of the payload and runs it.
///
/// # Safety
///
/// `p` must point to a valid, initialized `Box<F>` that is never read again.
unsafe fn call_boxed<W, F: FnOnce(&mut W, &mut Engine<W>)>(
    p: *mut u8,
    w: &mut W,
    eng: &mut Engine<W>,
) {
    let b = unsafe { p.cast::<Box<F>>().read() };
    b(w, eng);
}

/// Drops the `T` stored in the payload in place.
///
/// # Safety
///
/// `p` must point to a valid, initialized `T` that is never used again.
unsafe fn drop_payload<T>(p: *mut u8) {
    unsafe { std::ptr::drop_in_place(p.cast::<T>()) }
}

/// One type-erased event closure, stored inline when it fits.
struct EventCell<W> {
    call: CallFn<W>,
    drop_fn: DropFn,
    payload: Payload,
    /// The erased closure is neither `Send` nor `Sync` in general; without
    /// this marker the raw-bytes representation would be auto-`Send`/`Sync`
    /// and safe code could move an engine holding (say) `Rc`-capturing
    /// events across threads. Mirrors the auto-traits of the boxed
    /// representation this replaced.
    _not_send: std::marker::PhantomData<EventFn<W>>,
}

impl<W> EventCell<W> {
    fn new<F>(f: F) -> EventCell<W>
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        let mut payload = Payload([MaybeUninit::uninit(); INLINE_BYTES]);
        if mem::size_of::<F>() <= INLINE_BYTES && mem::align_of::<F>() <= INLINE_ALIGN {
            // SAFETY: the payload is large and aligned enough for `F`; the
            // value is owned by the cell from here on (run exactly once by
            // `invoke` or dropped exactly once by `Drop`).
            unsafe { payload.0.as_mut_ptr().cast::<F>().write(f) };
            EventCell {
                call: call_inline::<W, F>,
                drop_fn: drop_payload::<F>,
                payload,
                _not_send: std::marker::PhantomData,
            }
        } else {
            let boxed = Box::new(f);
            // SAFETY: a `Box` pointer always fits the payload.
            unsafe { payload.0.as_mut_ptr().cast::<Box<F>>().write(boxed) };
            EventCell {
                call: call_boxed::<W, F>,
                drop_fn: drop_payload::<Box<F>>,
                payload,
                _not_send: std::marker::PhantomData,
            }
        }
    }

    /// Runs the stored closure, consuming the cell.
    fn invoke(self, world: &mut W, eng: &mut Engine<W>) {
        // The payload is moved out by `call`; suppress the cell's own drop
        // so it is not dropped a second time. If the closure panics it is
        // already on the callee's stack and unwinding drops it there.
        let mut this = mem::ManuallyDrop::new(self);
        // SAFETY: `call` matches the payload's contents by construction,
        // and the ManuallyDrop guarantees this is the only consumption.
        unsafe { (this.call)(this.payload.0.as_mut_ptr().cast::<u8>(), world, eng) }
    }
}

impl<W> Drop for EventCell<W> {
    fn drop(&mut self) {
        // SAFETY: a cell that was not `invoke`d still owns its payload;
        // `drop_fn` matches the stored type by construction.
        unsafe { (self.drop_fn)(self.payload.0.as_mut_ptr().cast::<u8>()) }
    }
}

/// Slab of event cells with free-list slot reuse.
struct EventArena<W> {
    slots: Vec<Option<EventCell<W>>>,
    free: Vec<u32>,
}

impl<W> EventArena<W> {
    fn with_capacity(n: usize) -> EventArena<W> {
        EventArena {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, cell: EventCell<W>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(cell);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("under 4G outstanding events");
                self.slots.push(Some(cell));
                i
            }
        }
    }

    fn take(&mut self, slot: u32) -> EventCell<W> {
        let cell = self.slots[slot as usize].take().expect("live event slot");
        self.free.push(slot);
        cell
    }
}

/// Bits per wheel digit.
const DIGIT_BITS: u32 = 6;
/// Slots per level: one per digit value.
const SLOTS: usize = 1 << DIGIT_BITS;
/// Digits in a `u64` time (the top one is partial).
const LEVELS: usize = (u64::BITS as usize).div_ceil(DIGIT_BITS as usize);
/// A drained slot keeps its buffer only up to this many keys (1 KiB);
/// larger ones are released, so a slot that once held a burst does not
/// pin its high-water capacity for the rest of the run.
const KEEP_KEYS: usize = 64;

/// Queue entry for one scheduled event; the closure lives in the arena.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    slot: u32,
}

/// Empties a drained slot buffer, releasing it if it grew large.
fn recycle(keys: &mut Vec<Key>) {
    if keys.capacity() > KEEP_KEYS {
        *keys = Vec::new();
    } else {
        keys.clear();
    }
}

/// The event queue: a monotone hierarchical timing wheel releasing keys
/// in exact `(time, schedule order)` order. See the module docs for the
/// layout and the ordering argument.
struct Wheel {
    /// Time of the last key released; placement is relative to it. Never
    /// ahead of the engine clock.
    last: u64,
    len: usize,
    /// Read position in the level-0 slot of `last`.
    cursor: usize,
    /// Per level, bit `d` is set iff slot `d` is non-empty.
    masks: [u64; LEVELS],
    /// `LEVELS × SLOTS` buffers, level-major; each in schedule order.
    slots: Box<[Vec<Key>]>,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            last: 0,
            len: 0,
            cursor: 0,
            masks: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// Files `key` under the highest digit in which its time differs from
    /// `last`. Requires `key.at >= self.last`.
    #[inline]
    fn place(&mut self, key: Key) {
        debug_assert!(key.at >= self.last, "wheel time must be monotone");
        let level =
            ((u64::BITS - 1 - ((key.at ^ self.last) | 1).leading_zeros()) / DIGIT_BITS) as usize;
        let digit = (key.at >> (level as u32 * DIGIT_BITS)) as usize & (SLOTS - 1);
        self.slots[level * SLOTS + digit].push(key);
        self.masks[level] |= 1 << digit;
    }

    #[inline]
    fn push(&mut self, key: Key) {
        self.place(key);
        self.len += 1;
    }

    /// Releases the next key in `(time, schedule order)` if its time is at
    /// most `limit`. Otherwise returns `None` and leaves `last` where it
    /// is, so the caller may still push any time after `limit`.
    fn pop(&mut self, limit: u64) -> Option<Key> {
        loop {
            let cur = self.last as usize & (SLOTS - 1);
            if let Some(&key) = self.slots[cur].get(self.cursor) {
                // Only when a run loop is asked to stop in the past.
                if self.last > limit {
                    return None;
                }
                self.cursor += 1;
                self.len -= 1;
                return Some(key);
            }
            if self.cursor > 0 {
                recycle(&mut self.slots[cur]);
                self.cursor = 0;
                self.masks[0] &= !(1 << cur);
            }
            if self.masks[0] != 0 {
                // Occupied level-0 slots all lie after `cur`.
                let digit = u64::from(self.masks[0].trailing_zeros());
                let at = self.last & !(SLOTS as u64 - 1) | digit;
                if at > limit {
                    return None;
                }
                self.last = at;
                continue;
            }
            // The first occupied slot of the lowest occupied level holds
            // the minimum: every other key has a larger digit there, or
            // differs from `last` in a higher one.
            let level = (1..LEVELS).find(|&l| self.masks[l] != 0)?;
            let digit = self.masks[level].trailing_zeros() as usize;
            let idx = level * SLOTS + digit;
            let min = self.slots[idx]
                .iter()
                .map(|k| k.at)
                .min()
                .expect("a set mask bit marks a non-empty slot");
            if min > limit {
                return None;
            }
            // Cascade: relative to the new `last` every key of the slot
            // belongs on a lower level, all of which are empty.
            self.last = min;
            self.masks[level] &= !(1 << digit);
            // A lone key (most cascades, on a queue sparse in time) is
            // released directly rather than via level 0.
            if let [key] = self.slots[idx][..] {
                self.slots[idx].clear();
                self.len -= 1;
                return Some(key);
            }
            let mut keys = mem::take(&mut self.slots[idx]);
            for &key in &keys {
                self.place(key);
            }
            recycle(&mut keys);
            self.slots[idx] = keys;
        }
    }
}

/// A single-threaded discrete-event engine.
///
/// # Examples
///
/// ```
/// use lockss_sim::{Duration, Engine, SimTime};
///
/// let mut engine: Engine<Vec<u64>> = Engine::new();
/// engine.schedule_in(Duration::SECOND, |log: &mut Vec<u64>, eng| {
///     log.push(eng.now().as_millis());
/// });
/// let mut log = Vec::new();
/// engine.run_until(&mut log, SimTime::ZERO + Duration::MINUTE);
/// assert_eq!(log, vec![1000]);
/// ```
pub struct Engine<W> {
    now: SimTime,
    executed: u64,
    queue: Wheel,
    arena: EventArena<W>,
    /// Hard stop; events scheduled past this instant are silently dropped at
    /// pop time (they stay queued but never run).
    horizon: Option<SimTime>,
    /// Set by [`Engine::request_stop`] from inside an event; cleared when a
    /// run loop is entered.
    stop_requested: bool,
    /// Metric handles published when a run loop exits; `None` costs one
    /// null-check per run loop, nothing per event.
    obs: Option<Box<EngineObs>>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an engine whose event arena is pre-sized for roughly
    /// `events` simultaneously outstanding events.
    ///
    /// Purely a performance knob for large-population worlds: a 10k+-peer
    /// world schedules tens of thousands of first-poll and damage events
    /// before the run starts, and pre-sizing avoids the doubling cascade on
    /// the slot slab. The queue itself is not pre-sized: its keys spread
    /// over the wheel's slots by time, which no count predicts. Behaviour
    /// is identical to [`Engine::new`].
    pub fn with_capacity(events: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            executed: 0,
            queue: Wheel::new(),
            arena: EventArena::with_capacity(events),
            horizon: None,
            stop_requested: false,
            obs: None,
        }
    }

    /// Installs metric handles; the engine publishes into them whenever
    /// a run loop exits.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = Some(Box::new(obs));
    }

    /// Publishes end-of-loop engine state into the installed handles.
    fn publish_obs(&self, ran: u64) {
        if let Some(o) = &self.obs {
            o.events_executed.add(ran);
            o.events_queued.set(self.queue.len as u64);
            let (live, total) = self.arena_occupancy();
            o.arena_live.set(live as u64);
            o.arena_total.raise(total as u64);
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Event-arena occupancy: `(live slots, total slots)`. The total is the
    /// high-water mark of simultaneously outstanding events (slots are
    /// recycled, never shrunk), which is what a memory report wants.
    pub fn arena_occupancy(&self) -> (usize, usize) {
        let total = self.arena.slots.len();
        (total - self.arena.free.len(), total)
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len
    }

    /// Bytes of buffer the queue's slots currently hold. Within a small
    /// factor of 16 × [`Engine::queued`] in a healthy run: drained slots
    /// release large buffers, so a burst does not stay allocated.
    pub fn queue_buffer_bytes(&self) -> usize {
        let keys: usize = self.queue.slots.iter().map(Vec::capacity).sum();
        keys * mem::size_of::<Key>()
    }

    /// The stop horizon, if one was set by `run_until`.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Asks the current run loop to stop after the executing event returns.
    ///
    /// Only meaningful from inside an event handler: the flag is cleared
    /// when `run_until` / `run_to_exhaustion` is entered, so a request made
    /// between runs has no effect. Observers that verify a run as it
    /// executes (e.g. a trace-replay sink) use this to abort at the first
    /// divergence instead of simulating months past it; queued events stay
    /// queued, and the clock stays at the stopping event's instant.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// True if [`Engine::request_stop`] fired during the last run loop.
    pub fn stop_requested(&self) -> bool {
        self.stop_requested
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs at the
    /// current instant, after already-queued events for this instant.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        let at = at.max(self.now).0;
        let slot = self.arena.insert(EventCell::new(f));
        self.queue.push(Key { at, slot });
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: Duration, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Runs events in order until the queue empties or simulated time
    /// reaches `until`. Returns the number of events executed by this call.
    ///
    /// Events timestamped exactly at `until` do *not* run; the engine's
    /// clock finishes at `until`.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> u64 {
        self.horizon = Some(until);
        let ran = self.run_through(world, until.0.checked_sub(1));
        if !self.stop_requested {
            self.now = self.now.max(until);
        }
        ran
    }

    /// Runs all queued events to exhaustion (use with care: self-rescheduling
    /// periodic events make this diverge; prefer `run_until`).
    pub fn run_to_exhaustion(&mut self, world: &mut W) -> u64 {
        self.run_through(world, Some(u64::MAX))
    }

    /// The run loop: executes events timestamped up to and including
    /// `limit` (`None`: nothing is due) until the queue has no more of
    /// them or an event requests a stop.
    fn run_through(&mut self, world: &mut W, limit: Option<u64>) -> u64 {
        self.stop_requested = false;
        let before = self.executed;
        while let Some(key) = limit.and_then(|limit| self.queue.pop(limit)) {
            debug_assert!(key.at >= self.now.0, "time must be monotone");
            self.now = SimTime(key.at);
            self.executed += 1;
            let cell = self.arena.take(key.slot);
            cell.invoke(world, self);
            if self.stop_requested {
                break;
            }
        }
        let ran = self.executed - before;
        self.publish_obs(ran);
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a: Engine<Vec<u32>> = Engine::new();
        let mut b: Engine<Vec<u32>> = Engine::with_capacity(1024);
        for eng in [&mut a, &mut b] {
            for i in 0..10 {
                eng.schedule_at(SimTime(10 - i as u64), move |w: &mut Vec<u32>, _| w.push(i));
            }
        }
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.run_to_exhaustion(&mut wa);
        b.run_to_exhaustion(&mut wb);
        assert_eq!(wa, wb);
        let (live, total) = b.arena_occupancy();
        assert_eq!(live, 0, "all events executed");
        assert_eq!(total, 10, "high-water mark of outstanding events");
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime(30), |w: &mut Vec<u32>, _| w.push(3));
        eng.schedule_at(SimTime(10), |w: &mut Vec<u32>, _| w.push(1));
        eng.schedule_at(SimTime(20), |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(eng.executed(), 3);
        assert_eq!(eng.now(), SimTime(100));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        let mut w = Vec::new();
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_at(SimTime(1), |_, e| {
            e.schedule_in(Duration(5), |w: &mut Vec<u64>, e2| {
                w.push(e2.now().as_millis());
            });
        });
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![6]);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(10), |w: &mut u32, _| *w += 1);
        eng.schedule_at(SimTime(11), |w: &mut u32, _| *w += 1);
        let mut w = 0;
        eng.run_until(&mut w, SimTime(11));
        assert_eq!(w, 1);
        assert_eq!(eng.now(), SimTime(11));
        // Resuming picks up the remaining event.
        eng.run_until(&mut w, SimTime(12));
        assert_eq!(w, 2);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_at(SimTime(50), |_, e| {
            e.schedule_at(SimTime(10), |w: &mut Vec<&'static str>, _| w.push("late"));
            e.schedule_at(SimTime(50), |w: &mut Vec<&'static str>, _| w.push("same"));
        });
        let mut w = Vec::new();
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, vec!["late", "same"]);
        assert_eq!(eng.now(), SimTime(50));
    }

    #[test]
    fn request_stop_halts_the_run_loop() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime(10), |w: &mut Vec<u32>, e| {
            w.push(1);
            e.request_stop();
        });
        eng.schedule_at(SimTime(20), |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        let ran = eng.run_until(&mut w, SimTime(100));
        assert_eq!(ran, 1);
        assert_eq!(w, vec![1]);
        assert!(eng.stop_requested());
        assert_eq!(eng.now(), SimTime(10), "clock stays at the stop event");
        assert_eq!(eng.queued(), 1, "later events stay queued");
        // A fresh run clears the flag and resumes from the queue.
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![1, 2]);
        assert!(!eng.stop_requested());
    }

    #[test]
    fn periodic_self_rescheduling() {
        struct W {
            ticks: u32,
        }
        fn tick(w: &mut W, e: &mut Engine<W>) {
            w.ticks += 1;
            e.schedule_in(Duration(10), tick);
        }
        let mut eng: Engine<W> = Engine::new();
        eng.schedule_at(SimTime(0), tick);
        let mut w = W { ticks: 0 };
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w.ticks, 10); // t = 0, 10, ..., 90
    }

    /// Same-instant events keep schedule order through every cascade: the
    /// instant sits six digits away from the clock, its events are
    /// scheduled interleaved with events for nearby instants, and an event
    /// scheduled for the instant while it drains runs last.
    #[test]
    fn ties_survive_cascades_across_levels() {
        let far = SimTime(64u64.pow(6) + 64u64.pow(3) + 5);
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..100u32 {
            eng.schedule_at(far, move |w: &mut Vec<u32>, e| {
                w.push(i);
                if i == 0 {
                    e.schedule_in(Duration::ZERO, |w: &mut Vec<u32>, _| w.push(1_000));
                }
            });
            eng.schedule_at(SimTime(far.0 - 1 - u64::from(i)), |_, _| {});
            eng.schedule_at(SimTime(far.0 + 1 + u64::from(i)), |_, _| {});
        }
        let mut w = Vec::new();
        assert_eq!(eng.run_to_exhaustion(&mut w), 301);
        let want: Vec<u32> = (0..100).chain([1_000]).collect();
        assert_eq!(w, want);
    }

    /// A `run_until` that stops short of the next queued event must leave
    /// the queue able to take any time at or after `until`, however far
    /// that event is: the wheel may not run ahead of the clock.
    #[test]
    fn scheduling_between_slices_orders_against_far_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let log = |w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>| w.push(e.now().0);
        eng.schedule_at(SimTime(1 << 40), log);
        let mut w = Vec::new();
        for until in [10u64, 64, 65, 4_096, 1 << 30] {
            eng.run_until(&mut w, SimTime(until));
            assert_eq!(eng.now(), SimTime(until));
            eng.schedule_at(SimTime(until), log);
            eng.schedule_at(SimTime(until + 1), log);
        }
        eng.run_until(&mut w, SimTime(u64::MAX));
        let want = [10, 11, 64, 65, 65, 66, 4_096, 4_097, 1 << 30, (1 << 30) + 1];
        assert_eq!(w[..10], want);
        assert_eq!(w[10], 1 << 40);
    }

    /// `run_until` can never run an event at `SimTime(u64::MAX)` (its
    /// bound is exclusive); `run_to_exhaustion` must.
    #[test]
    fn the_last_instant_runs_under_exhaustion() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(u64::MAX), |w: &mut u32, e| {
            *w += 1;
            e.schedule_in(Duration::ZERO, |w: &mut u32, _| *w += 1);
        });
        let mut w = 0;
        assert_eq!(eng.run_until(&mut w, SimTime(u64::MAX)), 0);
        assert_eq!(eng.queued(), 1);
        assert_eq!(eng.run_to_exhaustion(&mut w), 2);
        assert_eq!((w, eng.now(), eng.queued()), (2, SimTime(u64::MAX), 0));
    }

    /// A slot that held a burst releases its buffer once drained; small
    /// buffers are kept for reuse.
    #[test]
    fn drained_burst_slots_release_their_buffers() {
        let mut eng: Engine<u32> = Engine::new();
        for _ in 0..10 * KEEP_KEYS {
            eng.schedule_at(SimTime(7), |w: &mut u32, _| *w += 1);
            eng.schedule_at(SimTime(1 << 20), |w: &mut u32, _| *w += 1);
        }
        eng.schedule_at(SimTime(9), |w: &mut u32, _| *w += 1);
        let mut w = 0;
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w as usize, 20 * KEEP_KEYS + 1);
        let held = eng.queue_buffer_bytes() / mem::size_of::<Key>();
        assert!(held <= 4 * KEEP_KEYS, "{held} keys of capacity retained");
    }

    /// Interleaved scheduling and draining: slots freed by executed events
    /// are reused by later schedules, and the (time, seq) order is pinned
    /// across the reuse — a later-scheduled event in a *recycled* slot
    /// still runs after an earlier-scheduled event at the same instant.
    #[test]
    fn slot_reuse_preserves_tie_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        // Wave 1 occupies slots 0..32, then fully drains (slots freed).
        for i in 0..32 {
            eng.schedule_at(SimTime(1), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.run_until(&mut w, SimTime(2));
        assert_eq!(w, (0..32).collect::<Vec<_>>());
        // Wave 2 reuses the freed slots in reverse free-list order; ties at
        // t=10 must still run in schedule order, and the interleaved
        // earlier-time events must still run first.
        w.clear();
        for i in 0..16 {
            eng.schedule_at(SimTime(10), move |w: &mut Vec<u32>, _| w.push(100 + i));
            eng.schedule_at(SimTime(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.run_until(&mut w, SimTime(20));
        let want: Vec<u32> = (0..16).chain((0..16).map(|i| 100 + i)).collect();
        assert_eq!(w, want);
    }

    /// Events that never execute (beyond the horizon at drop time) still
    /// release their captured state exactly once.
    #[test]
    fn unexecuted_events_drop_their_captures() {
        use std::rc::Rc;
        let witness = Rc::new(());
        let mut eng: Engine<u32> = Engine::new();
        for _ in 0..8 {
            let keep = Rc::clone(&witness);
            eng.schedule_at(SimTime(1_000), move |_, _| {
                let _ = &keep;
            });
        }
        // Large closure: forces the boxed fallback path.
        let keep = Rc::clone(&witness);
        let big = [0u64; 64];
        eng.schedule_at(SimTime(1_000), move |_, _| {
            let _ = (&keep, &big);
        });
        let mut w = 0;
        eng.run_until(&mut w, SimTime(10)); // nothing executes
        assert_eq!(Rc::strong_count(&witness), 10);
        drop(eng);
        assert_eq!(
            Rc::strong_count(&witness),
            1,
            "dropping the engine must drop queued closures"
        );
    }

    /// Installed metric handles are published when a run loop exits and
    /// never perturb event order.
    #[test]
    fn obs_publishes_at_loop_exit() {
        let mut b = RegistryBuilder::new();
        let obs = EngineObs::register(&mut b);
        let handles = obs.clone();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.set_obs(obs);
        for i in 0..5 {
            eng.schedule_at(SimTime(i), move |w: &mut Vec<u32>, _| w.push(i as u32));
        }
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(3));
        assert_eq!(w, vec![0, 1, 2]);
        assert_eq!(handles.events_executed.get(), 3);
        assert_eq!(handles.events_queued.get(), 2);
        assert_eq!(handles.arena_total.get(), 5);
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(handles.events_executed.get(), 5);
        assert_eq!(handles.events_queued.get(), 0);
        assert_eq!(handles.arena_live.get(), 0);
    }

    /// Closures larger than the inline payload run correctly through the
    /// boxed fallback.
    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        let mut eng: Engine<u64> = Engine::new();
        let big = [7u64; 64]; // 512 bytes: over any inline budget
        eng.schedule_at(SimTime(1), move |w: &mut u64, _| {
            *w = big.iter().sum();
        });
        let mut w = 0u64;
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, 7 * 64);
    }
}
