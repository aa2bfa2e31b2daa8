//! The discrete-event engine.
//!
//! Events are closures over a caller-supplied world type `W`. Popping an
//! event hands `&mut W` and `&mut Engine<W>` to the closure, which may
//! schedule further events. Ties in time are broken by insertion order, so a
//! run is a pure function of (initial world, seed).
//!
//! # Storage
//!
//! A pending event is a 40-byte entry: its time and a 32-byte cell, a
//! `consume` function pointer (which runs the closure given the world and
//! the engine, and drops it given nothing) and a 24-byte payload holding the
//! closure, or a box of it if it does not fit (`INLINE_BYTES`). Entries live
//! in the queue itself, in chunks of `CHUNK` (32), each its own allocation:
//! the store grows without copying, a chunk is reached by the pointer that
//! links it, and a drained chunk is freed for reuse at once.
//!
//! # The queue: a monotone hierarchical timing wheel
//!
//! The queue (`Wheel`) reads a time in milliseconds as eleven base-64
//! digits (6 bits each; 11 × 6 ≥ 64, so every `u64` fits) and keeps one
//! row of 64 slots per digit position — *level* 0 is the least significant
//! digit — with one `u64` occupancy mask per level. A slot is a chain of
//! chunks, newest first. The wheel remembers `last`, the time of the last
//! entry it released.
//!
//! - **Push.** An entry for time `at ≥ last` goes to level `l` = the
//!   highest digit position in which `at` differs from `last` (0 if none),
//!   slot = that digit of `at`, appended to the slot's newest chunk. So
//!   level 0 holds entries that share all higher digits with `last` — each
//!   of its slots is *one instant* — and an occupied slot of level `l`
//!   always has a digit above `last`'s digit `l`.
//! - **Pop.** The level-0 slot of `last` is reversed into the *drain*,
//!   oldest chunk first, and read through a cursor; entries pushed for
//!   `last` meanwhile start a new chain, taken when the drain empties. Then
//!   the next set bit of the level-0 mask is the next instant. When level 0
//!   is empty, the first set bit of the lowest non-empty level names the
//!   slot holding the overall minimum: scan it for its minimum time, make
//!   that `last`, and redistribute its entries oldest chunk first; each
//!   lands on a strictly lower level, so moves at most once per level (a
//!   lone entry, common when events are seconds apart, is handed out).
//!
//! **Why the order is exactly `(time, seq)` although no `seq` is stored.**
//! Every slot is, at all times, in schedule order. A push appends, and every
//! entry already in the slot was scheduled earlier. A cascade only fills
//! slots of lower levels, all of which are empty at that moment (it runs
//! only when everything below the cascading level has drained), and copies
//! the source slot front to back, so relative order survives the move. A
//! level-0 slot holds a single instant, so its FIFO order *is* `seq` order
//! within that instant; an event scheduled for the instant being drained
//! appends behind the drain and runs in the same instant, after everything
//! queued before it. Times are released in increasing order because the
//! slot chosen at each step holds the minimum. The resulting execution
//! order is bitwise identical to that of the binary heap of `(time, seq)`
//! keys this replaced, which is what keeps recorded traces replayable
//! across the change (`tests/engine_oracle.rs` checks it against a sorted
//! `Vec`).
//!
//! **Invariant: `last ≤ now`.** Placement is relative to `last`, and
//! `schedule_at` clamps to the clock, so an entry is always pushed at or after
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
    /// The most events any run loop left queued at its exit. A maximum,
    /// not the last loop's count, so a sweep publishes the same value
    /// whatever order its seeds finish in.
    pub events_queued: Gauge,
    /// High-water mark of pending events across all observed engines.
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
                "The most events any run loop left queued at its exit",
            ),
            arena_total: b.gauge("engine_arena_total", "High-water mark of pending events"),
        }
    }
}

/// Inline storage per cell. Sized for the protocol layer's common
/// captures — a few ids and indices — so that a cell, its `consume`
/// pointer included, is 32 bytes and scheduling moves no more. Fat
/// closures (message deliveries capturing a whole `Message`) take the
/// boxed fallback, which is exactly what the previous all-boxed
/// representation paid for *every* event.
const INLINE_BYTES: usize = 24;

/// Maximum supported alignment for inline closures; larger-aligned ones are
/// boxed.
const INLINE_ALIGN: usize = 8;

/// True if a closure of type `F` is stored in its cell rather than boxed.
const fn fits_inline<F>() -> bool {
    mem::size_of::<F>() <= INLINE_BYTES && mem::align_of::<F>() <= INLINE_ALIGN
}

/// Raw closure storage: an aligned byte array written and read via typed
/// raw pointers.
#[repr(C, align(8))]
struct Payload([MaybeUninit<u8>; INLINE_BYTES]);

/// Runs the stored closure against the world and engine it is given, or,
/// given none, drops it. Either way the payload is consumed.
type ConsumeFn<W> = unsafe fn(*mut u8, Option<(&mut W, &mut Engine<W>)>);

/// Reads a `G` out of the payload, then runs it or drops it.
///
/// `G` is the closure itself when it fits inline, or a `Box` of it (a
/// `Box<F>` is itself an `FnOnce`), so one function serves both.
///
/// # Safety
///
/// `p` must point to a valid, initialized `G` that is never read again.
unsafe fn consume<W, G: FnOnce(&mut W, &mut Engine<W>)>(
    p: *mut u8,
    run: Option<(&mut W, &mut Engine<W>)>,
) {
    let g = unsafe { p.cast::<G>().read() };
    if let Some((w, eng)) = run {
        g(w, eng);
    }
}

/// An owned, boxed event closure; a cell has the same auto-traits.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// One type-erased event closure, stored inline when it fits.
struct EventCell<W> {
    consume: ConsumeFn<W>,
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
        if fits_inline::<F>() {
            EventCell::store(f)
        } else {
            EventCell::store(Box::new(f))
        }
    }

    /// Moves `g` into a fresh cell's payload.
    fn store<G>(g: G) -> EventCell<W>
    where
        G: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        assert!(fits_inline::<G>(), "a boxed closure always fits");
        let mut payload = Payload([MaybeUninit::uninit(); INLINE_BYTES]);
        // SAFETY: the payload is large and aligned enough for `G` (checked
        // above); the value is owned by the cell from here on (consumed
        // exactly once, by `invoke` or by `Drop`).
        unsafe { payload.0.as_mut_ptr().cast::<G>().write(g) };
        EventCell {
            consume: consume::<W, G>,
            payload,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Runs the stored closure, consuming the cell.
    fn invoke(self, world: &mut W, eng: &mut Engine<W>) {
        // The payload is moved out by `consume`; suppress the cell's own
        // drop so it is not dropped a second time. If the closure panics it
        // is already on the callee's stack and unwinding drops it there.
        let mut this = mem::ManuallyDrop::new(self);
        // SAFETY: `consume` matches the payload's contents by construction,
        // and the ManuallyDrop guarantees this is the only consumption.
        unsafe { (this.consume)(this.payload.0.as_mut_ptr().cast::<u8>(), Some((world, eng))) }
    }
}

impl<W> Drop for EventCell<W> {
    fn drop(&mut self) {
        // SAFETY: a cell that was not `invoke`d still owns its payload;
        // `consume` matches the stored type by construction.
        unsafe { (self.consume)(self.payload.0.as_mut_ptr().cast::<u8>(), None) }
    }
}

/// One pending event; as an `Option` still 40 bytes (`None` is a null `consume`).
struct Entry<W> {
    at: u64,
    cell: EventCell<W>,
}

/// Entries per chunk; ARCHITECTURE "Event storage" has the sizes measured.
const CHUNK: usize = 32;

/// Entries filled front to back, linked by `next` into a chain.
struct Chunk<W> {
    next: Chain<W>,
    len: usize,
    entries: [Option<Entry<W>>; CHUNK],
}

type Chain<W> = Option<Box<Chunk<W>>>;

impl<W> Drop for Chunk<W> {
    /// Unlinks the chain one chunk at a time, however long it is.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut c) = next {
            next = c.next.take();
        }
    }
}

/// Reverses a chain: newest first becomes oldest first.
fn reverse<W>(mut chain: Chain<W>) -> Chain<W> {
    let mut out = None;
    while let Some(mut c) = chain {
        chain = mem::replace(&mut c.next, out);
        out = Some(c);
    }
    out
}

/// Bits per wheel digit.
const DIGIT_BITS: u32 = 6;
/// Slots per level: one per digit value.
const SLOTS: usize = 1 << DIGIT_BITS;
/// Digits in a `u64` time (the top one is partial).
const LEVELS: usize = (u64::BITS as usize).div_ceil(DIGIT_BITS as usize);

/// The event queue and store: a monotone hierarchical timing wheel releasing
/// entries in `(time, schedule order)`; the module docs say how and why.
struct Wheel<W> {
    /// The last released entry's time, never past the clock; entries are placed relative to it.
    last: u64,
    /// Entries pending, and the most ever pending at once.
    len: usize,
    high: usize,
    /// `last`'s entries, oldest chunk first, read from `cursor` on.
    drain: Chain<W>,
    cursor: usize,
    /// Per level, bit `d` is set iff slot `d` is non-empty.
    masks: [u64; LEVELS],
    /// `LEVELS × SLOTS` chains, level-major, each newest chunk first.
    slots: Box<[Chain<W>]>,
    /// Empty chunks, and how many chunks exist in all.
    free: Chain<W>,
    chunks: usize,
}

impl<W> Wheel<W> {
    /// A wheel whose free list holds chunks for about `events` entries.
    fn with_capacity(events: usize) -> Wheel<W> {
        let mut wheel = Wheel {
            last: 0,
            len: 0,
            high: 0,
            drain: None,
            cursor: 0,
            masks: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| None).collect(),
            free: None,
            chunks: 0,
        };
        // `fresh` allocates each of these: the free list is empty until all are made.
        let chunks: Vec<_> = (0..events.div_ceil(CHUNK)).map(|_| wheel.fresh()).collect();
        chunks.into_iter().for_each(|c| wheel.release(c));
        wheel
    }

    /// An empty chunk, from the free list if it has one.
    fn fresh(&mut self) -> Box<Chunk<W>> {
        let Some(mut c) = self.free.take() else {
            self.chunks += 1;
            let entries = [const { None }; CHUNK];
            return Box::new(Chunk {
                next: None,
                len: 0,
                entries,
            });
        };
        self.free = c.next.take();
        c
    }

    /// Puts a chunk whose entries have all been taken on the free list.
    fn release(&mut self, mut c: Box<Chunk<W>>) {
        c.len = 0;
        c.next = self.free.take();
        self.free = Some(c);
    }

    /// Appends `entry` to the slot of the highest digit in which its time
    /// differs from `last`. Requires `entry.at >= last`.
    #[inline]
    fn place(&mut self, entry: Entry<W>) {
        debug_assert!(entry.at >= self.last, "wheel time must be monotone");
        let level =
            ((u64::BITS - 1 - ((entry.at ^ self.last) | 1).leading_zeros()) / DIGIT_BITS) as usize;
        let digit = (entry.at >> (level as u32 * DIGIT_BITS)) as usize & (SLOTS - 1);
        self.masks[level] |= 1 << digit;
        let slot = level * SLOTS + digit;
        if self.slots[slot].as_ref().is_none_or(|c| c.len == CHUNK) {
            let mut c = self.fresh();
            c.next = self.slots[slot].take();
            self.slots[slot] = Some(c);
        }
        let c = self.slots[slot].as_mut().expect("a chunk with room");
        c.entries[c.len] = Some(entry);
        c.len += 1;
    }

    /// Releases the next entry in `(time, schedule order)` if its time is
    /// at most `limit`. Otherwise returns `None` and leaves `last` where it
    /// is, so the caller may still push any time after `limit`.
    fn pop(&mut self, limit: u64) -> Option<Entry<W>> {
        loop {
            if let Some(c) = &mut self.drain {
                // Only when a run loop is asked to stop in the past.
                if self.last > limit {
                    return None;
                }
                let entry = c.entries[self.cursor].take();
                self.cursor += 1;
                if self.cursor == c.len {
                    let next = c.next.take();
                    let done = mem::replace(&mut self.drain, next).expect("draining");
                    self.release(done);
                    self.cursor = 0;
                }
                self.len -= 1;
                return entry;
            }
            // Entries pushed for `last` since its slot was last taken.
            let cur = self.last as usize & (SLOTS - 1);
            if self.slots[cur].is_some() {
                self.drain = reverse(self.slots[cur].take());
                self.masks[0] &= !(1 << cur);
                continue;
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
            // the minimum: every other entry has a larger digit there, or
            // differs from `last` in a higher one.
            let level = (1..LEVELS).find(|&l| self.masks[l] != 0)?;
            let digit = self.masks[level].trailing_zeros() as usize;
            let slot = level * SLOTS + digit;
            let min = std::iter::successors(self.slots[slot].as_deref(), |c| c.next.as_deref())
                .flat_map(|c| c.entries[..c.len].iter().flatten())
                .map(|e| e.at)
                .min()
                .expect("a set mask bit marks a non-empty slot");
            if min > limit {
                return None;
            }
            // Cascade: relative to the new `last` every entry of the slot
            // belongs on a lower level, all of which are empty.
            self.last = min;
            self.masks[level] &= !(1 << digit);
            let mut chain = reverse(self.slots[slot].take());
            // A lone entry (most cascades, on a queue sparse in time) is
            // released directly rather than via level 0.
            if let Some(c) = chain.as_mut().filter(|c| c.len == 1 && c.next.is_none()) {
                let entry = c.entries[0].take();
                self.release(chain.expect("just matched"));
                self.len -= 1;
                return entry;
            }
            while let Some(mut c) = chain {
                chain = c.next.take();
                for e in &mut c.entries[..c.len] {
                    self.place(e.take().expect("a slot's entries are filled"));
                }
                self.release(c);
            }
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
    queue: Wheel<W>,
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

    /// Creates an engine whose event queue holds chunks for roughly
    /// `events` simultaneously pending events before it allocates.
    ///
    /// Purely a performance knob for large-population worlds: a 10k+-peer
    /// world schedules tens of thousands of first-poll and damage events
    /// before the run starts, and pre-sizing allocates their chunks in one
    /// go. Behaviour is identical to [`Engine::new`].
    pub fn with_capacity(events: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            executed: 0,
            queue: Wheel::with_capacity(events),
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
            o.events_queued.raise(self.queue.len as u64);
            o.arena_total.raise(self.queue.high as u64);
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Event occupancy: `(pending, high-water pending)`, the most events
    /// ever pending at once, which is what a memory report wants.
    pub fn arena_occupancy(&self) -> (usize, usize) {
        (self.queue.len, self.queue.high)
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len
    }

    /// Approximate bytes of the event queue: every chunk it has allocated,
    /// in use or free, plus its slot heads (closures too large for a
    /// cell's inline payload hold further heap blocks, not counted).
    pub fn queue_bytes(&self) -> usize {
        self.queue.chunks * mem::size_of::<Chunk<W>>() + mem::size_of_val(&*self.queue.slots)
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
        let (at, cell) = (at.max(self.now).0, EventCell::new(f));
        let q = &mut self.queue;
        q.place(Entry { at, cell });
        q.len += 1;
        q.high = q.high.max(q.len);
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
        while let Some(Entry { at, cell }) = limit.and_then(|limit| self.queue.pop(limit)) {
            debug_assert!(at >= self.now.0, "time must be monotone");
            self.now = SimTime(at);
            self.executed += 1;
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
        // Ten instants take a chunk each; the pre-sized store had enough.
        assert_eq!((a.queue.chunks, b.queue.chunks), (10, 1024 / CHUNK));
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

    /// Bursts spanning several chunks — at one instant, and in a far slot
    /// that cascades — hand their chunks back as they drain, and the
    /// cascade reuses them as it goes: a second identical burst allocates
    /// no new chunk.
    #[test]
    fn a_second_identical_burst_allocates_no_new_chunk() {
        let mut eng: Engine<u32> = Engine::new();
        let mut w = 0;
        for _ in 0..2 {
            let t = eng.now().0;
            for _ in 0..10 * CHUNK {
                eng.schedule_at(SimTime(t + 7), |w: &mut u32, _| *w += 1);
                eng.schedule_at(SimTime(t + (1 << 20)), |w: &mut u32, _| *w += 1);
            }
            eng.schedule_at(SimTime(t + 9), |w: &mut u32, _| *w += 1);
            eng.run_to_exhaustion(&mut w);
            assert_eq!(eng.queue.chunks, 2 * 10 + 1, "the first burst's high water");
        }
        assert_eq!(w as usize, 2 * (20 * CHUNK + 1));
        assert_eq!(eng.arena_occupancy(), (0, 20 * CHUNK + 1));
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

    /// Whether the closure `f` would be stored inline.
    fn inline<F>(_: &F) -> bool {
        fits_inline::<F>()
    }

    /// A cell is the `consume` pointer and the payload, and `None` costs
    /// nothing beside them; a wheel entry adds only its time.
    #[test]
    fn an_event_slot_is_32_bytes() {
        assert_eq!(mem::size_of::<Option<EventCell<Vec<u64>>>>(), 32);
        assert_eq!(mem::size_of::<Option<EventCell<u8>>>(), 32);
        assert_eq!(mem::size_of::<Option<Entry<u8>>>(), 40);
    }

    /// The inline boundary: 24 bytes at 8-byte alignment fit, one byte more
    /// or a 16-byte alignment boxes.
    #[test]
    fn closures_fit_inline_up_to_24_bytes_at_8_byte_alignment() {
        assert!(fits_inline::<[u8; 24]>());
        assert!(fits_inline::<[u64; 3]>());
        assert!(!fits_inline::<[u8; 25]>());
        assert!(!fits_inline::<u128>());
        assert!(fits_inline::<Box<[u64; 64]>>(), "the fallback always fits");
        let (a, b, c) = (1u64, 2u32, 3u64);
        assert!(inline(&move |_: &mut u8, _: &mut Engine<u8>| {
            let _ = (a, b, c);
        }));
        let d = 4u128;
        assert!(!inline(&move |_: &mut u8, _: &mut Engine<u8>| {
            std::hint::black_box(d);
        }));
    }

    /// Events that never execute (beyond the horizon at drop time) still
    /// release their captured state exactly once, in every representation.
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
        // Exactly the inline payload's size: stored inline.
        let keep = Rc::clone(&witness);
        let pad = [0u64; 2];
        let full = move |_: &mut u32, _: &mut Engine<u32>| {
            let _ = (&keep, &pad);
        };
        assert!(inline(&full) && mem::size_of_val(&full) == INLINE_BYTES);
        eng.schedule_at(SimTime(1_000), full);
        // Small enough but over-aligned: boxed.
        #[repr(align(16))]
        #[allow(dead_code)] // held only to be dropped
        struct Wide(Rc<()>);
        let wide = Wide(Rc::clone(&witness));
        let aligned = move |_: &mut u32, _: &mut Engine<u32>| {
            let _ = &wide;
        };
        assert!(!inline(&aligned) && mem::size_of_val(&aligned) <= INLINE_BYTES);
        eng.schedule_at(SimTime(1_000), aligned);
        let mut w = 0;
        eng.run_until(&mut w, SimTime(10)); // nothing executes
        assert_eq!(Rc::strong_count(&witness), 12);
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
        assert_eq!(handles.events_queued.get(), 2, "the larger of 2 and 0");
    }

    /// Engines sharing one set of handles (a sweep's seeds) publish the
    /// same snapshot whichever finishes first: the gauges are maxima, so
    /// the last engine to publish does not overwrite the others.
    #[test]
    fn shared_handles_do_not_depend_on_finish_order() {
        // (events scheduled, run until): the first engine leaves 3 of 5
        // queued, the second 1 of 8.
        let shapes = [(5u64, 2u64), (8, 7)];
        let snapshot = |order: [usize; 2]| {
            let mut b = RegistryBuilder::new();
            let obs = EngineObs::register(&mut b);
            let registry = b.build();
            for i in order {
                let (events, until) = shapes[i];
                let mut eng: Engine<u64> = Engine::new();
                eng.set_obs(obs.clone());
                for t in 0..events {
                    eng.schedule_at(SimTime(t), |w: &mut u64, _| *w += 1);
                }
                eng.run_until(&mut 0, SimTime(until));
            }
            registry.to_json()
        };
        let forward = snapshot([0, 1]);
        assert_eq!(forward, snapshot([1, 0]));
        assert!(forward.contains("\"engine_events_queued\": 3"), "{forward}");
        assert!(forward.contains("\"engine_arena_total\": 8"), "{forward}");
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
