//! Hierarchical timing wheel: the engine's event queue.
//!
//! A calendar queue tuned for discrete-event simulation: O(1) insert and
//! amortized O(1) pop for the near-future events that dominate a packet
//! simulation, with a plain binary heap as an overflow level for the rare
//! far-future timer. Replaces the previous `BinaryHeap<Reverse<_>>`, whose
//! per-event `log n` sift dominated the scheduler profile.
//!
//! ## Layout
//!
//! Four levels of 256 slots each. A level-0 slot spans `2^SHIFT` (1024) ns;
//! each higher level's slot spans 256× the one below, so the wheel covers
//! `256^4 * 1024` ns = 2^42 ns ≈ 73 minutes of simulated time ahead of the
//! cursor. Anything beyond that horizon waits in the `overflow` min-heap
//! and is migrated into the wheel as the cursor approaches it.
//!
//! `cursor` is the index (in level-0 slot units) of the last drained slot.
//! Events land in the smallest level whose window, measured from the
//! cursor, still contains them; draining the next occupied level-0 slot
//! swaps its buffer with the (empty) `ready`, so the buffers circulate
//! instead of being freed and reallocated, and occupied higher-level slots
//! whose start time has arrived are *cascaded* — redistributed into lower
//! levels — before any later level-0 slot is drained.
//!
//! ## Determinism
//!
//! The engine orders events by `(time, insertion seq)`. The wheel preserves
//! that order exactly — see the `matches_reference_heap` property test —
//! because (a) `ready` is kept sorted by `(at, seq)`, slot drains sort
//! before appending, and late pushes into an already-drained time range
//! binary-insert into their ordered position; and (b) on equal start times
//! the highest-level cascade runs *first*, then every lower level's slot
//! sitting exactly at the new cursor's position is cascaded in turn
//! (level-1 starts can tie with a level-2 or level-3 cascade, not just
//! level-0 ones), so all tied sources merge into one sorted batch and no
//! slot is ever left occupied at the cursor — where `first_occupied` would
//! skip it and mis-order its events by a full rotation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of a level-0 slot's span in nanoseconds.
const SHIFT: u32 = 10;
/// log2 of the number of slots per level.
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels (beyond which events overflow to the heap).
const LEVELS: usize = 4;

/// One queued event: scheduling key plus the caller's payload.
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

/// Overflow-heap wrapper ordering entries by `(at, seq)`.
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

/// A hierarchical timing wheel ordered by `(at, seq)`.
///
/// `pop` returns events in strictly ascending `(at, seq)` order provided
/// every `push` satisfies `at >= the at of the last popped event` — the
/// engine's "no scheduling into the past" invariant.
pub(crate) struct TimingWheel<T> {
    /// `levels[k][i]` holds events whose level-`k` virtual slot ≡ `i`
    /// (mod 256). Intra-slot order is arbitrary; drains sort.
    levels: [Vec<Vec<Entry<T>>>; LEVELS],
    /// One bit per slot per level: slot non-empty.
    occupied: [[u64; SLOTS / 64]; LEVELS],
    /// Events beyond the level-3 horizon.
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
    /// Due events, sorted by `(at, seq)` *descending* — popped from the back.
    ready: Vec<Entry<T>>,
    /// Index (in level-0 slot units) of the last drained slot. Every event
    /// still in the wheel has `at >> SHIFT > cursor`; everything in `ready`
    /// has `at >> SHIFT <= cursor`.
    cursor: u64,
    len: usize,
}

impl<T> TimingWheel<T> {
    pub fn new() -> Self {
        TimingWheel {
            levels: std::array::from_fn(|_| (0..SLOTS).map(|_| Vec::new()).collect()),
            occupied: [[0; SLOTS / 64]; LEVELS],
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Queues `value` at time `at` with tie-break sequence `seq`.
    ///
    /// `seq` must be strictly greater than every previously pushed `seq`
    /// (the engine's monotonically increasing event counter).
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        self.len += 1;
        let e = Entry { at, seq, value };
        if at >> SHIFT <= self.cursor {
            // The event's slot has already been drained: it is due now.
            // Keep `ready` ordered (descending) so pops stay correct even
            // mid-consumption.
            let i = self.ready.partition_point(|r| (r.at, r.seq) > (at, seq));
            self.ready.insert(i, e);
        } else {
            self.place_in_wheel(e);
        }
    }

    /// Removes and returns the earliest event as `(at, seq, value)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.ready.is_empty() {
            self.advance();
        }
        let e = self.ready.pop()?;
        self.len -= 1;
        Some((e.at, e.seq, e.value))
    }

    /// Time of the earliest event without removing it.
    ///
    /// Takes `&mut self` because peeking may have to advance the wheel to
    /// the next occupied slot; the queue's contents are unchanged.
    pub fn next_at(&mut self) -> Option<u64> {
        if self.ready.is_empty() {
            self.advance();
        }
        self.ready.last().map(|e| e.at)
    }

    /// Files an event whose slot is strictly beyond the cursor into the
    /// smallest level whose window contains it, or into the overflow heap.
    fn place_in_wheel(&mut self, e: Entry<T>) {
        debug_assert!(e.at >> SHIFT > self.cursor);
        for level in 0..LEVELS {
            let shift = SHIFT + BITS * level as u32;
            let vslot = e.at >> shift;
            if vslot - (self.cursor >> (BITS * level as u32)) < SLOTS as u64 {
                let idx = vslot as usize & (SLOTS - 1);
                self.levels[level][idx].push(e);
                self.occupied[level][idx >> 6] |= 1 << (idx & 63);
                return;
            }
        }
        self.overflow.push(Reverse(HeapEntry(e)));
    }

    fn wheel_is_empty(&self) -> bool {
        self.occupied
            .iter()
            .all(|level| level.iter().all(|w| *w == 0))
    }

    /// Absolute virtual slot of the first occupied slot of `level` after
    /// the cursor, if any.
    fn first_occupied(&self, level: usize) -> Option<u64> {
        let cursor_k = self.cursor >> (BITS * level as u32);
        let base = cursor_k as usize & (SLOTS - 1);
        let bm = &self.occupied[level];
        // Scan the 255 physical positions after `base`, wrapping. The
        // cursor's own position can never be occupied: pushes and cascade
        // redistributions always land at distance >= 1.
        let start = (base + 1) & (SLOTS - 1);
        let mut word = start >> 6;
        let mut mask = !0u64 << (start & 63);
        for _ in 0..=SLOTS / 64 {
            let bits = bm[word] & mask;
            if bits != 0 {
                let idx = (word << 6) + bits.trailing_zeros() as usize;
                debug_assert_ne!(idx, base, "cursor slot must be empty");
                let distance = (idx.wrapping_sub(base).wrapping_sub(1) & (SLOTS - 1)) + 1;
                return Some(cursor_k + distance as u64);
            }
            word = (word + 1) & (SLOTS / 64 - 1);
            mask = !0;
        }
        None
    }

    /// Moves overflow events that now fit the top level's window into the
    /// wheel; when the wheel is otherwise empty, first jumps the cursor to
    /// just before the earliest overflow event (nothing can be skipped —
    /// there is nothing else queued).
    fn migrate_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        if self.wheel_is_empty() {
            let min_at = self.overflow.peek().expect("checked non-empty").0 .0.at;
            let target = (min_at >> SHIFT).saturating_sub(1);
            if target > self.cursor {
                self.cursor = target;
            }
        }
        let top_shift = SHIFT + BITS * (LEVELS - 1) as u32;
        let horizon = self.cursor >> (BITS * (LEVELS - 1) as u32);
        while let Some(Reverse(top)) = self.overflow.peek() {
            if (top.0.at >> top_shift) - horizon >= SLOTS as u64 {
                break;
            }
            let Reverse(HeapEntry(e)) = self.overflow.pop().expect("peeked");
            self.place_in_wheel(e);
        }
    }

    /// Refills `ready` (which must be empty) with the next due batch of
    /// events, sorted descending by `(at, seq)`. Cascades higher-level
    /// slots whose start time has arrived; on equal start times the highest
    /// level is processed first, then every lower level's slot at the new
    /// cursor position, so all tied sources merge into — rather than
    /// trail — the level-0 slot they belong to.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty());
        loop {
            self.migrate_overflow();
            let mut best: Option<(u64, usize, u64)> = None;
            for level in 0..LEVELS {
                if let Some(vslot) = self.first_occupied(level) {
                    let start = vslot << (BITS * level as u32);
                    let better = match best {
                        None => true,
                        Some((bs, bl, _)) => start < bs || (start == bs && level > bl),
                    };
                    if better {
                        best = Some((start, level, vslot));
                    }
                }
            }
            let Some((start, level, vslot)) = best else {
                if self.overflow.is_empty() {
                    return; // queue is empty
                }
                continue; // migrate_overflow will rebase the cursor
            };
            let idx = vslot as usize & (SLOTS - 1);
            self.occupied[level][idx >> 6] &= !(1 << (idx & 63));
            self.cursor = start;
            if level == 0 {
                // Swap, not take: the slot inherits the buffer `ready` just
                // emptied, so a steady schedule stops allocating once every
                // buffer in the rotation has grown to its working size.
                std::mem::swap(&mut self.ready, &mut self.levels[0][idx]);
                self.sort_ready();
                return;
            }
            let events = std::mem::take(&mut self.levels[level][idx]);
            // Cascade: redistribute into lower levels; events in the slot's
            // first level-0 sub-slot (== the new cursor) are due now.
            for e in events {
                if e.at >> SHIFT <= self.cursor {
                    self.ready.push(e);
                } else {
                    self.place_in_wheel(e);
                }
            }
            // Pre-existing lower-level slots may sit exactly at the new
            // cursor's position (their start tied with this cascade's).
            // `first_occupied` never looks at the cursor's own position, so
            // leaving one occupied would mis-order its events by a full
            // rotation. Cascade them too — a tied slot's events fit the
            // level-0 window from the new cursor, so each spill lands in
            // level 0 or `ready`, never in another tied slot — then drain
            // the tied level-0 slot, so the sort below interleaves every
            // source correctly.
            for lvl in (1..level).rev() {
                let idx_l = (self.cursor >> (BITS * lvl as u32)) as usize & (SLOTS - 1);
                if self.occupied[lvl][idx_l >> 6] & (1 << (idx_l & 63)) != 0 {
                    let tied = std::mem::take(&mut self.levels[lvl][idx_l]);
                    self.occupied[lvl][idx_l >> 6] &= !(1 << (idx_l & 63));
                    for e in tied {
                        if e.at >> SHIFT <= self.cursor {
                            self.ready.push(e);
                        } else {
                            self.place_in_wheel(e);
                        }
                    }
                }
            }
            let idx0 = self.cursor as usize & (SLOTS - 1);
            if self.occupied[0][idx0 >> 6] & (1 << (idx0 & 63)) != 0 {
                let extra = std::mem::take(&mut self.levels[0][idx0]);
                self.occupied[0][idx0 >> 6] &= !(1 << (idx0 & 63));
                self.ready.extend(extra);
            }
            if !self.ready.is_empty() {
                self.sort_ready();
                return;
            }
        }
    }

    fn sort_ready(&mut self) {
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }

    /// Entries the buffers that circulate through level-0 drains — `ready`
    /// and the level-0 slots — can hold without allocating.
    #[cfg(test)]
    fn level0_capacity(&self) -> usize {
        self.ready.capacity() + self.levels[0].iter().map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: the engine's previous `BinaryHeap` queue.
    struct RefHeap {
        heap: BinaryHeap<Reverse<HeapEntry<u32>>>,
    }

    impl RefHeap {
        fn push(&mut self, at: u64, seq: u64, value: u32) {
            self.heap.push(Reverse(HeapEntry(Entry { at, seq, value })));
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            let Reverse(HeapEntry(e)) = self.heap.pop()?;
            Some((e.at, e.seq, e.value))
        }
        fn next_at(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse(HeapEntry(e))| e.at)
        }
    }

    /// The wheel and the reference heap driven through one schedule, every
    /// pop compared. With `peek`, `next_at` and `len` are compared after
    /// every operation too — the engine's usage (it peeks before each
    /// step), which advances the cursor earlier than pops alone would.
    struct Model {
        wheel: TimingWheel<u32>,
        reference: RefHeap,
        /// Time of the last popped event: the floor for pushes.
        now: u64,
        seq: u64,
        peek: bool,
    }

    impl Model {
        fn new(peek: bool) -> Self {
            Model {
                wheel: TimingWheel::new(),
                reference: RefHeap {
                    heap: BinaryHeap::new(),
                },
                now: 0,
                seq: 0,
                peek,
            }
        }

        fn check_peek(&mut self, what: &str) {
            if self.peek {
                let want = self.reference.next_at();
                assert_eq!(self.wheel.next_at(), want, "next_at after {what}");
                assert_eq!(self.wheel.len(), self.reference.heap.len(), "{what}");
            }
        }

        fn push(&mut self, at: u64) {
            assert!(at >= self.now, "the schedule pushed into the past");
            self.wheel.push(at, self.seq, self.seq as u32);
            self.reference.push(at, self.seq, self.seq as u32);
            self.seq += 1;
            self.check_peek("a push");
        }

        /// Pops both queues; `false` once they are (both) empty.
        fn pop(&mut self, what: &str) -> bool {
            let got = self.wheel.pop();
            assert_eq!(got, self.reference.pop(), "pop diverged ({what})");
            self.check_peek(what);
            let Some((at, _, _)) = got else {
                assert_eq!(self.wheel.len(), 0);
                return false;
            };
            assert!(at >= self.now, "time went backwards");
            self.now = at;
            true
        }

        /// Drains both to empty: the tail must match too.
        fn drain(&mut self, what: &str) {
            while self.pop(what) {}
        }
    }

    /// Drives the model through a random interleaving of pushes and pops.
    fn check_stream(seed: u64, ops: usize, max_delay: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model::new(false);
        for op in 0..ops {
            // Bias toward pushes so the queue stays populated, with
            // drain-heavy stretches to exercise cursor advancement.
            let push = rng.gen_range(0..5u32) < 3;
            if push || m.wheel.len() == 0 {
                // Same-timestamp ties (delay 0 twice in a row) are common
                // by construction: delay draws hit 0 with probability 1/8.
                let delay = if rng.gen_range(0..8u32) == 0 {
                    0
                } else {
                    rng.gen_range(0..max_delay + 1)
                };
                m.push(m.now + delay);
            } else {
                m.pop(&format!("op {op}, seed {seed}"));
            }
        }
        m.drain(&format!("drain, seed {seed}"));
    }

    #[test]
    fn matches_reference_heap_near_future() {
        // Delays inside level 0/1: the packet-forwarding regime.
        for seed in 0..8 {
            check_stream(seed, 4_000, 200_000);
        }
    }

    #[test]
    fn matches_reference_heap_mixed_horizons() {
        // Delays spanning all four levels plus the overflow heap.
        for seed in 100..106 {
            check_stream(seed, 2_000, 1 << 44);
        }
    }

    #[test]
    fn matches_reference_heap_dense_ties() {
        // Tiny delays: many same-slot and same-timestamp events.
        for seed in 200..208 {
            check_stream(seed, 4_000, 3);
        }
    }

    #[test]
    fn level1_slot_tying_with_level2_cascade_is_not_skipped() {
        // Regression: a level-1 slot whose start coincides with a level-2
        // cascade's start sits exactly at the new cursor's level-1 position.
        // `first_occupied` never inspects the cursor's own position, so the
        // slot used to be skipped and its events mis-ordered by a full
        // rotation (C below popped before B, simulated time going
        // backwards).
        let mut wheel = TimingWheel::new();
        // Advance the cursor to level-0 slot 65280 (= 0xFF00).
        wheel.push(65_280 << SHIFT, 0, 0u32);
        assert_eq!(wheel.pop(), Some((65_280 << SHIFT, 0, 0)));
        // B: level-1 slot with start 65536 (vslot 256, distance 1).
        wheel.push(65_536 << SHIFT, 1, 1u32);
        // C: level-2 slot with the same start 65536 (vslot 1, distance 1).
        wheel.push(511u64 << 18, 2, 2u32);
        assert_eq!(wheel.pop(), Some((65_536 << SHIFT, 1, 1)));
        assert_eq!(wheel.pop(), Some((511u64 << 18, 2, 2)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn level1_and_level2_slots_tying_with_level3_cascade() {
        // Same shape one level up: a level-3 cascade whose start ties with
        // occupied level-2 AND level-1 slots must drain all of them into
        // the same batch.
        let mut wheel = TimingWheel::new();
        // Cursor to level-0 slot 2^24 - 256, one level-1 slot shy of the
        // level-3 boundary at 2^24.
        wheel.push(((1u64 << (3 * BITS)) - 256) << SHIFT, 0, 0u32);
        assert_eq!(wheel.pop().map(|(_, s, _)| s), Some(0));
        // B: level-1 slot (vslot 2^16, distance 1), start 2^24.
        let b_at = 1u64 << (SHIFT + 3 * BITS);
        wheel.push(b_at, 1, 1u32);
        // C: level-2 slot (vslot 2^8, distance 1), same start 2^24.
        let c_at = ((1u64 << (3 * BITS)) + (255 << BITS)) << SHIFT;
        wheel.push(c_at, 2, 2u32);
        // D: level-3 slot (vslot 1, distance 1), same start 2^24.
        let d_at = 511u64 << (SHIFT + 2 * BITS);
        wheel.push(d_at, 3, 3u32);
        assert!(b_at < c_at && c_at < d_at);
        assert_eq!(wheel.pop(), Some((b_at, 1, 1)));
        assert_eq!(wheel.pop(), Some((c_at, 2, 2)));
        assert_eq!(wheel.pop(), Some((d_at, 3, 3)));
        assert_eq!(wheel.pop(), None);
    }

    /// Like `check_stream`, but biases timestamps onto level-1/2/3 slot
    /// boundaries so cascade starts frequently tie with occupied
    /// lower-level slots — the alignment the uniform streams almost never
    /// produce.
    fn check_aligned_stream(seed: u64, ops: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model::new(false);
        for op in 0..ops {
            let push = rng.gen_range(0..5u32) < 3;
            if push || m.wheel.len() == 0 {
                // Snap to a random level's slot boundary a few slots ahead,
                // with occasional sub-slot jitter so slots hold mixed times.
                let level = rng.gen_range(1..LEVELS as u32);
                let span = 1u64 << (SHIFT + BITS * level);
                let k = rng.gen_range(1..4u64);
                let jitter = if rng.gen_range(0..4u32) == 0 {
                    rng.gen_range(0..1u64 << SHIFT)
                } else {
                    0
                };
                m.push(((m.now / span) + k) * span + jitter);
            } else {
                m.pop(&format!("op {op}, seed {seed}"));
            }
        }
        m.drain(&format!("drain, seed {seed}"));
    }

    #[test]
    fn matches_reference_heap_boundary_aligned() {
        for seed in 300..310 {
            check_aligned_stream(seed, 3_000);
        }
    }

    #[test]
    fn matches_reference_heap_on_adversarial_schedules() {
        // The schedules a cascade is most likely to get wrong, mixed at
        // random and peeked after every operation (whole-epoch drives lean
        // on `next_at` being exact): pushes on a level boundary and one
        // either side; at the last instant the wheel holds and the first
        // that overflows; equal-time bursts pushed half before and half
        // after the cursor moved toward their cascade; and overflow churn.
        for seed in 400..408 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Model::new(true);
            for round in 0..300 {
                let level = rng.gen_range(0..LEVELS as u32);
                let span = 1u64 << (SHIFT + BITS * level);
                match rng.gen_range(0..4u32) {
                    0 => {
                        let edge = (m.now / span + rng.gen_range(1..3u64)) * span;
                        [edge - 1, edge, edge + 1]
                            .into_iter()
                            .for_each(|at| m.push(at));
                    }
                    1 => {
                        // Level 3 holds 256 of its slots from the cursor's.
                        let top = BITS * (LEVELS as u32 - 1);
                        let edge = ((m.wheel.cursor >> top) + SLOTS as u64) << (SHIFT + top);
                        [edge - 1, edge].into_iter().for_each(|at| m.push(at));
                    }
                    2 => {
                        let start = (m.now / span + 1) * span;
                        [start, start, start - 1]
                            .into_iter()
                            .for_each(|at| m.push(at));
                        for _ in 0..rng.gen_range(1..3u32) {
                            m.pop(&format!("burst, round {round}, seed {seed}"));
                        }
                        if m.now <= start {
                            [start, start].into_iter().for_each(|at| m.push(at));
                        }
                    }
                    _ => {
                        for _ in 0..8 {
                            let horizon = 1u64 << (SHIFT + BITS * LEVELS as u32);
                            m.push(m.now + horizon + rng.gen_range(0..1u64 << 20));
                            m.push(m.now + rng.gen_range(0..2_048u64));
                            m.pop(&format!("churn, round {round}, seed {seed}"));
                        }
                    }
                }
                for _ in 0..rng.gen_range(0..4u32) {
                    m.pop(&format!("round {round}, seed {seed}"));
                }
            }
            m.drain(&format!("drain, seed {seed}"));
        }
    }

    #[test]
    fn a_steady_schedule_stops_allocating_after_one_rotation() {
        // Three events in every slot, each replaced 200 slots ahead as it
        // pops. Drains recycle the slot buffers, so once the wheel has been
        // round, no pop frees a buffer and no push grows one: the capacity
        // in circulation is the same after every operation — and the order
        // is still the reference heap's.
        const AHEAD: u64 = 200;
        let mut m = Model::new(true);
        for slot in 1..=AHEAD {
            for offset in [0, 300, 600] {
                m.push((slot << SHIFT) + offset);
            }
        }
        let step = |m: &mut Model| {
            assert!(m.pop("steady"));
            let popped = m.wheel.level0_capacity();
            m.push(m.now + (AHEAD << SHIFT));
            (popped, m.wheel.level0_capacity())
        };
        for _ in 0..3 * SLOTS {
            step(&mut m);
        }
        let warm = m.wheel.level0_capacity();
        assert!(warm >= 3 * SLOTS);
        for op in 0..4 * 3 * SLOTS {
            assert_eq!(step(&mut m), (warm, warm), "operation {op}");
        }
        m.drain("steady tail");
    }

    #[test]
    fn far_future_only_rebases_through_overflow() {
        let mut wheel = TimingWheel::new();
        // One event far beyond the wheel horizon, then nothing else: the
        // cursor must rebase rather than scan 256^4 slots.
        wheel.push(u64::MAX / 2, 0, 7u32);
        assert_eq!(wheel.next_at(), Some(u64::MAX / 2));
        assert_eq!(wheel.pop(), Some((u64::MAX / 2, 0, 7)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn push_after_drain_lands_in_ready_in_order() {
        let mut wheel = TimingWheel::new();
        wheel.push(1_000, 0, 0u32);
        wheel.push(1_000, 1, 1u32);
        assert_eq!(wheel.pop(), Some((1_000, 0, 0)));
        // Same slot as the drained one: must binary-insert, not append.
        wheel.push(1_000, 2, 2u32);
        wheel.push(1_001, 3, 3u32);
        assert_eq!(wheel.pop(), Some((1_000, 1, 1)));
        assert_eq!(wheel.pop(), Some((1_000, 2, 2)));
        assert_eq!(wheel.pop(), Some((1_001, 3, 3)));
        assert_eq!(wheel.pop(), None);
    }
}
