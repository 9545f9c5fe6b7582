//! The ingress virtual-channel buffer — the only data structure shared between
//! two simulation threads.
//!
//! As in the paper (§II-C), each VC buffer has a producer (tail) end written
//! by the *upstream* router and a consumer (head) end owned by the
//! *downstream* router. Because these are the only points of communication
//! between two tiles, correct synchronization of the two ends guarantees that
//! no flit is lost or reordered regardless of the relative progress of the
//! two threads.
//!
//! # Storage and synchronization
//!
//! Flits live in a fixed-capacity ring allocated once at construction —
//! steady-state operation never touches the heap. Three cursors index the
//! ring, each counting flits monotonically (slot = cursor % capacity):
//!
//! * `write_pos` — flits deposited by the producer. Written only by the
//!   producer endpoint; each deposit is published with a release store
//!   *after* writing the slot.
//! * `visible` — the absorb boundary: flits at `read_pos..visible` are visible
//!   to the consumer's pipeline stages. Advanced by [`absorb_tail`] /
//!   [`absorb_and_peek`] with a single acquire load of `write_pos`.
//! * `read_pos` — flits consumed by the owner. Written only by the consumer.
//!
//! The buffer is a single-producer/single-consumer ring, so no cursor needs a
//! lock: every buffer has exactly one producer endpoint (the upstream
//! router's negative edge, the local bridge, or the shard's boundary
//! receiver) and one consumer endpoint (the owning router), and the sharded
//! runtimes rewire every cut link onto boundary mailboxes so both endpoints
//! of an in-shard buffer are driven by the owning shard. This is the same
//! discipline [`crate::spsc`] relies on; dropping the former tail/head mutex
//! pair removes two uncontended-but-hot lock round-trips per flit from the
//! router hot path.
//!
//! Occupancy (`write`-side reservations minus completed pops) is kept in an
//! atomic counter so upstream credit checks stay lock-free, exactly like a
//! hardware credit loop; an optional *aggregate* counter shared by all buffers
//! of one router makes the router's `buffered_flits()` / `is_idle()` O(1).
//!
//! [`absorb_tail`]: VcBuffer::absorb_tail
//! [`absorb_and_peek`]: VcBuffer::absorb_and_peek
//!
//! # Safety argument
//!
//! A slot is written only by the producer at index `write_pos`, and read only
//! by the consumer at indices `read_pos..visible`. Since `visible ≤
//! write_pos` (published with release/acquire on `write_pos`) the two index
//! sets never overlap. Slot *reuse* (writing index `r + capacity` while the
//! consumer pops index `r`) cannot collide either: a push first reserves
//! space in `occupancy` and pops release it only *after* advancing
//! `read_pos`, so `occupancy ≥ write_pos − read_pos` at all times and a
//! successful reservation (`occupancy < capacity`) proves `write_pos −
//! read_pos < capacity`. The release half of the pop's `occupancy` RMW and
//! the acquire half of the push's reservation RMW order the consumer's final
//! read of a slot before the producer's reuse of it.

use crate::flit::Flit;
use crate::ids::Cycle;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A bounded FIFO of flits with an independently synchronized producer (tail)
/// and consumer (head) end, backed by a fixed ring allocated at construction.
pub struct VcBuffer {
    capacity: usize,
    /// Ring storage; see the module-level safety argument.
    slots: Box<[UnsafeCell<MaybeUninit<Flit>>]>,
    /// Producer cursor: flits deposited so far. Written only by the producer,
    /// published with `Release`, read by the consumer with `Acquire`.
    write_pos: AtomicU64,
    /// Absorb boundary; written only by the consumer.
    visible: AtomicU64,
    /// Flits consumed so far; written only by the consumer.
    read_pos: AtomicU64,
    /// Reserved-minus-released flit count; the credit-check value. Lags pops
    /// by up to one cycle, exactly like a hardware credit loop.
    occupancy: AtomicUsize,
    /// Optional router-wide occupancy aggregate (all ingress buffers of one
    /// router share it), making the router's idle check O(1).
    aggregate: Option<Arc<AtomicUsize>>,
}

// SAFETY: all slot accesses are synchronized as described in the module-level
// safety argument; `Flit` is `Copy + Send`.
unsafe impl Send for VcBuffer {}
unsafe impl Sync for VcBuffer {}

impl std::fmt::Debug for VcBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcBuffer")
            .field("capacity", &self.capacity)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

impl VcBuffer {
    /// Creates a buffer holding at most `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// Creates a buffer that additionally reports its occupancy into a shared
    /// per-router aggregate counter (see [`occupancy`](Self::occupancy)).
    pub fn with_aggregate(capacity: usize, aggregate: Arc<AtomicUsize>) -> Self {
        Self::build(capacity, Some(aggregate))
    }

    fn build(capacity: usize, aggregate: Option<Arc<AtomicUsize>>) -> Self {
        assert!(
            capacity > 0,
            "a VC buffer needs capacity for at least one flit"
        );
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            capacity,
            slots,
            write_pos: AtomicU64::new(0),
            visible: AtomicU64::new(0),
            read_pos: AtomicU64::new(0),
            occupancy: AtomicUsize::new(0),
            aggregate,
        }
    }

    /// Buffer capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy (flits resident in the buffer). This is the value
    /// upstream credit checks use; it intentionally lags pops by up to one
    /// cycle, exactly like a hardware credit loop.
    pub fn occupancy(&self) -> usize {
        self.occupancy.load(Ordering::Acquire)
    }

    /// Free space, in flits.
    pub fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.occupancy())
    }

    /// Reads slot `pos` of the ring.
    ///
    /// # Safety
    ///
    /// The caller must be the consumer endpoint and ensure `read_pos ≤ pos <
    /// visible` (the slot holds an initialized flit the producer published
    /// before the acquire load that advanced `visible`).
    #[inline]
    unsafe fn read_slot(&self, pos: u64) -> Flit {
        (*self.slots[(pos % self.capacity as u64) as usize].get()).assume_init()
    }

    /// Deposits a flit at the tail end. Called by the producer endpoint (the
    /// upstream router, the local bridge, or the boundary receiver) during
    /// the tile's negative clock edge; the single-producer discipline in the
    /// module docs is what makes the lock-free deposit sound.
    ///
    /// Returns `false` (and does not enqueue) if the buffer is full; callers
    /// are expected to have performed a credit check first, so a `false`
    /// return indicates a flow-control bug and is counted by the router.
    #[must_use]
    pub fn push(&self, flit: Flit) -> bool {
        // Reserve space first so a push racing the consumer's credit release
        // can never overflow the ring.
        let prev = self.occupancy.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.occupancy.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        if let Some(agg) = &self.aggregate {
            agg.fetch_add(1, Ordering::AcqRel);
        }
        let pos = self.write_pos.load(Ordering::Relaxed);
        // SAFETY: the successful reservation above proves this slot is not in
        // `read_pos..write_pos` (module-level safety argument), and the
        // single-producer discipline excludes concurrent producers.
        unsafe {
            (*self.slots[(pos % self.capacity as u64) as usize].get()).write(flit);
        }
        self.write_pos.store(pos + 1, Ordering::Release);
        true
    }

    /// Makes flits deposited at the tail end visible to the head end. Called
    /// by the owning router at the start of its cycle; after this,
    /// [`peek`](Self::peek) and [`pop_if`](Self::pop_if) observe them.
    /// Returns the number of flits absorbed.
    pub fn absorb_tail(&self) -> usize {
        let published = self.write_pos.load(Ordering::Acquire);
        let absorbed = published - self.visible.load(Ordering::Relaxed);
        self.visible.store(published, Ordering::Relaxed);
        absorbed as usize
    }

    /// [`absorb_tail`](Self::absorb_tail) plus a snapshot of the head flit.
    /// This is the router hot path: one call per touched VC per cycle
    /// replaces the absorb + repeated-`peek` sequence.
    ///
    /// The returned flit, if any, ignores the visibility timestamp — callers
    /// check `visible_at` against their own clock on the (copied) snapshot.
    pub fn absorb_and_peek(&self) -> (usize, Option<Flit>) {
        let published = self.write_pos.load(Ordering::Acquire);
        let absorbed = (published - self.visible.load(Ordering::Relaxed)) as usize;
        self.visible.store(published, Ordering::Relaxed);
        let read_pos = self.read_pos.load(Ordering::Relaxed);
        let flit = if read_pos < published {
            // SAFETY: consumer endpoint, read_pos < visible.
            Some(unsafe { self.read_slot(read_pos) })
        } else {
            None
        };
        (absorbed, flit)
    }

    /// A snapshot of the head flit among the already-absorbed run, without
    /// advancing the absorb boundary and ignoring the visibility timestamp
    /// (callers check `visible_at` on the copy). Used by the pipeline sweep
    /// to refresh a router's head cache after a pop without re-absorbing.
    pub fn head_snapshot(&self) -> Option<Flit> {
        let read_pos = self.read_pos.load(Ordering::Relaxed);
        if read_pos < self.visible.load(Ordering::Relaxed) {
            // SAFETY: consumer endpoint, read_pos < visible.
            Some(unsafe { self.read_slot(read_pos) })
        } else {
            None
        }
    }

    /// Returns a copy of the flit at the head of the buffer, if any, provided
    /// it has become visible by `now` (its `visible_at` stamp has passed).
    pub fn peek(&self, now: Cycle) -> Option<Flit> {
        let read_pos = self.read_pos.load(Ordering::Relaxed);
        if read_pos < self.visible.load(Ordering::Relaxed) {
            // SAFETY: consumer endpoint, read_pos < visible.
            let flit = unsafe { self.read_slot(read_pos) };
            (flit.visible_at <= now).then_some(flit)
        } else {
            None
        }
    }

    /// Pops the head flit if it is visible by `now` and `pred` accepts it.
    pub fn pop_if(&self, now: Cycle, pred: impl FnOnce(&Flit) -> bool) -> Option<Flit> {
        let read_pos = self.read_pos.load(Ordering::Relaxed);
        if read_pos >= self.visible.load(Ordering::Relaxed) {
            return None;
        }
        // SAFETY: consumer endpoint, read_pos < visible.
        let flit = unsafe { self.read_slot(read_pos) };
        if flit.visible_at <= now && pred(&flit) {
            self.read_pos.store(read_pos + 1, Ordering::Relaxed);
            // Release the slot only after the read completed (see the
            // module-level safety argument for why this ordering matters).
            self.occupancy.fetch_sub(1, Ordering::AcqRel);
            if let Some(agg) = &self.aggregate {
                agg.fetch_sub(1, Ordering::AcqRel);
            }
            Some(flit)
        } else {
            None
        }
    }

    /// Number of flits currently visible at the head end (ignores the
    /// visibility timestamp; used for statistics).
    pub fn head_len(&self) -> usize {
        (self.visible.load(Ordering::Relaxed) - self.read_pos.load(Ordering::Relaxed)) as usize
    }

    /// Flits deposited but not yet absorbed (consumer-side query).
    pub(crate) fn unabsorbed(&self) -> usize {
        (self.write_pos.load(Ordering::Acquire) - self.visible.load(Ordering::Relaxed)) as usize
    }

    /// True if the buffer holds no flits at all.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// A non-destructive copy of the buffer's contents, split at the absorb
    /// boundary: `(visible, pending)` where `visible` holds the flits at
    /// `read_pos..visible` (already absorbed into the consumer's pipeline
    /// view) and `pending` the flits at `visible..write_pos` (deposited but
    /// not yet absorbed). Checkpoint restore replays the two runs around an
    /// [`absorb_tail`](Self::absorb_tail) call so the restored buffer's
    /// cursors land exactly where the snapshot's were. Callers must be
    /// quiescent (no concurrent producer).
    pub fn snapshot_split(&self) -> (Vec<Flit>, Vec<Flit>) {
        let read_pos = self.read_pos.load(Ordering::Relaxed);
        let visible = self.visible.load(Ordering::Relaxed);
        let published = self.write_pos.load(Ordering::Acquire);
        let visible_run = (read_pos..visible)
            // SAFETY: quiescent caller, read_pos ≤ pos < visible.
            .map(|pos| unsafe { self.read_slot(pos) })
            .collect();
        let pending = (visible..published)
            // SAFETY: quiescent caller (no producer mid-deposit) and every
            // slot below `write_pos` was initialized by a completed push.
            .map(|pos| unsafe { self.read_slot(pos) })
            .collect();
        (visible_run, pending)
    }

    /// Restores the contents captured by [`snapshot_split`](Self::snapshot_split)
    /// into this (empty, freshly built) buffer: the `visible` run is pushed
    /// and absorbed, the `pending` run pushed but left unabsorbed.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not empty or the snapshot exceeds capacity.
    pub fn restore_split(&self, visible: &[Flit], pending: &[Flit]) {
        assert!(self.is_empty(), "restore into a non-empty VC buffer");
        for f in visible {
            assert!(self.push(*f), "snapshot exceeds VC buffer capacity");
        }
        self.absorb_tail();
        for f in pending {
            assert!(self.push(*f), "snapshot exceeds VC buffer capacity");
        }
    }

    /// Drains every flit out of the buffer (test / teardown helper). The
    /// caller must be quiescent (no concurrent producer).
    pub fn drain_all(&self) -> Vec<Flit> {
        let published = self.write_pos.load(Ordering::Acquire);
        self.visible.store(published, Ordering::Relaxed);
        let mut read_pos = self.read_pos.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity((published - read_pos) as usize);
        while read_pos < published {
            // SAFETY: quiescent caller, read_pos < visible.
            out.push(unsafe { self.read_slot(read_pos) });
            read_pos += 1;
        }
        self.read_pos.store(read_pos, Ordering::Relaxed);
        self.occupancy.fetch_sub(out.len(), Ordering::AcqRel);
        if let Some(agg) = &self.aggregate {
            agg.fetch_sub(out.len(), Ordering::AcqRel);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitStats};
    use crate::ids::{FlowId, NodeId, PacketId};

    fn flit(seq: u32, visible_at: Cycle) -> Flit {
        Flit {
            packet: PacketId::new(1),
            flow: FlowId::new(1),
            original_flow: FlowId::new(1),
            kind: if seq == 0 {
                FlitKind::Head
            } else {
                FlitKind::Body
            },
            seq,
            packet_len: 8,
            dst: NodeId::new(1),
            src: NodeId::new(0),
            visible_at,
            stats: FlitStats::default(),
        }
    }

    #[test]
    fn push_respects_capacity() {
        let buf = VcBuffer::new(2);
        assert!(buf.push(flit(0, 0)));
        assert!(buf.push(flit(1, 0)));
        assert!(!buf.push(flit(2, 0)));
        assert_eq!(buf.occupancy(), 2);
        assert_eq!(buf.free_space(), 0);
    }

    #[test]
    fn fifo_order_preserved_across_absorb() {
        let buf = VcBuffer::new(8);
        for i in 0..4 {
            assert!(buf.push(flit(i, 0)));
        }
        assert_eq!(buf.absorb_tail(), 4);
        for i in 0..4 {
            let f = buf.pop_if(10, |_| true).expect("flit present");
            assert_eq!(f.seq, i);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn visibility_timestamp_hides_future_flits() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 5)));
        buf.absorb_tail();
        assert!(buf.peek(4).is_none());
        assert!(buf.pop_if(4, |_| true).is_none());
        assert!(buf.peek(5).is_some());
        assert!(buf.pop_if(5, |_| true).is_some());
    }

    #[test]
    fn pop_if_respects_predicate() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 0)));
        buf.absorb_tail();
        assert!(buf.pop_if(1, |f| f.seq == 9).is_none());
        assert_eq!(buf.occupancy(), 1);
        assert!(buf.pop_if(1, |f| f.seq == 0).is_some());
        assert_eq!(buf.occupancy(), 0);
    }

    #[test]
    fn occupancy_counts_both_ends() {
        let buf = VcBuffer::new(4);
        assert!(buf.push(flit(0, 0)));
        buf.absorb_tail();
        assert!(buf.push(flit(1, 0)));
        assert_eq!(buf.occupancy(), 2);
        assert_eq!(buf.head_len(), 1);
        let drained = buf.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn absorb_and_peek_reports_count_and_snapshot() {
        let buf = VcBuffer::new(8);
        assert_eq!(buf.absorb_and_peek(), (0, None));
        for i in 0..3 {
            assert!(buf.push(flit(i, 0)));
        }
        let (absorbed, head) = buf.absorb_and_peek();
        assert_eq!(absorbed, 3);
        assert_eq!(head.unwrap().seq, 0);
        // Nothing new: count is zero but the snapshot persists.
        let (absorbed, head) = buf.absorb_and_peek();
        assert_eq!(absorbed, 0);
        assert_eq!(head.unwrap().seq, 0);
    }

    #[test]
    fn head_snapshot_respects_absorb_boundary() {
        let buf = VcBuffer::new(8);
        assert!(buf.push(flit(0, 7)));
        // Deposited but not absorbed: no head yet.
        assert!(buf.head_snapshot().is_none());
        buf.absorb_tail();
        // Absorbed: visible regardless of the `visible_at` stamp.
        assert_eq!(buf.head_snapshot().unwrap().seq, 0);
        assert!(buf.pop_if(7, |_| true).is_some());
        assert!(buf.head_snapshot().is_none());
    }

    #[test]
    fn ring_reuses_slots_across_many_wraps() {
        let buf = VcBuffer::new(3);
        let mut next = 0u32;
        let mut expect = 0u32;
        for _ in 0..50 {
            while buf.push(flit(next, 0)) {
                next += 1;
            }
            buf.absorb_tail();
            while let Some(f) = buf.pop_if(u64::MAX, |_| true) {
                assert_eq!(f.seq, expect);
                expect += 1;
            }
        }
        assert_eq!(next, expect);
        assert!(next >= 150, "three flits per round expected");
    }

    #[test]
    fn aggregate_counter_tracks_all_movements() {
        let agg = Arc::new(AtomicUsize::new(0));
        let a = VcBuffer::with_aggregate(4, Arc::clone(&agg));
        let b = VcBuffer::with_aggregate(4, Arc::clone(&agg));
        assert!(a.push(flit(0, 0)));
        assert!(b.push(flit(1, 0)));
        assert!(b.push(flit(2, 0)));
        assert_eq!(agg.load(Ordering::Acquire), 3);
        a.absorb_tail();
        assert!(a.pop_if(1, |_| true).is_some());
        assert_eq!(agg.load(Ordering::Acquire), 2);
        b.drain_all();
        assert_eq!(agg.load(Ordering::Acquire), 0);
        // A full buffer's rejected push must not disturb the aggregate.
        let full = VcBuffer::with_aggregate(1, Arc::clone(&agg));
        assert!(full.push(flit(0, 0)));
        assert!(!full.push(flit(1, 0)));
        assert_eq!(agg.load(Ordering::Acquire), 1);
    }

    #[test]
    fn concurrent_producer_consumer_preserves_order_and_count() {
        let buf = Arc::new(VcBuffer::new(4));
        let producer = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                let mut pushed = 0u32;
                while pushed < 1000 {
                    if buf.push(flit(pushed, 0)) {
                        pushed += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                let mut expected = 0u32;
                while expected < 1000 {
                    buf.absorb_tail();
                    if let Some(f) = buf.pop_if(u64::MAX, |_| true) {
                        assert_eq!(f.seq, expected, "flits must arrive in order");
                        expected += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(buf.is_empty());
    }
}
