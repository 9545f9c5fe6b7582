//! The ingress virtual-channel buffers of one router, owned by that router.
//!
//! As in the paper (§II-C), each VC buffer has a producer (tail) end written
//! by the *upstream* router and a consumer (head) end read by the
//! *downstream* router; these buffers are the only points where two tiles
//! communicate.
//!
//! # Ownership
//!
//! Every buffer has exactly one owner: the router it feeds. Nothing else
//! holds a handle to it. The producers reach a buffer by index, through the
//! owning router:
//!
//! * the upstream router's negative edge, through the pipeline sweep
//!   ([`kernel`](crate::kernel)), which names the downstream buffer as
//!   (tile, VC) and applies the push after the upstream tile's router half;
//! * the local bridge, which the tile lends its router's injection rings;
//! * a shard's boundary receiver, which the shard lends the target tile's
//!   router.
//!
//! Each backend drives both ends of every in-shard buffer from one thread:
//! the sharded runtimes rewire every cut link onto [`boundary`] mailboxes,
//! which are the only structures two threads share. So no cursor needs an
//! atomic, no slot needs interior mutability, and a router's buffers are
//! plain data that snapshots, restores and debug checks read directly.
//!
//! [`boundary`]: crate::boundary
//!
//! # Storage
//!
//! All rings of a router live in one contiguous flit array, allocated when
//! the router is built, so steady-state operation never touches the heap.
//! Each VC has a compact cursor record: where its ring starts in the array,
//! its capacity, the slot of its head flit, the *absorb boundary* and the
//! number of resident flits. Flits at the head up to the absorb boundary are
//! visible to the owner's pipeline stages; flits deposited since the last
//! [`absorb`](VcRings::absorb) are resident (they occupy space and count
//! against the upstream's credit) but not yet visible. The router-wide
//! resident count is one plain counter, so idle checks are O(1).

use crate::flit::{Flit, FlitKind, FlitStats};
use crate::ids::{Cycle, FlowId, NodeId, PacketId};

/// What an unused ring slot holds; never read as a flit.
const EMPTY_SLOT: Flit = Flit {
    packet: PacketId::new(0),
    flow: FlowId::new(0),
    original_flow: FlowId::new(0),
    kind: FlitKind::Body,
    seq: 0,
    packet_len: 0,
    dst: NodeId::new(0),
    src: NodeId::new(0),
    visible_at: 0,
    stats: FlitStats {
        injected_at: 0,
        arrived_at_current: 0,
        accumulated_latency: 0,
        hops: 0,
    },
};

/// Cursor record of one VC ring (20 bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cursor {
    /// Index of the ring's first slot in the flit array.
    base: u32,
    /// Ring length, in flits.
    capacity: u32,
    /// Ring slot of the head flit (the read position).
    head: u32,
    /// Absorbed flits from the head on (the absorb boundary).
    visible: u32,
    /// Resident flits from the head on, absorbed or not (the write position).
    len: u32,
}

impl Cursor {
    /// Array index of the flit `offset` places behind the head.
    #[inline]
    fn slot(&self, offset: u32) -> usize {
        let mut at = self.head + offset;
        if at >= self.capacity {
            at -= self.capacity;
        }
        (self.base + at) as usize
    }
}

/// The ingress VC rings of one router (see the module docs), numbered in
/// the order [`with_capacities`](Self::with_capacities) lists them.
pub struct VcRings {
    flits: Vec<Flit>,
    cursors: Vec<Cursor>,
    /// Flits resident across all rings.
    buffered: usize,
}

impl std::fmt::Debug for VcRings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcRings")
            .field("vcs", &self.cursors.len())
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl VcRings {
    /// Rings with the given capacities, numbered in order, in one flit
    /// array allocated to fit.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is zero or the rings hold more than `u32::MAX`
    /// flits in total.
    pub fn with_capacities(capacities: impl IntoIterator<Item = usize>) -> Self {
        let mut total = 0u32;
        let cursors: Vec<Cursor> = capacities
            .into_iter()
            .map(|capacity| {
                assert!(
                    capacity > 0,
                    "a VC buffer needs capacity for at least one flit"
                );
                let capacity = u32::try_from(capacity).expect("VC capacity fits u32");
                let base = total;
                total = total
                    .checked_add(capacity)
                    .expect("VC rings exceed u32::MAX flits");
                Cursor {
                    base,
                    capacity,
                    ..Cursor::default()
                }
            })
            .collect();
        Self {
            flits: vec![EMPTY_SLOT; total as usize],
            cursors,
            buffered: 0,
        }
    }

    /// Number of VCs.
    pub fn vc_count(&self) -> usize {
        self.cursors.len()
    }

    /// Capacity of VC `vc`, in flits.
    #[inline]
    pub fn capacity(&self, vc: usize) -> usize {
        self.cursors[vc].capacity as usize
    }

    /// Flits resident in VC `vc`, absorbed or not. This is what the
    /// upstream's credit count mirrors.
    #[inline]
    pub fn occupancy(&self, vc: usize) -> usize {
        self.cursors[vc].len as usize
    }

    /// Free space of VC `vc`, in flits.
    #[inline]
    pub fn free_space(&self, vc: usize) -> usize {
        let c = &self.cursors[vc];
        (c.capacity - c.len) as usize
    }

    /// Flits resident across all VCs. O(1).
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Flits of VC `vc` deposited since its last absorb.
    pub fn unabsorbed(&self, vc: usize) -> usize {
        let c = &self.cursors[vc];
        (c.len - c.visible) as usize
    }

    /// Deposits a flit at the tail of VC `vc`. Returns `false` (and stores
    /// nothing) if the ring is full; producers check credit first, so a
    /// `false` return is a flow-control bug the caller counts.
    #[must_use]
    #[inline]
    pub fn push(&mut self, vc: usize, flit: Flit) -> bool {
        let c = &mut self.cursors[vc];
        if c.len == c.capacity {
            return false;
        }
        let at = c.slot(c.len);
        c.len += 1;
        self.flits[at] = flit;
        self.buffered += 1;
        true
    }

    /// Moves the absorb boundary of VC `vc` past every deposited flit, making
    /// them visible to [`head`](Self::head) and [`pop`](Self::pop). Returns
    /// the number of flits absorbed.
    #[inline]
    pub fn absorb(&mut self, vc: usize) -> usize {
        let c = &mut self.cursors[vc];
        let absorbed = c.len - c.visible;
        c.visible = c.len;
        absorbed as usize
    }

    /// The head flit of VC `vc` if it is inside the absorb boundary,
    /// regardless of its `visible_at` stamp (callers check the stamp).
    #[inline]
    pub fn head(&self, vc: usize) -> Option<&Flit> {
        let c = &self.cursors[vc];
        (c.visible > 0).then(|| &self.flits[c.slot(0)])
    }

    /// Pops the head flit of VC `vc` if it is inside the absorb boundary and
    /// its `visible_at` stamp has come due by `now`.
    #[inline]
    pub fn pop(&mut self, vc: usize, now: Cycle) -> Option<Flit> {
        let c = &mut self.cursors[vc];
        if c.visible == 0 {
            return None;
        }
        let flit = self.flits[c.slot(0)];
        if flit.visible_at > now {
            return None;
        }
        c.head = if c.head + 1 == c.capacity {
            0
        } else {
            c.head + 1
        };
        c.visible -= 1;
        c.len -= 1;
        self.buffered -= 1;
        Some(flit)
    }

    /// A copy of VC `vc`'s contents split at the absorb boundary:
    /// `(visible, pending)`, each in FIFO order.
    pub fn snapshot_split(&self, vc: usize) -> (Vec<Flit>, Vec<Flit>) {
        let c = &self.cursors[vc];
        let run = |range: std::ops::Range<u32>| range.map(|i| self.flits[c.slot(i)]).collect();
        (run(0..c.visible), run(c.visible..c.len))
    }

    /// Refills the empty VC `vc` with the contents captured by
    /// [`snapshot_split`](Self::snapshot_split): the `visible` run is
    /// deposited and absorbed, the `pending` run deposited but left
    /// unabsorbed, so the cursors land where the snapshot's were (up to the
    /// ring's rotation, which nothing observes).
    ///
    /// # Panics
    ///
    /// Panics if the VC is not empty or the snapshot exceeds its capacity.
    pub fn restore_split(&mut self, vc: usize, visible: &[Flit], pending: &[Flit]) {
        assert_eq!(self.occupancy(vc), 0, "restore into a non-empty VC buffer");
        for f in visible {
            assert!(self.push(vc, *f), "snapshot exceeds VC buffer capacity");
        }
        self.absorb(vc);
        for f in pending {
            assert!(self.push(vc, *f), "snapshot exceeds VC buffer capacity");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u32, visible_at: Cycle) -> Flit {
        Flit {
            seq,
            visible_at,
            ..EMPTY_SLOT
        }
    }

    #[test]
    fn push_respects_capacity() {
        let mut rings = VcRings::with_capacities([2]);
        assert!(rings.push(0, flit(0, 0)));
        assert!(rings.push(0, flit(1, 0)));
        assert!(!rings.push(0, flit(2, 0)));
        assert_eq!(rings.occupancy(0), 2);
        assert_eq!(rings.free_space(0), 0);
    }

    #[test]
    fn fifo_order_preserved_across_absorb() {
        let mut rings = VcRings::with_capacities([8]);
        for i in 0..4 {
            assert!(rings.push(0, flit(i, 0)));
        }
        assert_eq!(rings.absorb(0), 4);
        for i in 0..4 {
            assert_eq!(rings.pop(0, 10).expect("flit present").seq, i);
        }
        assert_eq!(rings.buffered(), 0);
    }

    #[test]
    fn visibility_timestamp_hides_future_flits() {
        let mut rings = VcRings::with_capacities([4]);
        assert!(rings.push(0, flit(0, 5)));
        rings.absorb(0);
        assert!(rings.pop(0, 4).is_none());
        assert_eq!(rings.occupancy(0), 1);
        assert!(rings.pop(0, 5).is_some());
    }

    #[test]
    fn head_respects_absorb_boundary() {
        let mut rings = VcRings::with_capacities([8]);
        assert!(rings.push(0, flit(0, 7)));
        // Deposited but not absorbed: no head yet, but it occupies space.
        assert!(rings.head(0).is_none());
        assert_eq!((rings.occupancy(0), rings.unabsorbed(0)), (1, 1));
        assert_eq!(rings.absorb(0), 1);
        // Absorbed: visible regardless of the `visible_at` stamp.
        assert_eq!(rings.head(0).unwrap().seq, 0);
        assert!(rings.push(0, flit(1, 7)));
        assert_eq!(rings.unabsorbed(0), 1, "a push never moves the boundary");
        assert!(rings.pop(0, 7).is_some());
        assert!(rings.head(0).is_none(), "the next flit is not absorbed");
    }

    #[test]
    fn rings_share_storage_without_interfering() {
        let mut rings = VcRings::with_capacities([3, 1, 2]);
        let mut next = [0u32; 3];
        let mut expect = [0u32; 3];
        for _ in 0..50 {
            for (vc, next) in next.iter_mut().enumerate() {
                while rings.push(vc, flit(*next * 3 + vc as u32, 0)) {
                    *next += 1;
                }
            }
            assert_eq!(rings.buffered(), 6);
            for (vc, expect) in expect.iter_mut().enumerate() {
                rings.absorb(vc);
                while let Some(f) = rings.pop(vc, u64::MAX) {
                    assert_eq!(f.seq, *expect * 3 + vc as u32);
                    *expect += 1;
                }
            }
        }
        assert_eq!(next, expect);
        assert_eq!(next, [150, 50, 100], "every ring wrapped many times");
    }

    #[test]
    fn snapshot_split_round_trips_across_a_wrap() {
        let mut rings = VcRings::with_capacities([3, 3]);
        for i in 0..2 {
            assert!(rings.push(1, flit(i, 0)));
        }
        rings.absorb(1);
        assert!(rings.pop(1, 0).is_some());
        for i in 2..4 {
            assert!(rings.push(1, flit(i, 0)));
        }
        rings.absorb(1);
        assert!(rings.pop(1, 0).is_some());
        assert!(rings.push(1, flit(4, 0)));
        // Ring slots now hold 3, 4, 2 with the head at slot 2.
        let (visible, pending) = rings.snapshot_split(1);
        let seqs = |fs: &[Flit]| fs.iter().map(|f| f.seq).collect::<Vec<_>>();
        assert_eq!((seqs(&visible), seqs(&pending)), (vec![2, 3], vec![4]));

        let mut fresh = VcRings::with_capacities([3, 3]);
        fresh.restore_split(1, &visible, &pending);
        assert_eq!(fresh.snapshot_split(1), (visible, pending));
        assert_eq!((fresh.unabsorbed(1), fresh.buffered()), (1, 3));
    }
}
