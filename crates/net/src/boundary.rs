//! Cross-shard boundary channels: lock-free SPSC mailboxes for flits and
//! credits crossing a cut link.
//!
//! When the sharded runtime (the `hornet-shard` crate) partitions the tiles of
//! a network across worker threads, every link whose endpoints land in
//! different shards — a *cut link* — is rewired. The downstream ingress VC
//! buffers stay entirely shard-local (they belong to their router, which
//! only the owning worker touches); in their place the upstream router's
//! egress port is given a [`BoundaryLink`] per virtual channel:
//!
//! * **flits** travel through a fixed-capacity lock-free SPSC ring
//!   ([`Spsc`]), written by the sender's negative clock edge and drained by
//!   the receiving worker at the top of each of its cycles. Each flit already
//!   carries its `visible_at` cycle stamp, so the receiver can consume
//!   *conservatively* (only flits whose stamp has come due) when bit-exact
//!   reproduction of the sequential schedule is required, or *greedily* under
//!   slack synchronization;
//! * **credits** return through a second SPSC ring of cycle-stamped
//!   [`CreditMsg`] records, emitted by the receiving worker after its negative
//!   edge (one message summarizing the flits its router drained that cycle)
//!   and folded into the sender-side `outstanding` counter before the
//!   sender's next positive edge.
//!
//! The sender's credit check — `free_space()` on the [`BoundaryLink`] — is a
//! single atomic load of `outstanding` (flits sent minus credits applied), so
//! cross-shard traffic never touches a lock of any kind, let alone a global
//! one. Because `outstanding` is only decremented *after* a credit message is
//! consumed, `flits-in-ring + flits-in-downstream-buffer ≤ capacity` holds at
//! all times; a ring sized to the VC capacity can therefore never overflow,
//! and a drained flit always fits in the downstream buffer.
//!
//! [`EgressChannel`] is what a router's egress port faces, per downstream
//! VC: either a *local* channel, which names the downstream (node, VC) in
//! the same pipeline sweep, or a [`BoundaryLink`] (cut links). Local
//! channels hold no handle to the buffer: the sweep resolves the name into
//! its flat push-target table when it is compiled, keeps the sender's
//! credit count for it, and applies pushes through the owning router (see
//! [`kernel`](crate::kernel)). A boundary channel keeps its own credit
//! count (`free_space()` above), so both see identical credit semantics.

use crate::flit::Flit;
use crate::ids::{Cycle, NodeId};
use crate::router::Router;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::spsc::Spsc;

/// A cycle-stamped credit return: `count` flits left the downstream ingress
/// buffer during the receiver's cycle `cycle`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CreditMsg {
    /// Receiver-local cycle whose negative edge freed the buffer slots.
    pub cycle: Cycle,
    /// Number of slots freed.
    pub count: u32,
}

/// One virtual channel of one *directed* cut link: the flit mailbox, the
/// credit mailbox, and the sender-side credit state.
#[derive(Debug)]
pub struct BoundaryLink {
    capacity: usize,
    /// Sender-side view of the downstream VC occupancy: flits pushed minus
    /// credits applied. Includes flits still in flight in the mailbox, which
    /// is exactly what makes the credit check conservative.
    outstanding: AtomicUsize,
    flits: Spsc<Flit>,
    credits: Spsc<CreditMsg>,
}

impl BoundaryLink {
    /// Creates a boundary link mirroring a downstream VC of `capacity` flits.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_resident(capacity, 0)
    }

    /// Creates a boundary link for a downstream VC that already holds
    /// `resident` flits (wiring mid-simulation): the sender's credit view
    /// must start at the real occupancy or it would oversubscribe the buffer
    /// and diverge from the sequential schedule.
    pub fn with_resident(capacity: usize, resident: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Self {
            capacity,
            outstanding: AtomicUsize::new(resident.min(capacity)),
            flits: Spsc::new(capacity),
            // One slot more than the credit count bound: in lock-step the
            // receiver's emission for cycle c+1 can race ahead of the
            // sender's consumption of the cycle-c message, so up to
            // `capacity + 1` messages may momentarily coexist. A full ring
            // would defer (and re-stamp) a credit, silently breaking strict
            //-mode bit-identity for capacity-1 VCs.
            credits: Spsc::new(capacity + 1),
        })
    }

    /// Downstream VC capacity, in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sender-side occupancy view (downstream-resident plus in-flight flits).
    pub fn occupancy(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Free space as seen by the sender's credit check.
    pub fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.occupancy())
    }

    /// Flits currently in flight in the mailbox (not yet drained by the
    /// receiver); used for idle detection at synchronization boundaries.
    pub fn in_flight(&self) -> usize {
        self.flits.len()
    }

    /// Sender side: sends a flit across the cut link. Returns `false` without
    /// sending if no credit is available (callers have already performed a
    /// credit check, so `false` indicates a flow-control bug upstream).
    #[must_use]
    pub fn push(&self, flit: Flit) -> bool {
        let prev = self.outstanding.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        // `outstanding ≤ capacity` now holds, which bounds ring occupancy by
        // `capacity`: this push cannot fail.
        let ok = self.flits.push(flit);
        debug_assert!(ok, "boundary flit ring overflow despite credit check");
        ok
    }

    /// Sender side: folds returned credits into the outstanding counter.
    /// With `limit = Some(c)` only credits stamped `≤ c` are consumed (the
    /// bit-exact schedule: the sender observes exactly the pops the global
    /// barrier would have made visible); with `None` every queued credit is
    /// consumed.
    pub fn apply_credits(&self, limit: Option<Cycle>) {
        while let Some(msg) = self.credits.pop_if(|m| limit.is_none_or(|c| m.cycle <= c)) {
            self.outstanding
                .fetch_sub(msg.count as usize, Ordering::AcqRel);
        }
    }

    /// Cumulative flits pushed into this link over its lifetime. Monotone;
    /// this is the sender-side `sent` count the credit-counting termination
    /// detector balances against the receiver's delivery count.
    pub fn flits_pushed(&self) -> u64 {
        self.flits.pushed()
    }

    // --- transport-side raw endpoints -----------------------------------
    //
    // The multi-process backends split one logical cut link into two local
    // half-links: an *outbound* half whose flit ring is drained to the wire
    // by a transport pump, and an *inbound* half whose flit ring is filled
    // from the wire. The pump plays the role of the remote peer, so it needs
    // ring access that bypasses the sender-side credit accounting (credits
    // are tracked end-to-end by the shard loops, not per hop).

    /// Transport pump (consumer side of an outbound half): drains every
    /// staged flit, in order, into `f`. Returns the number drained.
    pub fn drain_staged_flits(&self, mut f: impl FnMut(Flit)) -> usize {
        let mut n = 0;
        while let Some(flit) = self.flits.pop() {
            f(flit);
            n += 1;
        }
        n
    }

    /// Transport pump (producer side of an inbound half): appends a flit
    /// that arrived from the wire *without* touching the credit window — the
    /// end-to-end credit check already ran on the sending shard. Returns
    /// `false` if the ring is full (a protocol violation: end-to-end credits
    /// bound ring occupancy by its capacity).
    #[must_use]
    pub fn inject_flit(&self, flit: Flit) -> bool {
        self.flits.push(flit)
    }

    /// Transport pump (consumer side of an inbound half): takes one staged
    /// credit message for forwarding to the wire.
    pub fn take_staged_credit(&self) -> Option<CreditMsg> {
        self.credits.pop()
    }

    /// Transport pump (producer side of an outbound half): appends a credit
    /// message that arrived from the wire, to be folded in by the sender's
    /// next [`apply_credits`](Self::apply_credits). Returns `false` if the
    /// ring is full (retry after the shard loop drains it).
    #[must_use]
    pub fn inject_credit(&self, msg: CreditMsg) -> bool {
        self.credits.push(msg)
    }

    // --- checkpoint capture / restore ------------------------------------
    //
    // A checkpoint taken at a rendezvous cycle captures the raw channel
    // state as plain data; the serialization lives with the caller (the
    // shard snapshot module), keeping this module codec-free.

    /// Checkpoint capture: every flit currently staged in the mailbox, in
    /// FIFO order. Safe to call while the producer side is still live.
    pub fn staged_flit_snapshot(&self) -> Vec<Flit> {
        self.flits.snapshot()
    }

    /// Checkpoint capture: every credit message currently staged, in FIFO
    /// order.
    pub fn staged_credit_snapshot(&self) -> Vec<CreditMsg> {
        self.credits.snapshot()
    }

    /// Checkpoint restore of the *sender* side of a link (an outbound half
    /// under the multi-process backends): re-establishes the cumulative
    /// `pushed` cursor the credit-counting termination detector balances
    /// against, refills both rings with the checkpointed items and restores
    /// the sender's credit window.
    ///
    /// Must be called on a freshly created, never-used link.
    ///
    /// # Panics
    ///
    /// Panics if the link has already carried traffic or if the checkpointed
    /// items no longer fit (both indicate a corrupt checkpoint).
    pub fn restore_outbound(
        &self,
        pushed: u64,
        outstanding: usize,
        flits: &[Flit],
        credits: &[CreditMsg],
    ) {
        self.flits.rebase(pushed - flits.len() as u64);
        for &f in flits {
            assert!(self.flits.push(f), "checkpointed flit overflows the ring");
        }
        for &c in credits {
            assert!(
                self.credits.push(c),
                "checkpointed credit overflows the ring"
            );
        }
        self.outstanding
            .store(outstanding.min(self.capacity), Ordering::Release);
    }

    /// Checkpoint restore of the *receiver* side of a link (an inbound half
    /// under the multi-process backends): refills the mailbox with the flits
    /// that were in flight at the checkpoint. The fresh ring's zero cursor
    /// base is kept — receiver-side delivery totals are restored in the
    /// cycle driver, not here.
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed flits no longer fit.
    pub fn restore_inbound(&self, flits: &[Flit]) {
        for &f in flits {
            assert!(self.flits.push(f), "checkpointed flit overflows the ring");
        }
    }
}

/// The receiver-side endpoint of one boundary link: drains the flit mailbox
/// into the real (shard-local) ingress VC — VC `vc` of the router of tile
/// `tile`, an index into the owning shard's tile slice — and emits credits
/// for the flits that router has consumed. Owned by exactly one worker at a
/// time, which lends it the target router for each call.
#[derive(Debug)]
pub struct BoundaryRx {
    link: Arc<BoundaryLink>,
    tile: usize,
    vc: usize,
    /// Flits resident in the target VC when the link was wired (their pops
    /// must produce credits too, since they are part of the sender's initial
    /// `outstanding`).
    baseline: u64,
    /// Flits moved from the mailbox into the target VC so far.
    forwarded: u64,
    /// Credits successfully enqueued so far.
    credited: u64,
    /// Credits computed but not yet enqueued (ring momentarily full).
    pending: u64,
}

impl BoundaryRx {
    /// Receiver endpoints for every ingress VC that `router` — the router of
    /// the shard's tile number `tile` — receives from upstream node `from`,
    /// in VC order, each on a fresh link. A link's sender credit window
    /// starts at its VC's current occupancy: wiring may happen
    /// mid-simulation, with flits from a previous run still resident
    /// downstream. The sender's egress port takes the links
    /// ([`link`](Self::link)) as its boundary channels.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a neighbour of `router`.
    pub fn wire_from(router: &Router, from: NodeId, tile: usize) -> Vec<Self> {
        router
            .ingress_buffers_from(from)
            .map(|vc| {
                let link =
                    BoundaryLink::with_resident(router.vc_capacity(vc), router.vc_occupancy(vc));
                Self::new(link, tile, vc, router)
            })
            .collect()
    }

    /// Creates the receiver endpoint draining `link` into ingress VC `vc` of
    /// `router`, the router of the shard's tile number `tile`. The VC's
    /// current occupancy becomes the credit baseline and must match the
    /// `resident` count the link was created with.
    fn new(link: Arc<BoundaryLink>, tile: usize, vc: usize, router: &Router) -> Self {
        Self {
            link,
            tile,
            vc,
            baseline: router.vc_occupancy(vc) as u64,
            forwarded: 0,
            credited: 0,
            pending: 0,
        }
    }

    /// The shard-local tile whose router this endpoint feeds.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The ingress VC this endpoint feeds.
    pub fn vc(&self) -> usize {
        self.vc
    }

    /// Flits still in flight in the mailbox.
    pub fn in_flight(&self) -> usize {
        self.link.in_flight()
    }

    /// Cumulative flits moved out of the mailbox into the ingress buffer.
    /// Monotone; this is the receiver-side `recv` count the credit-counting
    /// termination detector balances against the sender's push count.
    pub fn delivered_total(&self) -> u64 {
        self.forwarded
    }

    /// The underlying link (for transports that pump the mailbox).
    pub fn link(&self) -> &Arc<BoundaryLink> {
        &self.link
    }

    /// Moves mailbox flits into the target VC of `router` (the router of
    /// [`tile`](Self::tile)). With `limit = Some(c)` only flits whose
    /// `visible_at ≤ c` are moved (flit stamps are nondecreasing, so this
    /// consumes exactly the prefix the sequential schedule would have
    /// delivered by cycle `c`); with `None` everything in the ring is moved.
    /// Returns the number of flits delivered.
    pub fn deliver(&mut self, router: &mut Router, limit: Option<Cycle>) -> usize {
        let vcs = &mut router.vcs;
        let mut moved = 0usize;
        while let Some(flit) = self
            .link
            .flits
            .pop_if(|f| limit.is_none_or(|c| f.visible_at <= c) && vcs.free_space(self.vc) > 0)
        {
            let ok = vcs.push(self.vc, flit);
            debug_assert!(ok, "boundary delivery overflowed the ingress buffer");
            self.forwarded += 1;
            moved += 1;
        }
        moved
    }

    /// Emits one cycle-stamped credit message covering every flit `router`
    /// has popped from the target VC since the last emission. Called after
    /// the shard's negative edge of cycle `now`.
    pub fn emit_credits(&mut self, router: &Router, now: Cycle) {
        let resident = router.vc_occupancy(self.vc) as u64;
        let freed = (self.baseline + self.forwarded).saturating_sub(resident);
        self.pending += freed.saturating_sub(self.credited + self.pending);
        if self.pending > 0 {
            let msg = CreditMsg {
                cycle: now,
                count: self.pending.min(u32::MAX as u64) as u32,
            };
            if self.link.credits.push(msg) {
                self.credited += msg.count as u64;
                self.pending -= msg.count as u64;
            }
        }
    }

    /// Checkpoint capture: credits computed but not yet on the wire. The
    /// rolled-back sender's `outstanding` still counts the flits they cover,
    /// so a restore must fold them back in via [`restore_owed`]
    /// (Self::restore_owed) or the link would leak credit window forever.
    pub fn owed_credits(&self) -> u64 {
        self.pending
    }

    /// Checkpoint restore: folds `owed` uncredited pops into the baseline of
    /// a freshly wired endpoint, so the first post-restore emission covers
    /// exactly the credits the (equally rolled-back) sender is still waiting
    /// for.
    pub fn restore_owed(&mut self, owed: u64) {
        self.baseline += owed;
    }

    /// Checkpoint restore: re-reads the credit baseline from the target VC
    /// of `router`. Endpoints are wired before the tile restore repopulates
    /// the buffers, so the baseline captured at construction is stale; call
    /// this afterwards, before [`restore_owed`](Self::restore_owed).
    pub fn reset_baseline(&mut self, router: &Router) {
        debug_assert_eq!(self.forwarded, 0, "reset_baseline on a used endpoint");
        self.baseline = router.vc_occupancy(self.vc) as u64;
    }

    /// Drains every remaining mailbox flit into the target VC of `router`
    /// (used when unwiring boundaries at the end of a parallel run; the
    /// credit invariant guarantees everything fits).
    pub fn flush(mut self, router: &mut Router) {
        self.deliver(router, None);
        debug_assert!(self.link.flits.is_empty(), "boundary flush left flits");
    }
}

/// What a router egress port pushes into, per downstream VC: a local
/// ingress VC in the same pipeline sweep (sequential and intra-shard links)
/// or a cross-shard [`BoundaryLink`]. The sweep keeps the credit count of
/// local channels (see [`kernel`](crate::kernel)); a boundary link keeps its
/// own.
#[derive(Clone, Debug)]
pub enum EgressChannel {
    /// Ingress VC `vc` of the router of `node`, holding `capacity` flits.
    Local {
        /// The downstream node.
        node: NodeId,
        /// The downstream router's VC number.
        vc: u32,
        /// The downstream VC's capacity, in flits.
        capacity: u32,
    },
    /// Cross-shard boundary mailbox.
    Boundary(Arc<BoundaryLink>),
}

impl EgressChannel {
    /// Local channels into VCs `vcs` (of `capacity` flits each) of the
    /// router of `node`.
    pub fn locals(node: NodeId, vcs: Range<usize>, capacity: usize) -> Vec<Self> {
        vcs.map(|vc| EgressChannel::Local {
            node,
            vc: vc as u32,
            capacity: capacity as u32,
        })
        .collect()
    }

    /// Downstream VC capacity, in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        match self {
            EgressChannel::Local { capacity, .. } => *capacity as usize,
            EgressChannel::Boundary(l) => l.capacity(),
        }
    }

    /// The boundary link, for a cut channel.
    #[inline]
    pub(crate) fn boundary(&self) -> Option<&Arc<BoundaryLink>> {
        match self {
            EgressChannel::Local { .. } => None,
            EgressChannel::Boundary(l) => Some(l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitStats};
    use crate::geometry::Geometry;
    use crate::ids::{FlowId, PacketId};
    use crate::router::RouterConfig;
    use crate::routing::{build_routing, RoutingKind};
    use crate::vca::{VcAllocKind, VcaPolicy};

    /// Router 0 of a two-node line whose one VC from node 1 (VC 0) holds
    /// `capacity` flits, plus a receiver endpoint feeding that VC from a
    /// fresh link.
    fn receiver(capacity: usize) -> (Router, Arc<BoundaryLink>, BoundaryRx) {
        let policies = build_routing(RoutingKind::Xy, &Geometry::line(2), &[]);
        let router = Router::new(
            NodeId::new(0),
            &[NodeId::new(1)],
            RouterConfig {
                vcs_per_port: 1,
                vc_capacity: capacity,
                ..RouterConfig::default()
            },
            policies[0].clone(),
            VcaPolicy::from_kind(VcAllocKind::Dynamic),
        );
        assert_eq!(router.ingress_buffers_from(NodeId::new(1)), 0..1);
        let link = BoundaryLink::new(capacity);
        let rx = BoundaryRx::new(Arc::clone(&link), 0, 0, &router);
        (router, link, rx)
    }

    /// The router consumes the head flit of VC 0.
    fn consume(router: &mut Router) {
        router.vcs.absorb(0);
        assert!(router.vcs.pop(0, u64::MAX).is_some());
    }

    fn flit(seq: u32, visible_at: Cycle) -> Flit {
        Flit {
            packet: PacketId::new(1),
            flow: FlowId::new(1),
            original_flow: FlowId::new(1),
            kind: FlitKind::Body,
            seq,
            packet_len: 8,
            dst: NodeId::new(1),
            src: NodeId::new(0),
            visible_at,
            stats: FlitStats::default(),
        }
    }

    #[test]
    fn spsc_is_a_bounded_fifo() {
        let ring: Spsc<u32> = Spsc::new(3);
        assert!(ring.push(1) && ring.push(2) && ring.push(3));
        assert!(!ring.push(4), "full ring must reject");
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pop(), Some(1));
        assert!(ring.push(4));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), Some(4));
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_pop_if_leaves_rejected_head_in_place() {
        let ring: Spsc<u32> = Spsc::new(2);
        assert!(ring.push(7));
        assert_eq!(ring.pop_if(|&v| v > 10), None);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop_if(|&v| v == 7), Some(7));
    }

    #[test]
    fn spsc_survives_concurrent_producer_consumer() {
        let ring = Arc::new(Spsc::<u32>::new(4));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sent = 0u32;
                while sent < 10_000 {
                    if ring.push(sent) {
                        sent += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expect = 0u32;
        while expect < 10_000 {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn boundary_credit_loop_round_trips() {
        let (mut router, link, mut rx) = receiver(2);

        // Sender fills its credit window.
        assert!(link.push(flit(0, 1)));
        assert!(link.push(flit(1, 1)));
        assert!(!link.push(flit(2, 1)), "no credit left");
        assert_eq!(link.free_space(), 0);
        assert_eq!(link.in_flight(), 2);

        // Receiver drains the mailbox into the real buffer.
        assert_eq!(rx.deliver(&mut router, Some(1)), 2);
        assert_eq!(router.vc_occupancy(0), 2);
        // Nothing popped yet: no credits flow, sender still blocked.
        rx.emit_credits(&router, 1);
        link.apply_credits(Some(1));
        assert_eq!(link.free_space(), 0);

        // The router consumes one flit; the credit returns.
        consume(&mut router);
        rx.emit_credits(&router, 2);
        link.apply_credits(Some(2));
        assert_eq!(link.free_space(), 1);
        assert!(link.push(flit(2, 3)));
    }

    #[test]
    fn strict_delivery_respects_cycle_stamps() {
        let (mut router, link, mut rx) = receiver(4);
        assert!(link.push(flit(0, 3)));
        assert!(link.push(flit(1, 5)));
        // At cycle 3 only the first flit is due.
        assert_eq!(rx.deliver(&mut router, Some(3)), 1);
        assert_eq!(link.in_flight(), 1);
        // At cycle 5 the rest follows.
        assert_eq!(rx.deliver(&mut router, Some(5)), 1);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn strict_credit_application_respects_cycle_stamps() {
        let (mut router, link, mut rx) = receiver(4);
        assert!(link.push(flit(0, 1)));
        rx.deliver(&mut router, None);
        consume(&mut router);
        rx.emit_credits(&router, 7);
        // The credit is stamped cycle 7: invisible at 6, visible at 7.
        link.apply_credits(Some(6));
        assert_eq!(link.occupancy(), 1);
        link.apply_credits(Some(7));
        assert_eq!(link.occupancy(), 0);
    }

    #[test]
    fn flush_moves_every_leftover_flit() {
        let (mut router, link, rx) = receiver(3);
        assert!(link.push(flit(0, 100)));
        assert!(link.push(flit(1, 200)));
        rx.flush(&mut router);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(router.vc_occupancy(0), 2);
        assert_eq!(router.buffered_flits(), 2);
    }
}
