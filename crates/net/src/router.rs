//! The cycle-level ingress-queued virtual-channel wormhole router.
//!
//! Packets arrive flit-by-flit on ingress ports and are buffered in ingress VC
//! buffers. When the head flit of a packet reaches the head of its VC buffer
//! the packet enters the route-computation (RC) stage; it then waits in the
//! VC-allocation (VA) stage for a next-hop virtual channel; finally each flit
//! competes in switch arbitration (SA) for the crossbar and traverses it in
//! the switch-traversal (ST) stage. RC and VA act once per packet; SA and ST
//! act per flit. Arbitration ties are broken randomly (per-tile PRNG) to avoid
//! the pathological interactions between regular traffic and deterministic
//! arbiters described in the paper (§II-A5).
//!
//! Every cycle is split into a positive edge, when all decisions are computed
//! from the state made visible at the previous negative edge, and a negative
//! edge, when the staged flit movements are applied. This faithfully models
//! the parallelism of synchronous hardware and is what makes cycle-accurate
//! parallel simulation bit-identical to sequential simulation.
//!
//! This module holds a router's state; the stages themselves run in the
//! stage-major sweep of [`kernel`](crate::kernel), which drives every router
//! of a tile set through absorb → SA → VA → RC and the negative edge.
//!
//! # State layout
//!
//! All per-VC state is flat, indexed by the router's *VC number*: ingress
//! ports in order, and each port's VCs in order within it. Next to it live
//! the **predicate masks** (`VcMasks`), one bit per VC, 64 VCs per word:
//! head flit cached, `Routed`, `Active` and `Dropping`. Every change to a
//! VC's state or cached head goes through `Router::set_state` /
//! `Router::set_head`, which keep the masks exact, so each stage collects
//! its candidates by walking mask bits instead of scanning every VC. The
//! masks are derived state: snapshots exclude them and a restore rebuilds
//! them.
//!
//! # Hot-path discipline
//!
//! A steady-state simulated cycle performs **no heap allocation** and **no
//! lock acquisitions**: every VC buffer is a lock-free single-producer /
//! single-consumer ring ([`VcBuffer`]), so absorbing, peeking and popping
//! are a handful of atomic loads and stores, and the router-wide idle check
//! reads one aggregate atomic ([`buffered_flits`] is O(1), feeding the
//! engine's idle / fast-forward boundary checks).
//!
//! [`buffered_flits`]: Router::buffered_flits

use crate::boundary::EgressChannel;
use crate::codec::{self, Dec, Enc};
use crate::flit::Flit;
use crate::ids::{Cycle, FlowId, NodeId, PacketId};
use crate::link::BidirLink;
use crate::routing::RoutingPolicy;
use crate::stats::NetworkStats;
use crate::vca::VcaPolicy;
use crate::vcbuf::VcBuffer;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Structural parameters of one router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual channels per router-facing port.
    pub vcs_per_port: usize,
    /// Depth of each router-facing VC buffer, in flits.
    pub vc_capacity: usize,
    /// Virtual channels on the CPU-facing (injection) port.
    pub injection_vcs: usize,
    /// Depth of each injection VC buffer, in flits.
    pub injection_vc_capacity: usize,
    /// Link bandwidth in flits per cycle per direction.
    pub link_bandwidth: u32,
    /// Ejection (network→CPU) bandwidth in flits per cycle.
    pub ejection_bandwidth: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            vcs_per_port: 4,
            vc_capacity: 4,
            injection_vcs: 4,
            injection_vc_capacity: 8,
            link_bandwidth: 1,
            ejection_bandwidth: 1,
        }
    }
}

/// Receiver-side state of one ingress virtual channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet is being routed through this VC.
    Idle,
    /// Route computed; waiting for a next-hop VC.
    Routed { egress: usize, next_flow: FlowId },
    /// Next-hop VC allocated; flits may compete for the crossbar.
    Active {
        egress: usize,
        out_vc: usize,
        next_flow: FlowId,
    },
    /// The packet could not be routed and its flits are being discarded.
    Dropping,
}

/// One 64-VC word of a router's pipeline predicate masks: bit `b` of word
/// `w` describes VC number `64 * w + b`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VcMasks {
    /// The VC's cached head flit is present.
    pub(crate) head: u64,
    /// The VC is `Routed`.
    pub(crate) routed: u64,
    /// The VC is `Active`.
    pub(crate) active: u64,
    /// The VC is `Dropping`.
    pub(crate) dropping: u64,
}

/// Sender-side record of one downstream virtual channel.
#[derive(Clone, Debug, Default)]
pub(crate) struct OutVcState {
    /// Packet currently allocated to the downstream VC, if any.
    pub(crate) owner: Option<PacketId>,
    /// Flow whose flits were last sent into the downstream VC (consulted by
    /// EDVCA / FAA).
    pub(crate) resident_flow: Option<FlowId>,
}

/// One egress port: the downstream channels (shared ingress buffers, or
/// boundary mailboxes when the link is cut between two shards) plus
/// sender-side allocation state.
#[derive(Debug)]
pub(crate) struct EgressPort {
    pub(crate) downstream: NodeId,
    pub(crate) buffers: Vec<EgressChannel>,
    pub(crate) out_state: Vec<OutVcState>,
    /// Bandwidth-adaptive link shared with the neighbour, if enabled.
    pub(crate) bidir: Option<(Arc<BidirLink>, usize)>,
}

/// A flit movement decided at the positive edge and applied at the negative
/// edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StagedMove {
    /// VC number of the ingress VC the flit leaves.
    pub(crate) vc: usize,
    pub(crate) egress: usize,
    pub(crate) out_vc: usize,
    pub(crate) next_flow: FlowId,
}

/// The cycle-level router model for one node.
#[derive(Debug)]
pub struct Router {
    pub(crate) node: NodeId,
    pub(crate) cfg: RouterConfig,
    pub(crate) routing: RoutingPolicy,
    pub(crate) vca: VcaPolicy,
    /// Upstream node of each ingress port (the local injection port's
    /// upstream is this node).
    pub(crate) upstream: Vec<NodeId>,
    /// First VC number of each ingress port, plus the total VC count.
    ingress_offsets: Vec<usize>,
    // --- per-VC state, indexed by VC number (see the module docs) ---
    /// Ingress VC buffers (shared with the upstream router or bridge).
    pub(crate) vcs: Vec<Arc<VcBuffer>>,
    /// Ingress port of each VC.
    pub(crate) vc_port: Vec<u32>,
    /// Receiver-side state machine of each VC; written only by
    /// [`set_state`](Self::set_state).
    vc_state: Vec<VcState>,
    /// Snapshot of each VC's head flit, refreshed when a VC is absorbed or
    /// popped, so RC/VA/SA never touch the buffer; written only by
    /// [`set_head`](Self::set_head).
    head_cache: Vec<Option<Flit>>,
    /// Predicate masks over the VCs, one word per 64 VCs.
    pub(crate) masks: Vec<VcMasks>,
    pub(crate) egress: Vec<EgressPort>,
    /// Downstream node of each egress port, packed flat for the egress
    /// lookup: routers have at most a handful of ports, so a linear scan of
    /// this compact array beats both a HashMap (hashing, allocation) and a
    /// node-indexed dense table (O(network size) memory per router).
    egress_nodes: Vec<NodeId>,
    /// Index of the local injection ingress port.
    pub(crate) injection_port: usize,
    /// Index of the local ejection egress port.
    pub(crate) ejection_port: usize,
    /// Total flits resident in this router's ingress buffers; every ingress
    /// `VcBuffer` reports into it, making [`buffered_flits`](Self::buffered_flits)
    /// and the engine's idle checks O(1).
    buffered: Arc<AtomicUsize>,
    pub(crate) staged: Vec<StagedMove>,
    /// VC numbers whose head flit is discarded at the negative edge.
    pub(crate) staged_drops: Vec<usize>,
    pub(crate) delivered: Vec<Flit>,
    pub(crate) stats: NetworkStats,
    pub(crate) cycle: Cycle,
}

impl Router {
    /// Creates a router for `node` with one ingress/egress port pair per
    /// neighbour (in the order given) plus one CPU-facing port pair.
    ///
    /// The router owns its ingress buffers; call
    /// [`ingress_buffers_from`](Self::ingress_buffers_from) on the *neighbour*
    /// routers and connect them with [`connect_egress`](Self::connect_egress)
    /// to wire the network together (the [`network`](crate::network) module
    /// does this automatically).
    pub fn new(
        node: NodeId,
        neighbors: &[NodeId],
        cfg: RouterConfig,
        routing: RoutingPolicy,
        vca: VcaPolicy,
    ) -> Self {
        let buffered = Arc::new(AtomicUsize::new(0));
        let mut upstream: Vec<NodeId> = neighbors.to_vec();
        upstream.push(node);
        let injection_port = upstream.len() - 1;

        let mut ingress_offsets = vec![0];
        let mut vcs = Vec::new();
        let mut vc_port = Vec::new();
        for p in 0..upstream.len() {
            let (count, capacity) = if p == injection_port {
                (cfg.injection_vcs, cfg.injection_vc_capacity)
            } else {
                (cfg.vcs_per_port, cfg.vc_capacity)
            };
            for _ in 0..count {
                vcs.push(Arc::new(VcBuffer::with_aggregate(
                    capacity,
                    Arc::clone(&buffered),
                )));
                vc_port.push(p as u32);
            }
            ingress_offsets.push(vcs.len());
        }

        let mut egress = Vec::with_capacity(neighbors.len() + 1);
        let egress_nodes: Vec<NodeId> = neighbors.to_vec();
        for &nb in neighbors {
            egress.push(EgressPort {
                downstream: nb,
                buffers: Vec::new(),
                out_state: Vec::new(),
                bidir: None,
            });
        }
        // Ejection port: flits leaving the network toward the local agent.
        egress.push(EgressPort {
            downstream: node,
            buffers: Vec::new(),
            out_state: vec![OutVcState::default()],
            bidir: None,
        });
        let ejection_port = egress.len() - 1;

        let total_vcs = vcs.len();
        Self {
            node,
            cfg,
            routing,
            vca,
            upstream,
            ingress_offsets,
            vcs,
            vc_port,
            vc_state: vec![VcState::Idle; total_vcs],
            head_cache: vec![None; total_vcs],
            masks: vec![VcMasks::default(); total_vcs.div_ceil(64)],
            egress,
            egress_nodes,
            injection_port,
            ejection_port,
            buffered,
            staged: Vec::new(),
            staged_drops: Vec::new(),
            delivered: Vec::new(),
            stats: NetworkStats::new(),
            cycle: 0,
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The egress port index toward neighbour `to`: a linear scan of the
    /// compact per-port node array (routers have at most a handful of ports,
    /// so this is faster than hashing and needs O(degree) memory).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this router.
    #[inline]
    pub(crate) fn egress_of(&self, to: NodeId) -> usize {
        self.egress_nodes
            .iter()
            .position(|&n| n == to)
            .unwrap_or_else(|| panic!("{to} is not downstream of {}", self.node))
    }

    /// The VCs of ingress port `port`.
    fn port_vcs(&self, port: usize) -> &[Arc<VcBuffer>] {
        &self.vcs[self.ingress_offsets[port]..self.ingress_offsets[port + 1]]
    }

    /// The ingress VC buffers facing upstream node `from`; the network builder
    /// hands these to `from`'s router via [`connect_egress`](Self::connect_egress).
    ///
    /// Returns a borrowed slice — build and partition paths that only inspect
    /// the buffers pay no allocation; callers that need owned handles clone
    /// the individual `Arc`s (or `.to_vec()` the slice).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a neighbour of this router.
    pub fn ingress_buffers_from(&self, from: NodeId) -> &[Arc<VcBuffer>] {
        let port = self.upstream[..self.injection_port]
            .iter()
            .position(|&u| u == from)
            .unwrap_or_else(|| panic!("{from} is not upstream of {}", self.node));
        self.port_vcs(port)
    }

    /// The local injection VC buffers (used by the bridge to inject flits).
    /// Borrowed; clone the `Arc`s for owned handles.
    pub fn injection_buffers(&self) -> &[Arc<VcBuffer>] {
        self.port_vcs(self.injection_port)
    }

    /// Wires the egress port toward `to` with the downstream ingress buffers
    /// owned by `to`'s router.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this router.
    pub fn connect_egress(&mut self, to: NodeId, buffers: Vec<Arc<VcBuffer>>) {
        let idx = self.egress_of(to);
        self.egress[idx].out_state = vec![OutVcState::default(); buffers.len()];
        self.egress[idx].buffers = buffers.into_iter().map(EgressChannel::Local).collect();
    }

    /// Swaps the downstream channels of the egress port toward `to`,
    /// returning the previous ones. Used by the sharded runtime to replace
    /// the shared ingress buffers of a cut link with boundary mailboxes (and
    /// back). When the channel count is unchanged, the sender-side VC
    /// allocation state (`owner` / `resident_flow`) is preserved, so swapping
    /// mid-simulation does not perturb allocation decisions.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this router.
    pub fn swap_egress_channels(
        &mut self,
        to: NodeId,
        channels: Vec<EgressChannel>,
    ) -> Vec<EgressChannel> {
        let idx = self.egress_of(to);
        if self.egress[idx].out_state.len() != channels.len() {
            self.egress[idx].out_state = vec![OutVcState::default(); channels.len()];
        }
        std::mem::replace(&mut self.egress[idx].buffers, channels)
    }

    /// The router-facing neighbours of this router, in egress-port order.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.egress_nodes
    }

    /// True if a bandwidth-adaptive bidirectional link is attached toward
    /// `to`. The sharded runtime uses this to detect cut links whose demand
    /// arbitration needs stricter phase ordering.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this router.
    pub fn has_bidir_toward(&self, to: NodeId) -> bool {
        self.egress[self.egress_of(to)].bidir.is_some()
    }

    /// Attaches a bandwidth-adaptive bidirectional link toward `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this router.
    pub fn attach_bidir_link(&mut self, to: NodeId, link: Arc<BidirLink>, direction: usize) {
        let idx = self.egress_of(to);
        self.egress[idx].bidir = Some((link, direction));
    }

    /// Immutable access to the per-router statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Mutable access to the per-router statistics (the bridge records
    /// injection and delivery counts here).
    pub fn stats_mut(&mut self) -> &mut NetworkStats {
        &mut self.stats
    }

    /// Number of flits currently buffered in this router's ingress VCs. O(1):
    /// a single load of the aggregate counter every ingress buffer updates.
    #[inline]
    pub fn buffered_flits(&self) -> usize {
        self.buffered.load(Ordering::Acquire)
    }

    /// True if no flit is buffered here. O(1).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.buffered_flits() == 0
    }

    /// The router's current local cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Sets the local clock (used by fast-forwarding).
    pub fn set_cycle(&mut self, cycle: Cycle) {
        self.cycle = cycle;
    }

    /// The delivered-flit queue and the statistics, borrowed together so the
    /// bridge can drain deliveries in place (keeping the queue's allocation)
    /// while recording stats.
    pub fn delivered_and_stats_mut(&mut self) -> (&mut Vec<Flit>, &mut NetworkStats) {
        (&mut self.delivered, &mut self.stats)
    }

    pub(crate) fn egress_bandwidth(&self, egress: usize) -> u32 {
        if egress == self.ejection_port {
            return self.cfg.ejection_bandwidth;
        }
        match &self.egress[egress].bidir {
            Some((link, dir)) => link.bandwidth_for(*dir),
            None => self.cfg.link_bandwidth,
        }
    }

    /// The state of VC `vc`.
    #[inline]
    pub(crate) fn vc_state(&self, vc: usize) -> VcState {
        self.vc_state[vc]
    }

    /// Sets the state of VC `vc`, keeping the state masks exact.
    #[inline]
    pub(crate) fn set_state(&mut self, vc: usize, state: VcState) {
        self.vc_state[vc] = state;
        let bit = 1u64 << (vc & 63);
        let m = &mut self.masks[vc >> 6];
        m.routed &= !bit;
        m.active &= !bit;
        m.dropping &= !bit;
        match state {
            VcState::Idle => {}
            VcState::Routed { .. } => m.routed |= bit,
            VcState::Active { .. } => m.active |= bit,
            VcState::Dropping => m.dropping |= bit,
        }
    }

    /// The cached head flit of VC `vc` (ignoring its visibility stamp).
    #[inline]
    pub(crate) fn head(&self, vc: usize) -> Option<&Flit> {
        self.head_cache[vc].as_ref()
    }

    /// Sets the cached head flit of VC `vc`, keeping the head mask exact.
    #[inline]
    pub(crate) fn set_head(&mut self, vc: usize, head: Option<Flit>) {
        let bit = 1u64 << (vc & 63);
        let m = &mut self.masks[vc >> 6];
        if head.is_some() {
            m.head |= bit;
        } else {
            m.head &= !bit;
        }
        self.head_cache[vc] = head;
    }

    /// The predicate masks recomputed from scratch from the VC states and
    /// the head cache; [`masks`](Self::masks) must always equal this.
    pub(crate) fn derived_masks(&self) -> Vec<VcMasks> {
        let mut out = vec![VcMasks::default(); self.masks.len()];
        for (vc, (state, head)) in self.vc_state.iter().zip(&self.head_cache).enumerate() {
            let (m, bit) = (&mut out[vc >> 6], 1u64 << (vc & 63));
            if head.is_some() {
                m.head |= bit;
            }
            match state {
                VcState::Idle => {}
                VcState::Routed { .. } => m.routed |= bit,
                VcState::Active { .. } => m.active |= bit,
                VcState::Dropping => m.dropping |= bit,
            }
        }
        out
    }
}

fn vc_state_snapshot(e: &mut Enc, s: &VcState) {
    match *s {
        VcState::Idle => {
            e.u8(0);
        }
        VcState::Routed { egress, next_flow } => {
            e.u8(1).u32(egress as u32);
            codec::encode_flow(e, next_flow);
        }
        VcState::Active {
            egress,
            out_vc,
            next_flow,
        } => {
            e.u8(2).u32(egress as u32).u32(out_vc as u32);
            codec::encode_flow(e, next_flow);
        }
        VcState::Dropping => {
            e.u8(3);
        }
    }
}

fn vc_state_restore(d: &mut Dec) -> std::io::Result<VcState> {
    Ok(match d.u8()? {
        0 => VcState::Idle,
        1 => VcState::Routed {
            egress: d.u32()? as usize,
            next_flow: codec::decode_flow(d)?,
        },
        2 => VcState::Active {
            egress: d.u32()? as usize,
            out_vc: d.u32()? as usize,
            next_flow: codec::decode_flow(d)?,
        },
        3 => VcState::Dropping,
        t => return Err(corrupt(&format!("bad VC state tag {t}"))),
    })
}

fn corrupt(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("router checkpoint: {what}"),
    )
}

/// Decodes a length-prefixed flit run.
fn decode_flits(d: &mut Dec) -> std::io::Result<Vec<Flit>> {
    let n = d.count(codec::FLIT_WIRE_BYTES)?;
    (0..n).map(|_| codec::decode_flit(d)).collect()
}

/// Checkpoint capture / restore.
///
/// The snapshot covers the *architectural* state: the clock, the statistics,
/// every ingress VC buffer (split at its absorb boundary so the restored
/// cursors land exactly where the originals were), the per-VC receiver state
/// machines, the sender-side downstream VC allocations and any flits parked
/// in the local delivery queue. Derived state (head cache, predicate masks,
/// staged moves) is deliberately excluded: a restore clears the head cache
/// and rebuilds the masks, and the pipeline sweep compiled afterwards
/// re-absorbs every VC.
impl Router {
    /// Serializes this router's architectural state. Must be called between
    /// cycles (no staged moves outstanding).
    pub fn snapshot(&self, e: &mut Enc) {
        debug_assert!(self.staged.is_empty(), "snapshot mid-cycle");
        e.u64(self.cycle);
        codec::encode_stats(e, &self.stats);
        e.u32(self.upstream.len() as u32);
        for port in self.ingress_offsets.windows(2) {
            e.u32((port[1] - port[0]) as u32);
            for vc in port[0]..port[1] {
                vc_state_snapshot(e, &self.vc_state[vc]);
                let (visible, pending) = self.vcs[vc].snapshot_split();
                e.u32(visible.len() as u32);
                for f in &visible {
                    codec::encode_flit(e, f);
                }
                e.u32(pending.len() as u32);
                for f in &pending {
                    codec::encode_flit(e, f);
                }
            }
        }
        e.u32(self.egress.len() as u32);
        for port in &self.egress {
            e.u32(port.out_state.len() as u32);
            for out in &port.out_state {
                match out.owner {
                    Some(p) => e.u8(1).u64(p.raw()),
                    None => e.u8(0),
                };
                match out.resident_flow {
                    Some(f) => {
                        e.u8(1);
                        codec::encode_flow(e, f);
                    }
                    None => {
                        e.u8(0);
                    }
                };
            }
        }
        e.u32(self.delivered.len() as u32);
        for f in &self.delivered {
            codec::encode_flit(e, f);
        }
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// freshly built (empty, fully wired) router.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` if the checkpoint does not match this
    /// router's topology (port or VC counts differ) or is corrupt.
    pub fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        self.cycle = d.u64()?;
        self.stats = codec::decode_stats(d)?;
        if d.u32()? as usize != self.upstream.len() {
            return Err(corrupt("ingress port count mismatch"));
        }
        for p in 0..self.upstream.len() {
            let (lo, hi) = (self.ingress_offsets[p], self.ingress_offsets[p + 1]);
            if d.u32()? as usize != hi - lo {
                return Err(corrupt("ingress VC count mismatch"));
            }
            for vc in lo..hi {
                self.vc_state[vc] = vc_state_restore(d)?;
                let visible = decode_flits(d)?;
                let pending = decode_flits(d)?;
                if visible.len() + pending.len() > self.vcs[vc].capacity() {
                    return Err(corrupt("VC snapshot exceeds buffer capacity"));
                }
                self.vcs[vc].restore_split(&visible, &pending);
            }
        }
        if d.u32()? as usize != self.egress.len() {
            return Err(corrupt("egress port count mismatch"));
        }
        for port in &mut self.egress {
            if d.u32()? as usize != port.out_state.len() {
                return Err(corrupt("egress VC count mismatch"));
            }
            for out in &mut port.out_state {
                out.owner = match d.u8()? {
                    0 => None,
                    _ => Some(PacketId::new(d.u64()?)),
                };
                out.resident_flow = match d.u8()? {
                    0 => None,
                    _ => Some(codec::decode_flow(d)?),
                };
            }
        }
        self.delivered = decode_flits(d)?;
        self.head_cache.fill(None);
        self.masks = self.derived_masks();
        Ok(())
    }
}

/// Picks one item from a weighted list using the provided RNG. Falls back to
/// the first item if all weights are zero or non-finite.
pub(crate) fn pick_weighted<R: Rng, T: Copy>(
    rng: &mut R,
    items: &[T],
    weight: impl Fn(&T) -> f64,
) -> T {
    assert!(!items.is_empty(), "cannot pick from an empty candidate set");
    if items.len() == 1 {
        return items[0];
    }
    let total: f64 = items.iter().map(&weight).filter(|w| w.is_finite()).sum();
    if total <= 0.0 {
        return items[0];
    }
    let mut target = rng.gen::<f64>() * total;
    for item in items {
        let w = weight(item);
        if w.is_finite() && w > 0.0 {
            if target < w {
                return *item;
            }
            target -= w;
        }
    }
    items[items.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::routing::build_routing;
    use crate::routing::RoutingKind;
    use crate::vca::VcAllocKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn router(vcs_per_port: usize) -> Router {
        let g = Geometry::line(2);
        let policies = build_routing(RoutingKind::Xy, &g, &[]);
        Router::new(
            NodeId::new(0),
            &[NodeId::new(1)],
            RouterConfig {
                vcs_per_port,
                injection_vcs: vcs_per_port,
                ..RouterConfig::default()
            },
            policies[0].clone(),
            VcaPolicy::from_kind(VcAllocKind::Dynamic),
        )
    }

    #[test]
    fn vc_numbers_are_port_major_and_span_mask_words() {
        let r = router(40);
        assert_eq!(r.vcs.len(), 80);
        assert_eq!(r.masks.len(), 2, "80 VCs need two mask words");
        assert_eq!(r.vc_port[39], 0);
        assert_eq!(r.vc_port[40], 1);
        assert!(Arc::ptr_eq(
            &r.ingress_buffers_from(NodeId::new(1))[0],
            &r.vcs[0]
        ));
        assert!(Arc::ptr_eq(&r.injection_buffers()[0], &r.vcs[40]));
    }

    #[test]
    fn pick_weighted_is_deterministic_for_single_item() {
        let mut rng = StdRng::seed_from_u64(0);
        let items = [(5u32, 1.0f64)];
        assert_eq!(pick_weighted(&mut rng, &items, |i| i.1).0, 5);
    }

    #[test]
    fn pick_weighted_respects_weights_statistically() {
        let mut rng = StdRng::seed_from_u64(7);
        let items = [(0u32, 0.9f64), (1u32, 0.1f64)];
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[pick_weighted(&mut rng, &items, |i| i.1).0 as usize] += 1;
        }
        assert!(counts[0] > 1600, "heavy option should dominate: {counts:?}");
        assert!(
            counts[1] > 50,
            "light option should still occur: {counts:?}"
        );
    }
}
