//! The router pipeline: one mask-driven sweep over a tile set, run one
//! block of tiles at a time.
//!
//! Every backend — `Network::step`, the engine's sequential path and each
//! shard of the sharded and distributed runtimes — advances its tiles by
//! calling [`MeshKernel::posedge`] and [`MeshKernel::negedge`]. The sweep
//! splits the tile set into blocks of `TILE_BLOCK` consecutive tiles and
//! finishes one block before it starts the next. At the positive edge each
//! block runs every pipeline stage across its tiles before the next stage:
//!
//! 1. **absorb** — make newly deposited flits visible and refresh the cached
//!    head records;
//! 2. **SA** — switch arbitration, per flit;
//! 3. **VA** — VC allocation, per packet;
//! 4. **RC** — route computation, per packet (including the adaptive
//!    free-space choice);
//! 5. the agent ticks;
//!
//! and at the negative edge each block runs the router half (staged moves
//! and drops, then bandwidth-adaptive demand publication) followed by the
//! bridge half. The whole positive edge finishes before any negative edge
//! starts.
//!
//! **Why blocks.** A tile's hot router state (VC rings, head records, VC
//! states, masks) is about 12 KB with the default configuration. Sweeping
//! each stage across *all* tiles streams that state through the caches once
//! per stage — seven passes per cycle — and at 1024 tiles (~13 MB) every
//! pass misses the per-core L2. On a 2-vCPU Xeon host the all-tile sweep
//! cost 727, 736 and 1360 ns per tile-cycle on the saturated transpose
//! workload at 8×8, 16×16 and 32×32, with the same ~8 arbitrations per
//! tile-cycle at every size: a cache-capacity cliff, not extra work. A block
//! keeps its tiles' state resident across all of its stages.
//!
//! Each stage collects its candidates by walking the routers' predicate
//! masks (`VcMasks` in [`router`](crate::router): cached head, Routed,
//! Active, Dropping), so it only ever visits VCs it can act on. Four
//! properties make the sweep cheap:
//!
//! * **Quiet tiles cost O(1).** A tile with no buffered flit skips absorb,
//!   SA, VA and RC entirely (one load of the router's buffered count +
//!   clearing any stale head bits). Per-cycle cost scales with *activity*,
//!   not with fabric size.
//! * **Untouched VCs cost nothing.** A VC is re-absorbed only when something
//!   pushed into it since the previous positive edge: a downstream push from
//!   a neighbour tile (tracked through a frozen egress → VC table), a bridge
//!   injection, or a boundary delivery
//!   ([`note_external_push`](MeshKernel::note_external_push)).
//! * **Credit checks stay in the sweep.** SA never reads a neighbour's
//!   buffer (see *Credits* below).
//! * **Blocked packets ask nobody.** VA skips the downstream snapshot and
//!   the allocation policy when every downstream VC of the requested egress
//!   is owned: every policy offers only free VCs, so the answer is known to
//!   be empty (and draws no random number). The attempt still counts as an
//!   arbitration.
//!
//! The sweep holds only the cross-tile parts: the push-target and credit
//! tables, the dirty-push masks, the per-block busy list, the stage timers
//! and the shared per-stage scratch. VC buffers, VC state, head records,
//! masks, staged moves, statistics and the clock stay on the routers, so
//! snapshot/restore, telemetry and the ledger read the tiles directly.
//!
//! **Pushes.** Each ingress VC buffer belongs to its router alone. A local
//! egress channel names its downstream (node, VC); compiling the sweep
//! resolves that name into `egress_target`, one (tile, VC) entry per channel
//! slot, and panics if the target is not one of the swept tiles. A tile's
//! router half stages its pushes in a small outbox, and the sweep applies
//! them to the downstream routers by index as soon as that router half
//! ends: every later router half sees them (bandwidth-adaptive demand
//! counts resident flits), and two routers are never borrowed at once.
//!
//! **Credits.** Beside `egress_target` the sweep keeps `credit`, the
//! downstream free space of every local egress channel, as the sender sees
//! it. It is derived at compile time from the downstream occupancy (so a
//! restore or a re-wiring needs nothing new), decremented when the channel
//! is pushed, and incremented when the downstream router pops the VC, through
//! the VC's `credit_return` slot. SA's credit check, VA's downstream
//! snapshot and adaptive RC's free-space choice read it instead of the
//! neighbour's buffer, which at 1024 tiles sits in another tile block and
//! so usually outside the cache. Boundary channels keep their link's own
//! count. The count is exact, not a lagging estimate: a local VC's
//! occupancy changes only through pushes from its one upstream channel and
//! pops by its router, both at the negative edge, and each updates the
//! credit in the same step — so at every positive edge `credit` equals
//! capacity minus occupancy, the downstream free space itself. Debug
//! builds assert that equality at every positive edge.
//!
//! **Exactness.** Running stages tile-by-tile within a block, and blocks one
//! after another, computes exactly what a stage-major sweep over all tiles
//! computes:
//!
//! * the cross-tile reads of the positive edge (credits, link bandwidth)
//!   are phase-stable — credits and link demand change only at the negative
//!   edge;
//! * each tile keeps its own RNG draw order (SA, VA, RC, agents), and tiles
//!   keep their relative order within every stage;
//! * agents touch only their own tile's bridge (`NodeIo`);
//! * a tile's bridge touches only its own delivery queue and injection VCs,
//!   which no other tile's router half reads.
//!
//! Stage timers lap once per block and per stage; agent ticks run outside
//! them.
//!
//! Debug builds assert the sweep's invariants: after every edge, each
//! router's state masks equal the masks derived from its VC states; after
//! absorb, every cached head record equals its buffer's absorbed head; and
//! before every positive edge, no VC left un-dirtied has anything to absorb
//! and every credit equals its downstream free space.

use crate::boundary::{BoundaryLink, EgressChannel};
use crate::flit::Flit;
use crate::ids::{Cycle, FlowId, VcId};
use crate::network::NetworkNode;
use crate::router::{pick_weighted, HeadRecord, Router, StagedMove, VcState};
use crate::routing::NextHop;
use crate::vca::{DownstreamVc, VcaRequest};
use hornet_obs::trace::{TraceEvent, TraceKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Selects nothing: there is one router pipeline. Kept only so the
/// benchmark's calls (`SimulationBuilder::kernel`, `DistSpec::kernel`) keep
/// compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelMode {
    /// The only pipeline.
    #[default]
    Auto,
}

/// Tiles per block of the blocked sweep (see the module docs): small enough
/// that a block's router state stays in the private caches across all its
/// stages, large enough that per-block timer laps stay cheap.
pub(crate) const TILE_BLOCK: usize = 16;

/// Accumulated wall-clock time per pipeline stage (all zero unless timing
/// was enabled at compile time).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Absorb + head-snapshot + quiet-tile triage.
    pub absorb: Duration,
    /// Switch arbitration (per flit).
    pub sa: Duration,
    /// VC allocation (per packet).
    pub va: Duration,
    /// Route computation (per packet).
    pub rc: Duration,
    /// Negative edge, router half: staged moves, drops, demand publication.
    pub negedge: Duration,
    /// Negative edge, bridge half: ejected-flit hand-off and injection.
    pub bridge: Duration,
}

/// A VC ready to move a flit this cycle (switch-arbitration scratch entry).
#[derive(Clone, Copy, Debug)]
struct SaCandidate {
    /// Ingress port of the VC (for the per-port grant limit).
    ingress: usize,
    /// VC number.
    vc: usize,
    egress: usize,
    out_vc: usize,
    next_flow: FlowId,
}

/// `egress_target` entry of a channel slot that pushes into no local VC
/// (ejection, boundary or padding).
const NO_TARGET: u64 = u64::MAX;

/// `credit` entry of a boundary channel: its link keeps the count.
const BOUNDARY: u32 = u32::MAX;

/// `credit_return` entry of a VC no local channel feeds (injection VCs and
/// the targets of cut links).
const NO_RETURN: u32 = u32::MAX;

/// Packs a push target: tile index and the VC number on its router.
#[inline]
fn pack_target(tile: usize, vc: usize) -> u64 {
    ((tile as u64) << 32) | vc as u64
}

/// Unpacks [`pack_target`].
#[inline]
fn unpack_target(target: u64) -> (usize, usize) {
    (
        (target >> 32) as usize,
        (target & u64::from(u32::MAX)) as usize,
    )
}

/// The boundary link of egress channel `out_vc` of port `egress`, which the
/// credit table marks as cut.
#[inline]
fn boundary_link(r: &Router, egress: usize, out_vc: usize) -> &BoundaryLink {
    r.egress[egress].buffers[out_vc]
        .boundary()
        .expect("credit table marks a local channel as cut")
}

/// The downstream free space of egress channel `out_vc` of port `egress` of
/// router `r`, whose `credit` table entry is given: the entry itself, or
/// the link's own count for a cut channel.
#[inline]
fn free_space(credit: u32, r: &Router, egress: usize, out_vc: usize) -> usize {
    match credit {
        BOUNDARY => boundary_link(r, egress, out_vc).free_space(),
        free => free as usize,
    }
}

/// The router pipeline over one tile set (see the module docs).
pub struct MeshKernel {
    /// Start of each tile's words in `dirty` / `inj_mask` (length
    /// `tiles + 1`); tile `t`'s word `w` covers its VC numbers
    /// `64 * w .. 64 * w + 63`, like the router's own masks.
    tile_words: Vec<u32>,
    /// First flat VC index of each tile, plus the total (length
    /// `tiles + 1`): VC `vc` of tile `t` is flat VC `tile_vcs[t] + vc`.
    tile_vcs: Vec<u32>,
    /// Bits covering each tile's injection-port VCs (bridge injections).
    inj_mask: Vec<u64>,
    /// VCs that received a push since the last positive edge and need their
    /// absorb cursor advanced (and, without a cached head, a fresh head
    /// peek). Pops need no mask: the negative edge refreshes the head cache
    /// in place, since the successor flit is already absorbed.
    dirty: Vec<u64>,
    // --- shared per-cycle scratch (one set for all tiles) ---
    /// Tiles with at least one buffered flit this positive edge.
    busy: Vec<u32>,
    sa_cand: Vec<SaCandidate>,
    ingress_granted: Vec<u32>,
    egress_granted: Vec<u32>,
    /// Generation-stamped flat map `(egress, out_vc) → flits staged this
    /// cycle for the tile currently in switch arbitration`.
    staged_count: Vec<u32>,
    staged_stamp: Vec<u64>,
    staged_gen: u64,
    /// Stride of the staged and downstream tables (widest egress port
    /// across all tiles).
    stride: usize,
    /// Push target (packed tile and VC) of each local egress channel,
    /// indexed by *channel slot* `tile * egress_stride + egress * stride +
    /// out_vc` ([`NO_TARGET`] for ejection and boundary channels). Topology
    /// is static, so the negative edge resolves pushes through this flat
    /// table.
    egress_target: Vec<u64>,
    /// Sender-side credit of each channel slot: the free space of the
    /// downstream VC of a local channel, or [`BOUNDARY`] (see the module
    /// docs).
    credit: Vec<u32>,
    /// Channel slot of the local egress channel feeding each flat ingress
    /// VC, whose credit a pop of that VC returns ([`NO_RETURN`] if none).
    credit_return: Vec<u32>,
    /// Row length of the channel-slot tables per tile (`max_egress *
    /// stride`).
    egress_stride: usize,
    /// Pushes staged by the router half of the tile being swept, as
    /// `(egress_target entry, flit)`; applied as soon as that half ends.
    outbox: Vec<(u64, Flit)>,
    /// Per-egress downstream snapshots built by VA, valid for the tile
    /// currently in VA while `downstream_stamp[egress] == downstream_gen`.
    downstream_scratch: Vec<DownstreamVc>,
    downstream_stamp: Vec<u64>,
    downstream_gen: u64,
    route_scratch: Vec<NextHop>,
    vca_scratch: Vec<(VcId, f64)>,
    timing: bool,
    times: StageTimes,
}

impl std::fmt::Debug for MeshKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshKernel")
            .field("tiles", &(self.tile_words.len().saturating_sub(1)))
            .field("vcs", &self.tile_vcs.last().copied().unwrap_or(0))
            .finish()
    }
}

impl MeshKernel {
    /// Builds the sweep's cross-tile state for `nodes`.
    ///
    /// Compiling is cheap — O(total VCs) — and may be repeated freely, e.g.
    /// after a snapshot restore: every VC starts dirty, so the first positive
    /// edge re-absorbs everything, and every credit is read afresh from its
    /// downstream occupancy.
    ///
    /// # Panics
    ///
    /// Panics if a local egress channel of some tile feeds a router outside
    /// `nodes` (the sweep could not apply its pushes), or if two local
    /// channels feed one VC. The network builder and the sharded runtimes
    /// never produce either (cut links become boundary channels).
    pub fn compile(nodes: &[NetworkNode], timing: bool) -> Self {
        let tiles = nodes.len();
        let mut tile_words = Vec::with_capacity(tiles + 1);
        let mut tile_vcs = Vec::with_capacity(tiles + 1);
        let mut inj_mask = Vec::new();
        let mut dirty = Vec::new();
        let (mut max_ingress, mut max_egress, mut stride) = (0usize, 0usize, 1usize);
        let span = nodes.iter().map(|n| n.node.index() + 1).max().unwrap_or(0);
        let mut tile_of = vec![usize::MAX; span];
        let mut total_vcs = 0usize;
        for (t, node) in nodes.iter().enumerate() {
            let r = &node.router;
            tile_of[node.node.index()] = t;
            let base = dirty.len();
            tile_words.push(base as u32);
            tile_vcs.push(total_vcs as u32);
            total_vcs += r.vcs.vc_count();
            dirty.resize(base + r.masks.len(), 0u64);
            inj_mask.resize(base + r.masks.len(), 0u64);
            max_ingress = max_ingress.max(r.upstream.len());
            max_egress = max_egress.max(r.egress.len());
            for e in &r.egress {
                stride = stride.max(e.buffers.len());
            }
            for vc in 0..r.vcs.vc_count() {
                let (word, bit) = (base + vc / 64, vc % 64);
                dirty[word] |= 1 << bit;
                if r.vc_port[vc] as usize == r.injection_port {
                    inj_mask[word] |= 1 << bit;
                }
            }
        }
        tile_words.push(dirty.len() as u32);
        tile_vcs.push(u32::try_from(total_vcs).expect("VC count fits u32"));

        let egress_stride = max_egress * stride;
        let slots = tiles * egress_stride;
        assert!(slots < NO_RETURN as usize, "channel slots fit u32");
        let mut egress_target = vec![NO_TARGET; slots];
        let mut credit = vec![BOUNDARY; slots];
        let mut credit_return = vec![NO_RETURN; total_vcs];
        for (t, node) in nodes.iter().enumerate() {
            for (p, e) in node.router.egress.iter().enumerate() {
                for (v, ch) in e.buffers.iter().enumerate() {
                    let EgressChannel::Local { node: down, vc, .. } = *ch else {
                        continue;
                    };
                    let target = tile_of
                        .get(down.index())
                        .copied()
                        .filter(|&d| d != usize::MAX)
                        .unwrap_or_else(|| {
                            panic!(
                                "{}: local egress channel feeds a tile outside the sweep",
                                node.node
                            )
                        });
                    let (slot, vc) = (t * egress_stride + p * stride + v, vc as usize);
                    egress_target[slot] = pack_target(target, vc);
                    credit[slot] = nodes[target].router.vcs.free_space(vc) as u32;
                    let ret = &mut credit_return[tile_vcs[target] as usize + vc];
                    assert_eq!(*ret, NO_RETURN, "{down}: two channels feed VC {vc}");
                    *ret = slot as u32;
                }
            }
        }

        Self {
            tile_words,
            tile_vcs,
            inj_mask,
            dirty,
            busy: Vec::with_capacity(TILE_BLOCK),
            sa_cand: Vec::new(),
            ingress_granted: vec![0; max_ingress],
            egress_granted: vec![0; max_egress],
            staged_count: vec![0; egress_stride],
            staged_stamp: vec![0; egress_stride],
            staged_gen: 0,
            stride,
            egress_target,
            credit,
            credit_return,
            egress_stride,
            outbox: Vec::new(),
            downstream_scratch: vec![
                DownstreamVc {
                    vc: VcId::new(0),
                    free_for_allocation: false,
                    occupancy: 0,
                    capacity: 0,
                    resident_flow: None,
                };
                egress_stride
            ],
            downstream_stamp: vec![0; max_egress],
            downstream_gen: 0,
            route_scratch: Vec::new(),
            vca_scratch: Vec::new(),
            timing,
            times: StageTimes::default(),
        }
    }

    /// Accumulated per-stage timings (all zero unless compiled with timing).
    pub fn stage_times(&self) -> StageTimes {
        self.times
    }

    /// Marks VC `vc` of tile `tile` (an index into the swept tiles) dirty
    /// after a push the sweep did not make itself, e.g. a boundary delivery
    /// from another shard, so the next positive edge re-absorbs it.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is not one of the swept tiles.
    #[inline]
    pub fn note_external_push(&mut self, tile: usize, vc: usize) {
        self.dirty[self.tile_words[tile] as usize + vc / 64] |= 1 << (vc % 64);
    }

    /// Returns one credit to the channel feeding flat ingress VC `flat_vc`,
    /// which its router just popped.
    #[inline]
    fn return_credit(&mut self, flat_vc: usize) {
        let slot = self.credit_return[flat_vc];
        if slot != NO_RETURN {
            self.credit[slot as usize] += 1;
        }
    }

    /// Positive clock edge for every tile, one block of `TILE_BLOCK`
    /// tiles at a time: absorb (dirty VCs only), then the SA, VA and RC
    /// sweeps over the block's busy tiles, then the block's agent ticks.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `nodes` is not the tile set this sweep was
    /// compiled from, or if a pipeline invariant is broken.
    pub fn posedge(&mut self, nodes: &mut [NetworkNode], now: Cycle) {
        debug_assert_eq!(nodes.len() + 1, self.tile_words.len(), "tile set changed");
        if cfg!(debug_assertions) {
            self.assert_nothing_undirtied_to_absorb(nodes);
            self.assert_credits_exact(nodes);
        }
        for (b, block) in nodes.chunks_mut(TILE_BLOCK).enumerate() {
            self.posedge_block(block, b * TILE_BLOCK, now);
        }
        if cfg!(debug_assertions) {
            assert_masks_exact(nodes);
        }
    }

    /// The positive edge of one tile block whose first tile is `first`.
    fn posedge_block(&mut self, block: &mut [NetworkNode], first: usize, now: Cycle) {
        let mut lap = self.timing.then(Instant::now);

        // --- absorb + quiet-tile triage -------------------------------
        self.busy.clear();
        for (i, node) in block.iter_mut().enumerate() {
            let r = &mut node.router;
            r.cycle = now;
            r.staged.clear();
            r.staged_drops.clear();
            r.stats.simulated_cycles += 1;
            r.stats.last_cycle = now;
            let lo = self.tile_words[first + i] as usize;

            if r.buffered_flits() == 0 {
                // Quiet tile: every stage would be a no-op; just invalidate
                // stale cached heads.
                for w in 0..r.masks.len() {
                    let mut m = r.masks[w].head;
                    while m != 0 {
                        let vc = w * 64 + m.trailing_zeros() as usize;
                        m &= m - 1;
                        r.set_head(vc, None);
                    }
                    self.dirty[lo + w] = 0;
                }
                continue;
            }
            r.stats.busy_cycles += 1;

            let mut absorbed = 0u64;
            for w in 0..r.masks.len() {
                let pushed = self.dirty[lo + w];
                self.dirty[lo + w] = 0;
                // Pushed VCs that already have a cached head only need the
                // absorb cursor advanced — a push never changes the head
                // flit of a non-empty buffer, so the head re-copy is skipped.
                let mut cursor_only = pushed & r.masks[w].head;
                let mut m = pushed & !r.masks[w].head;
                while cursor_only != 0 {
                    let vc = w * 64 + cursor_only.trailing_zeros() as usize;
                    cursor_only &= cursor_only - 1;
                    absorbed += r.vcs.absorb(vc) as u64;
                }
                while m != 0 {
                    let vc = w * 64 + m.trailing_zeros() as usize;
                    m &= m - 1;
                    absorbed += r.vcs.absorb(vc) as u64;
                    r.refresh_head(vc);
                }
            }
            r.stats.activity.buffer_writes += absorbed;
            self.busy.push(i as u32);
        }
        lap = self.lap(lap, |s| &mut s.times.absorb);
        if cfg!(debug_assertions) {
            assert_heads_absorbed(block);
        }

        // Stage-major within the block: safe to reorder across tiles (see
        // the module docs); the within-tile SA → VA → RC order is preserved.
        let busy = std::mem::take(&mut self.busy);
        for &i in &busy {
            self.sa_tile(&mut block[i as usize], first + i as usize, now);
        }
        lap = self.lap(lap, |s| &mut s.times.sa);
        for &i in &busy {
            self.va_tile(&mut block[i as usize], first + i as usize, now);
        }
        lap = self.lap(lap, |s| &mut s.times.va);
        for &i in &busy {
            let row = (first + i as usize) * self.egress_stride;
            rc_tile(
                &mut block[i as usize],
                &mut self.route_scratch,
                &self.credit[row..row + self.egress_stride],
                self.stride,
                now,
            );
        }
        self.busy = busy;
        self.lap(lap, |s| &mut s.times.rc);

        // Agents run on *every* tile (they inject into quiet ones), after
        // their own tile's router stages; they are not part of any stage.
        for node in block.iter_mut() {
            node.tick_agents(now);
        }
    }

    /// Negative clock edge for every tile, one block of `TILE_BLOCK`
    /// tiles at a time: apply the block's staged moves and drops and publish
    /// link demand, then run the block's bridge transfers. Each tile's
    /// pushes reach the downstream routers right after its own router half.
    /// A block's bridges may run before later blocks' router halves because
    /// a tile's bridge only touches its own delivery queue and injection
    /// buffers, which no other tile's router half reads.
    pub fn negedge(&mut self, nodes: &mut [NetworkNode], now: Cycle) {
        for first in (0..nodes.len()).step_by(TILE_BLOCK) {
            let block = first..nodes.len().min(first + TILE_BLOCK);
            let mut lap = self.timing.then(Instant::now);
            for t in block.clone() {
                self.negedge_router(&mut nodes[t].router, t, now);
                self.apply_outbox(nodes);
            }
            lap = self.lap(lap, |s| &mut s.times.negedge);
            for t in block {
                let node = &mut nodes[t];
                let before = node.router.stats.injected_flits;
                node.negedge_bridge(now);
                if node.router.stats.injected_flits != before {
                    let words = self.tile_words[t] as usize..self.tile_words[t + 1] as usize;
                    for w in words {
                        self.dirty[w] |= self.inj_mask[w];
                    }
                }
            }
            self.lap(lap, |s| &mut s.times.bridge);
        }
        if cfg!(debug_assertions) {
            assert_masks_exact(nodes);
        }
    }

    /// Records a stage lap when timing is enabled and starts the next one.
    #[inline]
    fn lap(
        &mut self,
        started: Option<Instant>,
        slot: impl FnOnce(&mut Self) -> &mut Duration,
    ) -> Option<Instant> {
        let s = started?;
        *slot(self) += s.elapsed();
        Some(Instant::now())
    }

    /// Switch arbitration for one tile: gathers the Active and Dropping VCs
    /// with a visible head, shuffles the candidates (per-tile RNG, for fair
    /// tie-breaking) and grants them under the ingress, egress and
    /// downstream-credit limits. Grants land in the router's `staged` /
    /// `staged_drops`.
    fn sa_tile(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let r = &mut node.router;
        let row = t * self.egress_stride;
        let mut cand = std::mem::take(&mut self.sa_cand);
        cand.clear();
        for w in 0..r.masks.len() {
            let mw = r.masks[w];
            let mut m = (mw.active | mw.dropping) & mw.head;
            while m != 0 {
                let vc = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                if r.head(vc).visible_at > now {
                    continue;
                }
                match r.vc_state(vc) {
                    VcState::Active {
                        egress,
                        out_vc,
                        next_flow,
                    } => cand.push(SaCandidate {
                        ingress: r.vc_port[vc] as usize,
                        vc,
                        egress: egress.into(),
                        out_vc: out_vc.into(),
                        next_flow,
                    }),
                    VcState::Dropping => r.staged_drops.push(vc),
                    _ => unreachable!("mask out of sync with VC state"),
                }
            }
        }
        if cand.is_empty() {
            self.sa_cand = cand;
            return;
        }
        r.stats.activity.arbitrations += cand.len() as u64;

        // Randomize consideration order to break ties fairly.
        for i in (1..cand.len()).rev() {
            let j = node.rng.gen_range(0..=i);
            cand.swap(i, j);
        }

        let ingress_bw = r.cfg.link_bandwidth.max(1);
        self.ingress_granted[..r.upstream.len()].fill(0);
        self.egress_granted[..r.egress.len()].fill(0);
        // New generation: every staged-per-buffer entry is logically zero.
        self.staged_gen += 1;

        for c in &cand {
            if self.ingress_granted[c.ingress] >= ingress_bw {
                continue;
            }
            if self.egress_granted[c.egress] >= r.egress_bandwidth(c.egress) {
                continue;
            }
            let key = c.egress * self.stride + c.out_vc;
            let already = if self.staged_stamp[key] == self.staged_gen {
                self.staged_count[key]
            } else {
                0
            };
            if c.egress != r.ejection_port
                && free_space(self.credit[row + key], r, c.egress, c.out_vc) <= already as usize
            {
                continue; // no downstream credit
            }
            self.ingress_granted[c.ingress] += 1;
            self.egress_granted[c.egress] += 1;
            self.staged_stamp[key] = self.staged_gen;
            self.staged_count[key] = already + 1;
            r.staged.push(StagedMove {
                vc: c.vc,
                egress: c.egress,
                out_vc: c.out_vc,
                next_flow: c.next_flow,
            });
        }
        self.sa_cand = cand;
    }

    /// VC allocation for one tile: every Routed VC with a visible head asks
    /// its VCA policy for a downstream VC on its egress port.
    fn va_tile(&mut self, node: &mut NetworkNode, t: usize, now: Cycle) {
        let r = &mut node.router;
        let row = t * self.egress_stride;
        let mut cand = std::mem::take(&mut self.vca_scratch);
        // Downstream snapshots are stable for the whole positive edge
        // (credits move only at the negative edge) except for the
        // `out_state` assignments this very loop makes — so build each
        // egress port's snapshot at most once per tile per cycle and
        // invalidate it only when a VC on that port is granted.
        self.downstream_gen += 1;
        for w in 0..r.masks.len() {
            let mut m = r.masks[w].routed & r.masks[w].head;
            while m != 0 {
                let vc = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let head = r.head(vc);
                if head.visible_at > now {
                    continue;
                }
                let (flow, packet) = (head.flow, head.packet);
                let VcState::Routed {
                    egress: egress16,
                    next_flow,
                } = r.vc_state(vc)
                else {
                    unreachable!("mask out of sync with VC state");
                };
                let egress = usize::from(egress16);
                r.stats.activity.arbitrations += 1;
                if egress == r.ejection_port {
                    r.set_state(
                        vc,
                        VcState::Active {
                            egress: egress16,
                            out_vc: 0,
                            next_flow,
                        },
                    );
                    continue;
                }
                let e = &r.egress[egress];
                // Every policy offers only VCs free for allocation (see
                // `VcaPolicy::candidates_into`), so a fully owned egress has
                // no candidate and draws nothing: wait without asking.
                if e.out_state.iter().all(|o| o.owner.is_some()) {
                    continue;
                }
                let lo = egress * self.stride;
                let downstream = &mut self.downstream_scratch[lo..lo + e.buffers.len()];
                if self.downstream_stamp[egress] != self.downstream_gen {
                    self.downstream_stamp[egress] = self.downstream_gen;
                    let credits = &self.credit[row + lo..row + lo + e.buffers.len()];
                    for (i, (slot, ch)) in downstream.iter_mut().zip(&e.buffers).enumerate() {
                        let occupancy = ch.capacity() - free_space(credits[i], r, egress, i);
                        let out = &e.out_state[i];
                        *slot = DownstreamVc {
                            vc: VcId::new(i as u16),
                            free_for_allocation: out.owner.is_none(),
                            occupancy,
                            capacity: ch.capacity(),
                            resident_flow: if occupancy > 0 || out.owner.is_some() {
                                out.resident_flow
                            } else {
                                None
                            },
                        };
                    }
                }
                let req = VcaRequest {
                    prev: r.upstream[r.vc_port[vc] as usize],
                    flow,
                    next: e.downstream,
                    next_flow,
                };
                r.vca.candidates_into(&req, downstream, &mut cand);
                if cand.is_empty() {
                    continue; // wait in the VA stage
                }
                let (vc_id, _) = pick_weighted(&mut node.rng, &cand, |c| c.1);
                let out = &mut r.egress[egress].out_state[vc_id.index()];
                out.owner = Some(packet);
                out.resident_flow = Some(next_flow);
                self.downstream_stamp[egress] = 0;
                r.set_state(
                    vc,
                    VcState::Active {
                        egress: egress16,
                        // Lossless: `VcId` is a `u16`.
                        out_vc: vc_id.index() as u16,
                        next_flow,
                    },
                );
            }
        }
        self.vca_scratch = cand;
    }

    /// The router half of one tile's negative edge: pop the granted flits
    /// (returning their credits) and stage them for the downstream routers
    /// (or push them into a boundary link or the local delivery queue),
    /// release VC allocations behind tail flits, discard the staged drops,
    /// and publish demand on bandwidth-adaptive links for the next cycle.
    fn negedge_router(&mut self, r: &mut Router, t: usize, now: Cycle) {
        let row = t * self.egress_stride;
        let vc_base = self.tile_vcs[t] as usize;
        for i in 0..r.staged.len() {
            let m = r.staged[i];
            let Some(mut flit) = r.vcs.pop(m.vc, now) else {
                continue;
            };
            self.return_credit(vc_base + m.vc);
            // Refresh the cached head in place: the successor flit (if any)
            // is already absorbed, so no positive-edge re-peek is needed.
            r.refresh_head(m.vc);
            r.stats.activity.buffer_reads += 1;
            r.stats.activity.crossbar_transits += 1;

            // Accumulate the residence time at this node into the flit itself.
            let departure = now + 1;
            flit.stats.accumulated_latency +=
                departure.saturating_sub(flit.stats.arrived_at_current);
            flit.stats.arrived_at_current = departure;
            flit.flow = m.next_flow;
            flit.visible_at = departure;

            let is_tail = flit.is_tail();
            if m.egress == r.ejection_port {
                r.stats.total_flit_latency += flit.stats.accumulated_latency;
                r.stats.delivered_flits += 1;
                r.delivered.push(flit);
            } else {
                flit.stats.hops += 1;
                r.stats.activity.link_flits += 1;
                let slot = row + m.egress * self.stride + m.out_vc;
                let sent = match self.credit[slot] {
                    BOUNDARY => boundary_link(r, m.egress, m.out_vc).push(flit),
                    0 => false,
                    free => {
                        self.credit[slot] = free - 1;
                        self.outbox.push((self.egress_target[slot], flit));
                        true
                    }
                };
                if !sent {
                    // Credit checking should make this impossible; record it
                    // as a routing failure so tests can detect flow-control
                    // bugs rather than silently losing flits.
                    r.stats.routing_failures += 1;
                }
                if is_tail {
                    r.egress[m.egress].out_state[m.out_vc].owner = None;
                }
            }
            if is_tail {
                r.set_state(m.vc, VcState::Idle);
            }
        }
        r.staged.clear();

        // Discard flits of packets that could not be routed.
        for i in 0..r.staged_drops.len() {
            let vc = r.staged_drops[i];
            if let Some(flit) = r.vcs.pop(vc, now) {
                self.return_credit(vc_base + vc);
                r.refresh_head(vc);
                r.stats.activity.buffer_reads += 1;
                if flit.is_tail() {
                    r.set_state(vc, VcState::Idle);
                }
            }
        }
        r.staged_drops.clear();

        // Publish demand on bandwidth-adaptive links for the next cycle: the
        // Active VCs bound for the link that still hold a flit. Static links
        // have no bit in the port mask and cost nothing here.
        for (pw, &ports) in r.bidir_ports().iter().enumerate() {
            let mut ports = ports;
            while ports != 0 {
                let e = pw * 64 + ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let Some((link, dir)) = &r.egress[e].bidir else {
                    unreachable!("bidir port mask out of sync with its links");
                };
                let mut demand = 0u32;
                for (w, mw) in r.masks.iter().enumerate() {
                    let mut m = mw.active;
                    while m != 0 {
                        let vc = w * 64 + m.trailing_zeros() as usize;
                        m &= m - 1;
                        if matches!(r.vc_state(vc), VcState::Active { egress, .. } if usize::from(egress) == e)
                            && r.vcs.occupancy(vc) > 0
                        {
                            demand += 1;
                        }
                    }
                }
                link.publish_demand(*dir, demand);
            }
        }
    }

    /// Applies the pushes the last router half staged to their downstream
    /// routers and marks the target VCs dirty.
    fn apply_outbox(&mut self, nodes: &mut [NetworkNode]) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for (target, flit) in outbox.drain(..) {
            let (tile, vc) = unpack_target(target);
            assert!(
                nodes[tile].router.vcs.push(vc, flit),
                "{}: a credited push found VC {vc} full",
                nodes[tile].node
            );
            self.note_external_push(tile, vc);
        }
        self.outbox = outbox;
    }

    /// Debug check: a VC whose dirty bit is clear has nothing beyond its
    /// absorb boundary (otherwise a push escaped the dirty tracking).
    fn assert_nothing_undirtied_to_absorb(&self, nodes: &[NetworkNode]) {
        for (t, node) in nodes.iter().enumerate() {
            let lo = self.tile_words[t] as usize;
            for vc in 0..node.router.vcs.vc_count() {
                let dirty = self.dirty[lo + vc / 64] & (1 << (vc % 64)) != 0;
                assert!(
                    dirty || node.router.vcs.unabsorbed(vc) == 0,
                    "{}: VC {vc} received a push the sweep was not told about",
                    node.node
                );
            }
        }
    }

    /// Debug check: the credit of every local egress channel equals the
    /// free space of the downstream VC it feeds.
    fn assert_credits_exact(&self, nodes: &[NetworkNode]) {
        for (slot, &target) in self.egress_target.iter().enumerate() {
            if target == NO_TARGET {
                continue;
            }
            let (tile, vc) = unpack_target(target);
            let (t, rest) = (slot / self.egress_stride, slot % self.egress_stride);
            assert_eq!(
                self.credit[slot] as usize,
                nodes[tile].router.vcs.free_space(vc),
                "{}: credit of egress {} VC {} differs from the free space of {} VC {vc}",
                nodes[t].node,
                rest / self.stride,
                rest % self.stride,
                nodes[tile].node
            );
        }
    }
}

/// Route computation for one tile: every idle VC with a visible head flit
/// is bound to an egress port (a body flit at the head of an idle VC, or a
/// destination without a route, starts a drop instead). `credits` is the
/// tile's row of the sweep's credit table (`stride`
/// channel slots per egress port).
fn rc_tile(
    node: &mut NetworkNode,
    cand: &mut Vec<NextHop>,
    credits: &[u32],
    stride: usize,
    now: Cycle,
) {
    let NetworkNode {
        router: r,
        rng,
        tracer,
        ..
    } = node;
    for w in 0..r.masks.len() {
        let mw = r.masks[w];
        let mut m = mw.head & !(mw.routed | mw.active | mw.dropping);
        while m != 0 {
            let vc = w * 64 + m.trailing_zeros() as usize;
            m &= m - 1;
            let head = *r.head(vc);
            if head.visible_at > now {
                continue;
            }
            let HeadRecord {
                is_head,
                flow,
                dst,
                packet,
                ..
            } = head;
            if !is_head {
                // A body flit at the head of an idle VC can only happen if
                // the packet was dropped upstream; discard it.
                r.set_state(vc, VcState::Dropping);
                continue;
            }
            let prev = r.upstream[r.vc_port[vc] as usize];
            r.routing.candidates_into(r.node, prev, flow, dst, cand);
            if cand.is_empty() {
                r.stats.routing_failures += 1;
                r.set_state(vc, VcState::Dropping);
                continue;
            }
            let choice = if r.routing.is_adaptive() && cand.len() > 1 {
                most_free_space(r, credits, stride, rng, cand)
            } else {
                pick_weighted(rng, cand, |c| c.weight)
            };
            let egress = if choice.next_node == r.node {
                r.ejection_port
            } else {
                r.egress_of(choice.next_node)
            };
            r.set_state(
                vc,
                VcState::Routed {
                    // Port counts fit `u16` (checked by `Router::new`).
                    egress: egress as u16,
                    next_flow: choice.next_flow,
                },
            );
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(TraceEvent {
                    cycle: now,
                    node: r.node.raw(),
                    kind: TraceKind::FlitRoute,
                    a: packet.raw(),
                    b: egress as u64,
                });
            }
        }
    }
}

/// Adaptive routing's choice: the candidate with the most free space in its
/// downstream buffers (ejection counts as unbounded), ties broken by one
/// random draw per candidate. Free space comes from the tile's `credits`
/// row (see [`rc_tile`]).
fn most_free_space(
    r: &Router,
    credits: &[u32],
    stride: usize,
    rng: &mut impl Rng,
    cand: &[NextHop],
) -> NextHop {
    let mut best_idx = 0usize;
    let mut best_key = (u64::MIN, 0u64);
    for (i, c) in cand.iter().enumerate() {
        let free: u64 = if c.next_node == r.node {
            u64::MAX
        } else {
            let e = r.egress_of(c.next_node);
            let row = &credits[e * stride..e * stride + r.egress[e].buffers.len()];
            row.iter()
                .enumerate()
                .map(|(v, &credit)| free_space(credit, r, e, v) as u64)
                .sum()
        };
        let tiebreak = rng.gen::<u64>();
        if (free, tiebreak) > best_key || i == 0 {
            best_key = (free, tiebreak);
            best_idx = i;
        }
    }
    cand[best_idx]
}

/// Debug check: every router's masks equal the masks derived from its VC
/// states and head cache.
fn assert_masks_exact(nodes: &[NetworkNode]) {
    for node in nodes {
        assert_eq!(
            node.router.masks,
            node.router.derived_masks(),
            "{}: predicate masks out of sync with VC state",
            node.node
        );
    }
}

/// Debug check after absorb: every cached head record equals the record of
/// its buffer's absorbed head flit.
fn assert_heads_absorbed(nodes: &[NetworkNode]) {
    for node in nodes {
        let r = &node.router;
        for vc in 0..r.vcs.vc_count() {
            assert_eq!(
                r.cached_head(vc).copied(),
                r.vcs.head(vc).map(HeadRecord::of),
                "{}: stale cached head on VC {vc}",
                node.node
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{NodeAgent, NodeIo, SinkAgent};
    use crate::config::NetworkConfig;
    use crate::flit::Packet;
    use crate::geometry::Geometry;
    use crate::ids::NodeId;
    use crate::network::Network;
    use crate::routing::FlowSpec;
    use rand_chacha::ChaCha12Rng;

    /// Sends `len`-flit packets from `src` to `dst` (of `nodes` nodes),
    /// keeping at most `backlog` packets queued at the bridge, until
    /// `remaining` runs out.
    struct Sender {
        src: NodeId,
        dst: NodeId,
        nodes: usize,
        len: u32,
        remaining: u64,
        backlog: usize,
    }

    impl Sender {
        /// A sender on node 0 of a two-node line, toward node 1.
        fn on_pair(len: u32, remaining: u64, backlog: usize) -> Self {
            Self {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                nodes: 2,
                len,
                remaining,
                backlog,
            }
        }
    }

    impl NodeAgent for Sender {
        fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut ChaCha12Rng) {
            while self.remaining > 0 && io.injection_backlog() < self.backlog {
                let id = io.alloc_packet_id();
                let (src, dst) = (self.src, self.dst);
                let now = io.cycle();
                io.send(Packet::new(
                    id,
                    FlowId::for_pair(src, dst, self.nodes),
                    src,
                    dst,
                    self.len,
                    now,
                ));
                self.remaining -= 1;
            }
        }
        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            (self.remaining > 0).then_some(now + 1)
        }
        fn finished(&self) -> bool {
            self.remaining == 0
        }
    }

    /// A two-tile line with one 0 → 1 flow (or none), `sender` on tile 0,
    /// a sink on tile 1, and the sweep compiled over both tiles.
    fn line(
        cfg: impl FnOnce(NetworkConfig) -> NetworkConfig,
        sender: Sender,
        seed: u64,
    ) -> (Vec<NetworkNode>, MeshKernel) {
        let flows = vec![FlowSpec::pair(NodeId::new(0), NodeId::new(1), 2)];
        let config = cfg(NetworkConfig::new(Geometry::line(2)).with_flows(flows));
        let mut net = Network::new(&config, seed).expect("valid config");
        net.attach_agent(NodeId::new(0), Box::new(sender));
        net.attach_agent(NodeId::new(1), Box::new(SinkAgent::new()));
        let (nodes, _) = net.into_nodes();
        let kernel = MeshKernel::compile(&nodes, false);
        (nodes, kernel)
    }

    fn run(nodes: &mut [NetworkNode], kernel: &mut MeshKernel, cycles: std::ops::Range<Cycle>) {
        for now in cycles {
            kernel.posedge(nodes, now);
            kernel.negedge(nodes, now);
        }
    }

    fn one_packet(len: u32) -> Sender {
        Sender::on_pair(len, 1, 1)
    }

    /// An `n`-tile line where every tile streams packets to its successor
    /// (the last one to tile 0, across the whole line) without end, and
    /// sinks what it receives; the sweep is compiled over all tiles.
    fn saturated_line(n: usize, seed: u64) -> (Vec<NetworkNode>, MeshKernel) {
        let node = |i: usize| NodeId::new(i as u32);
        let flows = (0..n)
            .map(|i| FlowSpec::pair(node(i), node((i + 1) % n), n))
            .collect();
        let config = NetworkConfig::new(Geometry::line(n)).with_flows(flows);
        let mut net = Network::new(&config, seed).expect("valid config");
        for i in 0..n {
            net.attach_agent(
                node(i),
                Box::new(Sender {
                    src: node(i),
                    dst: node((i + 1) % n),
                    nodes: n,
                    len: 4,
                    remaining: u64::MAX,
                    backlog: 4,
                }),
            );
            net.attach_agent(node(i), Box::new(SinkAgent::new()));
        }
        let (nodes, _) = net.into_nodes();
        let kernel = MeshKernel::compile(&nodes, false);
        (nodes, kernel)
    }

    #[test]
    fn single_packet_traverses_one_hop() {
        let (mut nodes, mut k) = line(|c| c, one_packet(4), 1);
        run(&mut nodes, &mut k, 1..40);
        let s = nodes[1].stats();
        assert_eq!(s.delivered_flits, 4, "all four flits must be delivered");
        assert_eq!(s.delivered_packets, 1);
        assert_eq!(s.avg_hops(), 1.0);
        assert!(s.avg_packet_latency() > 0.0);
        assert!(nodes.iter().all(NetworkNode::is_idle));
    }

    #[test]
    fn credit_backpressure_never_overflows_buffers() {
        let narrow = |mut c: NetworkConfig| {
            c.vcs_per_port = 1;
            c.vc_capacity = 2;
            c.injection_vcs = 1;
            c.injection_vc_capacity = 32;
            c
        };
        // A long packet that cannot fit in the downstream buffer at once.
        let (mut nodes, mut k) = line(narrow, one_packet(16), 3);
        run(&mut nodes, &mut k, 1..200);
        assert_eq!(nodes[1].stats().delivered_flits, 16);
        for n in &nodes {
            assert_eq!(n.stats().routing_failures, 0, "no push may ever fail");
        }
    }

    #[test]
    fn unroutable_packets_are_dropped_and_counted() {
        // No flows configured -> empty routing tables -> RC fails.
        let (mut nodes, mut k) = line(|c| c.with_flows(Vec::new()), one_packet(4), 5);
        run(&mut nodes, &mut k, 1..30);
        assert_eq!(nodes[0].stats().routing_failures, 1);
        assert!(nodes[0].is_idle(), "dropped flits must drain");
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let latency = |seed: u64| {
            let sender = Sender::on_pair(8, 6, 2);
            let (mut nodes, mut k) = line(|c| c, sender, seed);
            run(&mut nodes, &mut k, 1..200);
            nodes[1].stats().total_packet_latency
        };
        assert_eq!(latency(11), latency(11));
    }

    /// Capacity-bearing pointers of the sweep's and the routers' reusable
    /// hot-path buffers.
    fn scratch_fingerprint(k: &MeshKernel, nodes: &[NetworkNode]) -> Vec<usize> {
        let mut fp = vec![
            k.busy.as_ptr() as usize,
            k.sa_cand.as_ptr() as usize,
            k.route_scratch.as_ptr() as usize,
            k.downstream_scratch.as_ptr() as usize,
            k.vca_scratch.as_ptr() as usize,
            k.staged_count.as_ptr() as usize,
            k.outbox.as_ptr() as usize,
        ];
        for n in nodes {
            let r = &n.router;
            fp.extend([
                r.masks.as_ptr() as usize,
                r.staged.as_ptr() as usize,
                r.staged_drops.as_ptr() as usize,
                r.delivered.as_ptr() as usize,
            ]);
        }
        fp
    }

    #[test]
    fn steady_state_posedge_reuses_scratch_allocations() {
        // Saturate a line of two full tile blocks plus a partial one with
        // continuous traffic, warm the scratch buffers up, then assert their
        // backing allocations stay put for a thousand busy cycles: the
        // zero-allocation hot-path guarantee, across block boundaries.
        let n = 2 * TILE_BLOCK + 3;
        let (mut nodes, mut k) = saturated_line(n, 21);
        run(&mut nodes, &mut k, 1..201);
        let fp = scratch_fingerprint(&k, &nodes);
        for now in 201..=1200 {
            run(&mut nodes, &mut k, now..now + 1);
            assert_eq!(
                scratch_fingerprint(&k, &nodes),
                fp,
                "cycle {now}: scratch moved"
            );
        }
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.stats().delivered_flits > 200,
                "tile {i}: traffic must actually flow"
            );
        }
    }
}
