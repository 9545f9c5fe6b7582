//! The per-node routing table: `⟨prev node, flow⟩ → {⟨next node, next flow, weight⟩}`.
//!
//! # Layout
//!
//! A table is built in two steps. A [`RoutingTableBuilder`] appends one
//! 16-byte row per [`add`](RoutingTableBuilder::add): the key `⟨prev, flow⟩`
//! and the id of the option `(next node, next-flow phase, weight)`, interned
//! per builder. [`freeze`](RoutingTableBuilder::freeze) then turns the rows
//! into a [`RoutingTable`], the only type that answers lookups:
//!
//! - rows are stably sorted by key, but only if they arrived out of order
//!   (flows handed over in ascending order, as `SimulationBuilder` does,
//!   yield sorted rows for every single-path scheme and for O1TURN);
//! - each key's options are merged in first-insertion order, summing the
//!   weights of repeated options left to right;
//! - each merged option list is interned: the table stores every distinct
//!   list once (XY on a 2-D mesh needs at most five per node: one per link plus
//!   local delivery);
//! - every key maps to its `u32` list id in one linear-probing index of
//!   16-byte slots, ¾ full, addressed by a multiplicative hash, so a lookup
//!   is one hash and nearly always one cache line.
//!
//! [`normalize`](RoutingTable::normalize) scales each interned list in place.
//!
//! # Contract
//!
//! Every scheme renames only a flow's *phase* (see [`FlowId::with_phase`]):
//! an option's next flow shares the base of the flow it was looked up with.
//! The table therefore stores the next flow's phase alone, and
//! [`add`](RoutingTableBuilder::add) asserts the contract.

use crate::ids::{FlowId, NodeId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One weighted next-hop option returned by a routing-table lookup.
///
/// `next_node == <current node>` denotes delivery to the locally attached
/// agent (the packet has reached its destination).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NextHop {
    /// Node to forward the packet to (or the current node, for delivery).
    pub next_node: NodeId,
    /// Flow identifier the packet is renamed to when taking this hop.
    pub next_flow: FlowId,
    /// Relative selection weight (need not be normalised).
    pub weight: f64,
}

/// An option as stored: the next flow is kept as its phase alone.
/// Equality and hashing compare the weight bit for bit.
#[derive(Copy, Clone, Debug)]
struct Hop {
    weight: f64,
    next_node: NodeId,
    phase: u8,
}

impl Hop {
    fn same_target(&self, other: &Hop) -> bool {
        self.next_node == other.next_node && self.phase == other.phase
    }
}

impl PartialEq for Hop {
    fn eq(&self, other: &Self) -> bool {
        self.same_target(other) && self.weight.to_bits() == other.weight.to_bits()
    }
}

impl Eq for Hop {}

impl Hash for Hop {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.weight.to_bits());
        state.write_u32(self.next_node.raw());
        state.write_u8(self.phase);
    }
}

/// Multiplier of the index hash (2^64 / φ, as in Fibonacci hashing).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One `add` call: the key and the interned option.
#[derive(Copy, Clone, Debug)]
struct Row {
    flow: u64,
    prev: u32,
    hop: u32,
}

impl Row {
    /// Build order: base flow, then phase, then previous node. Any total
    /// order groups equal keys; this one keeps O1TURN's rows sorted.
    fn order(&self) -> (u64, u32) {
        (self.flow.rotate_left(8), self.prev)
    }

    fn same_key(&self, other: &Row) -> bool {
        self.flow == other.flow && self.prev == other.prev
    }
}

/// Collects the rows of one node's routing table; [`freeze`](Self::freeze)
/// turns them into a [`RoutingTable`].
#[derive(Clone, Debug, Default)]
pub struct RoutingTableBuilder {
    rows: Vec<Row>,
    hops: Vec<Hop>,
    hop_ids: HashMap<Hop, u32>,
    last_hop: u32,
}

impl RoutingTableBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds weight `weight` to the option `(next_node, next_flow)` of the
    /// entry addressed by `(prev, flow)`, creating either if absent.
    ///
    /// Accumulating weights lets multi-phase table generators (Valiant, ROMM)
    /// express "several routes with different intermediate destinations but
    /// the same next hop" as a single weighted entry.
    ///
    /// # Panics
    ///
    /// Panics if `next_flow` does not share `flow`'s base (a scheme may only
    /// rename the phase).
    pub fn add(
        &mut self,
        prev: NodeId,
        flow: FlowId,
        next_node: NodeId,
        next_flow: FlowId,
        weight: f64,
    ) {
        assert_eq!(
            next_flow.base(),
            flow.base(),
            "a routing option may only rename the flow's phase"
        );
        let hop = Hop {
            weight,
            next_node,
            phase: next_flow.phase(),
        };
        let id = match self.hops.get(self.last_hop as usize) {
            Some(last) if *last == hop => self.last_hop,
            _ => *self.hop_ids.entry(hop).or_insert_with(|| {
                self.hops.push(hop);
                u32::try_from(self.hops.len() - 1).expect("fewer than 2^32 options per node")
            }),
        };
        self.last_hop = id;
        self.rows.push(Row {
            flow: flow.raw(),
            prev: prev.raw(),
            hop: id,
        });
    }

    /// Merges, interns and indexes the rows: the single point after which
    /// the table can be looked up.
    pub fn freeze(self) -> RoutingTable {
        let Self { mut rows, hops, .. } = self;
        if !rows.windows(2).all(|w| w[0].order() <= w[1].order()) {
            rows.sort_by_key(Row::order);
        }
        let keys = rows.chunk_by(Row::same_key).count();
        let mut table = RoutingTable::with_capacity(keys);
        let mut list_ids: HashMap<Box<[Hop]>, u32> = HashMap::new();
        let mut merged: Vec<Hop> = Vec::new();
        let mut last_list: Option<u32> = None;
        for group in rows.chunk_by(Row::same_key) {
            merged.clear();
            for row in group {
                let hop = hops[row.hop as usize];
                match merged.iter_mut().find(|m| m.same_target(&hop)) {
                    Some(m) => m.weight += hop.weight,
                    None => merged.push(hop),
                }
            }
            let list = match last_list {
                Some(id) if table.list(id) == merged.as_slice() => id,
                _ => match list_ids.get(merged.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = table.push_list(&merged);
                        list_ids.insert(merged.as_slice().into(), id);
                        id
                    }
                },
            };
            last_list = Some(list);
            table.insert(group[0].prev, group[0].flow, list);
        }
        table
    }
}

/// One index slot: a `⟨prev, flow⟩` key and its list id (`EMPTY` if free).
#[derive(Copy, Clone, Debug)]
struct Slot {
    flow: u64,
    prev: u32,
    list: u32,
}

const EMPTY: u32 = u32::MAX;

/// A frozen per-node routing table.
///
/// Lookups are addressed by `⟨previous node, flow⟩`; the previous node of a
/// locally injected packet is the node itself, exactly as in the paper's
/// example for XY routing. See the [module docs](self) for the layout.
#[derive(Clone)]
pub struct RoutingTable {
    /// Linear-probing index, at most ¾ full (so at least one slot is free).
    slots: Box<[Slot]>,
    len: usize,
    /// List `i` is `hops[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    hops: Vec<Hop>,
}

impl std::fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTable")
            .field("entries", &self.len)
            .field("lists", &self.list_count())
            .finish()
    }
}

impl RoutingTable {
    /// An empty table whose index holds `keys` keys at a load of ¾.
    fn with_capacity(keys: usize) -> Self {
        let capacity = keys + keys / 3 + 1;
        Self {
            slots: vec![
                Slot {
                    flow: 0,
                    prev: 0,
                    list: EMPTY,
                };
                capacity
            ]
            .into_boxed_slice(),
            len: 0,
            starts: vec![0],
            hops: Vec::new(),
        }
    }

    /// The key's first probe: a multiplicative hash scaled onto the slots
    /// by its high bits, so the index needs no power-of-two size.
    fn home(&self, prev: u32, flow: u64) -> usize {
        let h = (flow ^ (prev as u64).wrapping_mul(MUL)).wrapping_mul(MUL);
        ((h as u128 * self.slots.len() as u128) >> 64) as usize
    }

    fn next_slot(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    fn list(&self, id: u32) -> &[Hop] {
        let id = id as usize;
        &self.hops[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    fn push_list(&mut self, hops: &[Hop]) -> u32 {
        self.hops.extend_from_slice(hops);
        let end = u32::try_from(self.hops.len()).expect("fewer than 2^32 list options per node");
        self.starts.push(end);
        // Lists are never empty, so ids stay below `end` and never reach EMPTY.
        (self.starts.len() - 2) as u32
    }

    /// Inserts a key known to be absent.
    fn insert(&mut self, prev: u32, flow: u64, list: u32) {
        let mut i = self.home(prev, flow);
        while self.slots[i].list != EMPTY {
            i = self.next_slot(i);
        }
        self.slots[i] = Slot { flow, prev, list };
        self.len += 1;
    }

    fn find(&self, prev: NodeId, flow: FlowId) -> &[Hop] {
        let (prev, flow) = (prev.raw(), flow.raw());
        let mut i = self.home(prev, flow);
        loop {
            let slot = &self.slots[i];
            if slot.list == EMPTY {
                return &[];
            }
            if slot.flow == flow && slot.prev == prev {
                return self.list(slot.list);
            }
            i = self.next_slot(i);
        }
    }

    /// Looks up the weighted next-hop set for `(prev, flow)`, in the order
    /// the options were first added.
    ///
    /// Yields nothing when the table has no entry (a mis-configured flow);
    /// the router counts such packets as routing failures.
    pub fn lookup(
        &self,
        prev: NodeId,
        flow: FlowId,
    ) -> impl ExactSizeIterator<Item = NextHop> + '_ {
        self.find(prev, flow).iter().map(move |h| NextHop {
            next_node: h.next_node,
            next_flow: flow.with_phase(h.phase),
            weight: h.weight,
        })
    }

    /// Number of `(prev, flow)` entries in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct option lists the entries share.
    pub fn list_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Normalises every option list's weights to sum to 1.0 (lists whose
    /// weights sum to zero are left untouched).
    pub fn normalize(&mut self) {
        for w in self.starts.windows(2) {
            let options = &mut self.hops[w[0] as usize..w[1] as usize];
            let total: f64 = options.iter().map(|o| o.weight).sum();
            if total > 0.0 {
                for o in options.iter_mut() {
                    o.weight /= total;
                }
            }
        }
    }
}

/// Freezes and normalises one builder per node, releasing each builder's
/// rows as soon as its table exists.
pub(crate) fn freeze_normalized(builders: Vec<RoutingTableBuilder>) -> Vec<RoutingTable> {
    builders
        .into_iter()
        .map(|b| {
            let mut t = b.freeze();
            t.normalize();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn f(i: u64) -> FlowId {
        FlowId::new(i)
    }
    fn options(t: &RoutingTable, prev: NodeId, flow: FlowId) -> Vec<NextHop> {
        t.lookup(prev, flow).collect()
    }

    #[test]
    fn add_and_lookup() {
        let mut b = RoutingTableBuilder::new();
        b.add(n(6), f(1), n(7), f(1), 1.0);
        let t = b.freeze();
        assert_eq!(t.lookup(n(6), f(1)).len(), 1);
        assert_eq!(t.lookup(n(6), f(2)).len(), 0);
        assert_eq!(t.lookup(n(5), f(1)).len(), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn weights_accumulate_for_same_option() {
        // Interleaved keys, flows out of order (forcing the sort), repeated
        // options: each key keeps its options in first-insertion order with
        // weights summed left to right.
        let adds: &[(u32, FlowId, u32, FlowId, f64)] = &[
            (0, f(9), 1, f(9), 0.1),
            (0, f(1), 1, f(1), 1.0),
            (3, f(1), 2, f(1).with_phase(1), 0.2),
            (0, f(9), 2, f(9), 0.7),
            (0, f(1), 1, f(1), 2.0),
            (0, f(9), 1, f(9), 0.2),
            (0, f(1), 2, f(1), 1.0),
            (3, f(1), 2, f(1).with_phase(1), 0.1),
            (0, f(9), 1, f(9), 0.3),
            (0, f(1), 1, f(1).with_phase(1), 0.5),
            (3, f(1), 4, f(1), 0.3),
            (0, f(9), 2, f(9), 1e-17),
        ];
        let mut b = RoutingTableBuilder::new();
        for &(prev, flow, next, next_flow, w) in adds {
            b.add(n(prev), flow, n(next), next_flow, w);
        }
        // The reference: the per-key option vectors the adds describe.
        let mut expected: Vec<((u32, FlowId), Vec<NextHop>)> = Vec::new();
        for &(prev, flow, next, next_flow, w) in adds {
            let key = (prev, flow);
            let idx = match expected.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    expected.push((key, Vec::new()));
                    expected.len() - 1
                }
            };
            let opts = &mut expected[idx].1;
            match opts
                .iter_mut()
                .find(|o| o.next_node == n(next) && o.next_flow == next_flow)
            {
                Some(o) => o.weight += w,
                None => opts.push(NextHop {
                    next_node: n(next),
                    next_flow,
                    weight: w,
                }),
            }
        }
        let same_bits = |got: &[NextHop], want: &[NextHop]| {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!((g.next_node, g.next_flow), (w.next_node, w.next_flow));
                assert_eq!(
                    g.weight.to_bits(),
                    w.weight.to_bits(),
                    "{got:?} vs {want:?}"
                );
            }
        };
        let mut t = b.freeze();
        assert_eq!(t.len(), expected.len());
        for ((prev, flow), want) in &expected {
            same_bits(&options(&t, n(*prev), *flow), want);
        }
        // (0, f1) sums 1.0 + 2.0 for its first option.
        assert_eq!(options(&t, n(0), f(1))[0].weight, 3.0);

        t.normalize();
        for ((prev, flow), want) in &mut expected {
            let total: f64 = want.iter().map(|o| o.weight).sum();
            for o in want.iter_mut() {
                o.weight /= total;
            }
            same_bits(&options(&t, n(*prev), *flow), want);
        }
    }

    #[test]
    fn renamed_flows_are_distinct_options() {
        let mut b = RoutingTableBuilder::new();
        b.add(n(0), f(1), n(1), f(1), 1.0);
        b.add(n(0), f(1), n(1), f(1).with_phase(1), 1.0);
        let t = b.freeze();
        assert_eq!(t.lookup(n(0), f(1)).len(), 2);
        assert_eq!(
            t.lookup(n(0), f(1).with_phase(1)).len(),
            0,
            "phases are distinct keys"
        );
    }

    #[test]
    #[should_panic(expected = "rename the flow's phase")]
    fn renaming_to_another_base_flow_is_rejected() {
        RoutingTableBuilder::new().add(n(0), f(1), n(1), f(2), 1.0);
    }

    #[test]
    fn equal_option_lists_are_interned_once() {
        let mut b = RoutingTableBuilder::new();
        for flow in 0..100 {
            b.add(n(0), f(flow), n(1 + flow as u32 % 2), f(flow), 1.0);
        }
        let t = b.freeze();
        assert_eq!(t.len(), 100);
        assert_eq!(t.list_count(), 2);
        assert_eq!(options(&t, n(0), f(7))[0].next_node, n(2));
    }

    #[test]
    fn normalize_scales_weights() {
        let mut b = RoutingTableBuilder::new();
        b.add(n(0), f(1), n(1), f(1), 1.0);
        b.add(n(0), f(1), n(2), f(1), 3.0);
        let mut t = b.freeze();
        t.normalize();
        let options = options(&t, n(0), f(1));
        let total: f64 = options.iter().map(|o| o.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let w2 = options.iter().find(|o| o.next_node == n(2)).unwrap().weight;
        assert!((w2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = RoutingTableBuilder::new().freeze();
        assert!(t.is_empty());
        assert_eq!(t.list_count(), 0);
        assert_eq!(t.lookup(n(0), f(0)).len(), 0);
    }
}
