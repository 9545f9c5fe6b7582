//! Property-based tests of the core data-structure and protocol invariants.

use hornet::mem::cache::{Cache, CacheConfig, LineState};
use hornet::mem::directory::{DirState, DirectorySlice};
use hornet::mem::msg::MemMessage;
use hornet::net::flit::{Flit, Packet};
use hornet::net::geometry::Geometry;
use hornet::net::ids::NodeId;
use hornet::net::ids::{FlowId, PacketId};
use hornet::net::routing::{build_routing, trace_route, FlowSpec, RoutingKind};
use hornet::net::vcbuf::VcRings;
use hornet::traffic::trace::{Trace, TraceEvent};
use proptest::prelude::*;

/// The one flit of a single-flit packet, visible from cycle 0.
fn one_flit_packet() -> Flit {
    Packet::new(
        PacketId::new(1),
        FlowId::new(0),
        NodeId::new(0),
        NodeId::new(1),
        1,
        0,
    )
    .to_flits(0)[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every routing scheme delivers every flow over links that exist, for
    /// random mesh sizes and random flow subsets.
    #[test]
    fn routing_always_reaches_the_destination(
        width in 2usize..6,
        height in 2usize..6,
        pairs in proptest::collection::vec((0usize..36, 0usize..36), 1..20),
        kind_idx in 0usize..6,
    ) {
        let geometry = Geometry::mesh2d(width, height);
        let n = geometry.node_count();
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| FlowSpec::pair(NodeId::from(a), NodeId::from(b), n))
            .collect();
        prop_assume!(!flows.is_empty());
        let kinds = [
            RoutingKind::Xy,
            RoutingKind::Yx,
            RoutingKind::O1Turn,
            RoutingKind::Romm,
            RoutingKind::Prom,
            RoutingKind::StaticLoadBalanced,
        ];
        let policies = build_routing(kinds[kind_idx], &geometry, &flows);
        for f in &flows {
            let path = trace_route(&policies, f.src, f.dst, f.flow, 4 * (width + height))
                .expect("route exists");
            prop_assert_eq!(*path.last().unwrap(), f.dst);
            for w in path.windows(2) {
                prop_assert!(geometry.connected(w[0], w[1]));
            }
        }
    }

    /// A router's VC ring never exceeds its capacity, never loses flits, and
    /// preserves FIFO order for any interleaving of pushes and pops — with
    /// the ring sharing its router's flit array with neighbouring rings that
    /// stay full throughout.
    #[test]
    fn vc_buffer_is_a_bounded_fifo(
        capacity in 1usize..8,
        ops in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let template = one_flit_packet();
        let mut rings = VcRings::with_capacities([2, capacity, 3]);
        for (vc, n) in [(0, 2), (2, 3)] {
            for _ in 0..n {
                prop_assert!(rings.push(vc, template));
            }
        }
        let mut pushed = 0u32;
        let mut popped = 0u32;
        for push in ops {
            if push {
                let mut flit = template;
                flit.seq = pushed;
                if rings.push(1, flit) {
                    pushed += 1;
                }
            } else {
                rings.absorb(1);
                if let Some(f) = rings.pop(1, u64::MAX) {
                    prop_assert_eq!(f.seq, popped, "FIFO order violated");
                    popped += 1;
                }
            }
            prop_assert!(rings.occupancy(1) <= capacity);
            prop_assert_eq!(rings.occupancy(1) as u32, pushed - popped);
            prop_assert_eq!(rings.buffered() as u32, 5 + pushed - popped);
        }
        for (vc, n) in [(0, 2), (2, 3)] {
            prop_assert_eq!(rings.occupancy(vc), n, "a neighbouring ring changed");
        }
    }

    /// The router's VC rings behave exactly like a capacity-bounded
    /// two-segment `VecDeque` reference model per VC under any sequence of
    /// push / absorb / pop / snapshot-and-restore operations: same accept
    /// decisions, same absorb counts, same popped values and heads, same
    /// occupancy and absorb boundaries. A snapshot split at the absorb
    /// boundary and restored into fresh rings must carry on identically.
    #[test]
    fn vc_ring_matches_vecdeque_reference(
        capacities in proptest::collection::vec(1usize..6, 1..4),
        ops in proptest::collection::vec((0u8..8, 0usize..4, any::<bool>()), 1..200),
    ) {
        use std::collections::VecDeque;
        let template = one_flit_packet();
        let mut rings = VcRings::with_capacities(capacities.clone());
        // Reference model per VC: `pending` holds deposited-but-unabsorbed
        // flits, `absorbed` the ones visible to the owner.
        let mut pending: Vec<VecDeque<u32>> = vec![VecDeque::new(); capacities.len()];
        let mut absorbed: Vec<VecDeque<u32>> = vec![VecDeque::new(); capacities.len()];
        let mut next_seq = 0u32;
        for (op, vc, flag) in ops {
            let vc = vc % capacities.len();
            match op {
                // Push (weighted 3/8 so buffers actually fill up).
                0..=2 => {
                    let mut flit = template;
                    flit.seq = next_seq;
                    // Odd flits become visible at cycle 1, even ones at 0.
                    flit.visible_at = u64::from(next_seq % 2);
                    let accepted = rings.push(vc, flit);
                    let model_accepts = pending[vc].len() + absorbed[vc].len() < capacities[vc];
                    prop_assert_eq!(accepted, model_accepts, "push decision diverged");
                    if accepted {
                        pending[vc].push_back(next_seq);
                        next_seq += 1;
                    }
                }
                // Absorb: every pending flit becomes visible, and the count
                // is reported (the absorbed-flit statistic).
                3 => {
                    let n = rings.absorb(vc);
                    prop_assert_eq!(n, pending[vc].len(), "absorb count diverged");
                    let moved: Vec<u32> = pending[vc].drain(..).collect();
                    absorbed[vc].extend(moved);
                }
                // Pop at cycle 0 or 1: an odd head is not yet due at 0.
                4..=6 => {
                    let now = u64::from(flag);
                    let popped = rings.pop(vc, now);
                    let model_pops = absorbed[vc]
                        .front()
                        .is_some_and(|&seq| u64::from(seq % 2) <= now);
                    prop_assert_eq!(popped.is_some(), model_pops, "pop decision diverged");
                    if let Some(f) = popped {
                        let expect = absorbed[vc].pop_front().unwrap();
                        prop_assert_eq!(f.seq, expect, "pop order diverged");
                    }
                }
                // Checkpoint: split every VC at its absorb boundary and
                // carry on in fresh rings restored from the split.
                _ => {
                    let mut fresh = VcRings::with_capacities(capacities.clone());
                    for v in 0..capacities.len() {
                        let (visible, deposited) = rings.snapshot_split(v);
                        let seqs = |fs: &[Flit]| {
                            fs.iter().map(|f| f.seq).collect::<Vec<_>>()
                        };
                        prop_assert_eq!(seqs(&visible), Vec::from(absorbed[v].clone()));
                        prop_assert_eq!(seqs(&deposited), Vec::from(pending[v].clone()));
                        fresh.restore_split(v, &visible, &deposited);
                    }
                    rings = fresh;
                }
            }
            let mut buffered = 0;
            for v in 0..capacities.len() {
                let resident = pending[v].len() + absorbed[v].len();
                buffered += resident;
                prop_assert_eq!(rings.occupancy(v), resident);
                prop_assert_eq!(rings.free_space(v), capacities[v] - resident);
                prop_assert_eq!(rings.unabsorbed(v), pending[v].len());
                let head = rings.head(v).map(|f| f.seq);
                prop_assert_eq!(head, absorbed[v].front().copied(), "head diverged");
            }
            prop_assert_eq!(rings.buffered(), buffered);
        }
    }

    /// Cache occupancy never exceeds its configured capacity and lookups
    /// after insertion always hit.
    #[test]
    fn cache_respects_capacity(
        lines in proptest::collection::vec(0u64..64, 1..100),
    ) {
        let config = CacheConfig { sets: 4, ways: 2, line_bytes: 64 };
        let mut cache = Cache::new(config);
        for &line in &lines {
            cache.insert(line, LineState::Shared, line);
            prop_assert!(cache.len() <= config.sets * config.ways);
            prop_assert_eq!(cache.peek(line), Some((LineState::Shared, line)));
        }
    }

    /// The directory never records two owners, and a modified owner excludes
    /// sharers, under any interleaving of GetS/GetM requests (each fetch or
    /// invalidation answered immediately).
    #[test]
    fn msi_directory_single_writer_invariant(
        requests in proptest::collection::vec((0u64..4, 0u32..4, any::<bool>()), 1..60),
    ) {
        let mut dir = DirectorySlice::new();
        for (line, node, exclusive) in requests {
            let requester = NodeId::new(node);
            let out = if exclusive {
                dir.handle(MemMessage::GetM { line, requester })
            } else {
                dir.handle(MemMessage::GetS { line, requester })
            };
            for o in out {
                match o.msg {
                    MemMessage::Fetch { line, .. } => {
                        dir.handle(MemMessage::PutM { line, value: 0, from: o.dst });
                    }
                    MemMessage::Invalidate { line } => {
                        dir.handle(MemMessage::InvAck { line, from: o.dst });
                    }
                    _ => {}
                }
            }
            match dir.state_of(line) {
                DirState::Modified(_) | DirState::Uncached => {}
                DirState::Shared(sharers) => prop_assert!(!sharers.is_empty()),
            }
        }
    }

    /// The text trace format round-trips for arbitrary events.
    #[test]
    fn trace_text_format_roundtrips(
        events in proptest::collection::vec(
            (0u64..1_000_000, 0usize..64, 0usize..64, 1u32..32, proptest::option::of(1u64..10_000)),
            0..50,
        ),
    ) {
        let trace = Trace::new(
            events
                .into_iter()
                .map(|(t, s, d, size, period)| TraceEvent {
                    timestamp: t,
                    src: NodeId::from(s),
                    dst: NodeId::from(d),
                    size,
                    period,
                })
                .collect(),
        );
        let parsed = Trace::parse(&trace.to_text()).expect("round-trips");
        prop_assert_eq!(parsed, trace);
    }

    /// Flit conservation: for random loads, every injected packet is either
    /// delivered or still buffered when the run stops; nothing is duplicated
    /// or silently dropped.
    #[test]
    fn flit_conservation_under_random_load(rate in 0.001f64..0.08, seed in 0u64..1000) {
        use hornet::prelude::*;
        use hornet::traffic::pattern::SyntheticPattern;
        let report = SimulationBuilder::new()
            .geometry(Geometry::mesh2d(3, 3))
            .traffic(TrafficKind::pattern(SyntheticPattern::UniformRandom, rate))
            .measured_cycles(800)
            .seed(seed)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let stats = &report.network;
        prop_assert!(stats.delivered_flits <= stats.injected_flits);
        prop_assert_eq!(stats.routing_failures, 0);
        prop_assert!(stats.delivered_packets <= stats.injected_packets);
        // Whatever was not delivered is bounded by what the network can hold.
        let undelivered = stats.injected_flits - stats.delivered_flits;
        let max_in_flight = 9 * (4 * 4 * 5 + 4 * 8) as u64; // buffers per node
        prop_assert!(undelivered <= max_in_flight, "undelivered {undelivered}");
    }
}
