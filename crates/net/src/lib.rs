//! # hornet-net
//!
//! The network substrate of HORNET-RS: a cycle-level model of an
//! ingress-queued virtual-channel wormhole router network-on-chip, as
//! described in *"Scalable, accurate multicore simulation in the 1000-core
//! era"* (Lis et al., ISPASS 2011).
//!
//! The crate provides:
//!
//! * [`geometry`] — interconnect geometries (meshes, tori, rings, multi-layer
//!   meshes, custom connection lists);
//! * [`routing`] — table-driven oblivious/static routing (XY, YX, O1TURN,
//!   Valiant, ROMM, PROM, load-balanced static) and minimal adaptive routing;
//! * [`vca`] — virtual-channel allocation (dynamic, static-set,
//!   phase-separated, EDVCA, FAA, explicit tables);
//! * [`router`] — the router's ports, per-VC state and predicate masks;
//! * [`kernel`] — the RC/VA/SA/ST router pipeline with randomized
//!   arbitration, swept stage by stage across a set of tiles;
//! * [`vcbuf`] — the lock-free SPSC ingress VC buffer shared between tiles;
//! * [`boundary`] — lock-free SPSC flit/credit mailboxes for links cut
//!   between two shards of a partitioned parallel simulation;
//! * [`link`] — bandwidth-adaptive bidirectional links;
//! * [`bridge`] / [`agent`] — the packet-level interface between routers and
//!   attached cores, injectors and memory controllers;
//! * [`network`] — assembly plus the single-threaded simulator;
//! * [`ideal`] — the congestion-oblivious baseline network model;
//! * [`stats`] — per-tile statistics that travel with the flits.
//!
//! # Example
//!
//! ```
//! use hornet_net::config::NetworkConfig;
//! use hornet_net::geometry::Geometry;
//! use hornet_net::network::Network;
//! use hornet_net::routing::{FlowSpec, RoutingKind};
//! use hornet_net::ids::NodeId;
//!
//! let flows = vec![FlowSpec::pair(NodeId::new(0), NodeId::new(8), 9)];
//! let config = NetworkConfig::new(Geometry::mesh2d(3, 3))
//!     .with_routing(RoutingKind::Xy)
//!     .with_flows(flows);
//! let network = Network::new(&config, 42).expect("valid configuration");
//! assert_eq!(network.node_count(), 9);
//! ```

pub mod agent;
pub mod boundary;
pub mod bridge;
pub mod codec;
pub mod config;
pub mod flit;
pub mod geometry;
pub mod ideal;
pub mod ids;
pub mod kernel;
pub mod link;
pub mod network;
pub mod payload;
pub mod router;
pub mod routing;
pub mod spsc;
pub mod stats;
pub mod vca;
pub mod vcbuf;

pub use agent::{NodeAgent, NodeIo};
pub use config::NetworkConfig;
pub use flit::{DeliveredPacket, Flit, Packet};
pub use geometry::Geometry;
pub use ids::{Cycle, FlowId, NodeId, PacketId, PortId, VcId};
pub use kernel::{KernelMode, MeshKernel, StageTimes};
pub use network::{Network, NetworkNode};
pub use routing::{FlowSpec, RoutingKind};
pub use stats::NetworkStats;
pub use vca::VcAllocKind;
