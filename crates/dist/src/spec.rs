//! The distributed workload specification.
//!
//! A [`DistSpec`] is everything a worker process needs to rebuild its slice
//! of the simulated system bit-exactly: mesh geometry, router parameters,
//! routing/VCA algorithms, the synthetic traffic workload, the master seed,
//! the synchronization mode and the run shape. The coordinator serializes
//! the spec once and ships it to every worker; each worker deterministically
//! reconstructs the *full* network (per-tile PRNG seeds are derived from the
//! master seed, so construction is cheap and identical everywhere) and keeps
//! only the tiles its shard owns.

use crate::wire::{Dec, Enc};
use hornet_cpu::agent::{CoreAgent, CoreConfig};
use hornet_cpu::programs::{token_ring_program, vector_sum_program};
use hornet_net::config::{ConfigError, NetworkConfig};
use hornet_net::geometry::Geometry;
use hornet_net::ids::NodeId;
use hornet_net::kernel::KernelMode;
use hornet_net::network::Network;
use hornet_net::routing::{FlowSpec, RoutingKind};
use hornet_net::stats::NetworkStats;
use hornet_net::vca::VcAllocKind;
use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::io;
use std::sync::Arc;

/// Synchronization mode of a distributed run (mirrors the engine's
/// `SyncMode` without depending on `hornet-core`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DistSync {
    /// Lock-step neighbor synchronization with strict cycle-stamped
    /// transport consumption: bit-identical to sequential simulation.
    CycleAccurate,
    /// Neighbors may drift up to `k` cycles apart.
    Slack(u64),
    /// Drift checks batched every `n` cycles.
    Periodic(u64),
}

impl DistSync {
    /// `(slack, quantum, strict)` for the worker loop. (The thread backend's
    /// `barrier_batches` re-zeroing has no distributed equivalent — periodic
    /// batches stay neighbor-synchronized.)
    pub fn params(self) -> (u64, u64, bool) {
        match self {
            DistSync::CycleAccurate => (0, 1, true),
            DistSync::Slack(k) => (k, 1, k == 0),
            DistSync::Periodic(n) => {
                let n = n.max(1);
                (0, n, n == 1)
            }
        }
    }

    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            DistSync::CycleAccurate => "cycle-accurate".into(),
            DistSync::Slack(k) => format!("slack-{k}"),
            DistSync::Periodic(n) => format!("sync-every-{n}"),
        }
    }
}

/// What runs on the tiles.
///
/// Every variant is rebuilt deterministically from the spec alone, so all
/// worker processes construct identical agents. Payload-bearing workloads
/// (the memory hierarchy and the MIPS-like cores) work across process
/// boundaries because packet payloads travel the boundary transports with
/// their tail flits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistWorkload {
    /// Synthetic pattern/process injectors, configured by the spec's
    /// `pattern`/`process`/`packet_len`/`max_packets`/`stop_after` fields.
    Synthetic,
    /// One MIPS-like core per tile running the vector-sum program over MSI
    /// coherence: node `i` stores and re-loads `count` words from
    /// `base_stride * (i + 1)`, whose lines are interleaved across all
    /// tiles — every miss crosses the network with a protocol payload.
    MemVectorSum {
        /// Per-node base address stride.
        base_stride: u64,
        /// Words per node.
        count: u64,
    },
    /// One MIPS-like core per tile passing a token once around the ring of
    /// all nodes (user-level MPI-style payloads).
    CpuTokenRing,
}

impl DistWorkload {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DistWorkload::Synthetic => "synthetic",
            DistWorkload::MemVectorSum { .. } => "mem-vector-sum",
            DistWorkload::CpuTokenRing => "cpu-token-ring",
        }
    }
}

/// The shape of a run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// Simulate exactly this many cycles.
    Cycles(u64),
    /// Run until every agent completes and the network drains (detected by
    /// credit-counting termination), bounded by `max` cycles.
    ToCompletion {
        /// Upper bound on simulated cycles.
        max: u64,
    },
}

/// A complete distributed workload description.
#[derive(Clone, Debug, PartialEq)]
pub struct DistSpec {
    /// Mesh width.
    pub width: u32,
    /// Mesh height.
    pub height: u32,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// VC allocation algorithm.
    pub vca: VcAllocKind,
    /// Virtual channels per router-facing port.
    pub vcs_per_port: u32,
    /// Depth of each router-facing VC buffer, in flits.
    pub vc_capacity: u32,
    /// Virtual channels on the injection port.
    pub injection_vcs: u32,
    /// Depth of each injection VC buffer.
    pub injection_vc_capacity: u32,
    /// Link bandwidth in flits/cycle.
    pub link_bandwidth: u32,
    /// Ejection bandwidth in flits/cycle.
    pub ejection_bandwidth: u32,
    /// What runs on the tiles.
    pub workload: DistWorkload,
    /// Synthetic destination pattern.
    pub pattern: SyntheticPattern,
    /// Injection process.
    pub process: InjectionProcess,
    /// Packet length in flits.
    pub packet_len: u32,
    /// Per-node cap on offered packets.
    pub max_packets: Option<u64>,
    /// Stop offering packets after this cycle.
    pub stop_after: Option<u64>,
    /// Master seed (per-tile PRNGs derive from it).
    pub seed: u64,
    /// Synchronization mode.
    pub sync: DistSync,
    /// Run shape.
    pub run: RunKind,
    /// Skip idle periods by jumping all clocks to the next event.
    pub fast_forward: bool,
    /// Capture a resumable checkpoint every this many cycles (strict modes
    /// only — loose synchronization has no consistent rendezvous cut).
    pub checkpoint_every: Option<u64>,
    /// Ship a telemetry sample to the coordinator every this many cycles.
    pub telemetry_every: Option<u64>,
    /// Per-tile event-trace ring capacity (tracing off when `None`).
    pub trace_capacity: Option<u32>,
    /// Selects nothing (there is one router pipeline) and is not sent on
    /// the wire; kept only so the benchmark's spec literals keep compiling.
    pub kernel: KernelMode,
}

impl Default for DistSpec {
    fn default() -> Self {
        Self {
            width: 8,
            height: 8,
            routing: RoutingKind::Xy,
            vca: VcAllocKind::Dynamic,
            vcs_per_port: 4,
            vc_capacity: 4,
            injection_vcs: 4,
            injection_vc_capacity: 8,
            link_bandwidth: 1,
            ejection_bandwidth: 1,
            workload: DistWorkload::Synthetic,
            pattern: SyntheticPattern::Transpose,
            process: InjectionProcess::Bernoulli { rate: 0.05 },
            packet_len: 4,
            max_packets: None,
            stop_after: None,
            seed: 1,
            sync: DistSync::CycleAccurate,
            run: RunKind::Cycles(1_000),
            fast_forward: false,
            checkpoint_every: None,
            telemetry_every: None,
            trace_capacity: None,
            kernel: KernelMode::Auto,
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl DistSpec {
    /// Total tile count.
    pub fn node_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether this run needs the coordinator's termination detector.
    pub fn needs_detector(&self) -> bool {
        self.fast_forward || matches!(self.run, RunKind::ToCompletion { .. })
    }

    /// The cycle budget of the run.
    pub fn cycle_budget(&self) -> u64 {
        match self.run {
            RunKind::Cycles(n) => n,
            RunKind::ToCompletion { max } => max,
        }
    }

    /// `(slack, quantum)` headroom of the sync mode — how many cycles of
    /// per-cycle traffic a transport may see coalesced between batch
    /// ingests. Sizes shared-memory credit rings.
    pub fn sync_depth(&self) -> usize {
        let (slack, quantum, _) = self.sync.params();
        (slack + quantum) as usize
    }

    /// Cycles a socket transport may coalesce per flush: 1 (latency-optimal)
    /// for the bit-exact lock-step modes, the drift bound for loose modes.
    pub fn socket_batch(&self) -> u64 {
        let (slack, quantum, strict) = self.sync.params();
        if strict {
            1
        } else {
            slack.max(quantum).max(1)
        }
    }

    /// Builds the network configuration this spec describes.
    pub fn network_config(&self) -> NetworkConfig {
        let geometry = Geometry::mesh2d(self.width as usize, self.height as usize);
        let flows = match &self.workload {
            // Memory/CPU workloads route protocol traffic between arbitrary
            // pairs (directory homes are interleaved over all tiles).
            DistWorkload::MemVectorSum { .. } | DistWorkload::CpuTokenRing => {
                FlowSpec::all_to_all(&geometry)
            }
            DistWorkload::Synthetic => flows_for_pattern(&self.pattern, &geometry),
        };
        let mut cfg = NetworkConfig::new(geometry)
            .with_routing(self.routing)
            .with_vca(self.vca)
            .with_flows(flows);
        cfg.vcs_per_port = self.vcs_per_port as usize;
        cfg.vc_capacity = self.vc_capacity as usize;
        cfg.injection_vcs = self.injection_vcs as usize;
        cfg.injection_vc_capacity = self.injection_vc_capacity as usize;
        cfg.link_bandwidth = self.link_bandwidth;
        cfg.ejection_bandwidth = self.ejection_bandwidth;
        cfg
    }

    /// Builds the full network with one workload agent per tile —
    /// deterministic in `seed`, so every process reconstructs identical
    /// state.
    pub fn build_network(&self) -> Result<Network, ConfigError> {
        let cfg = self.network_config();
        let geometry = Arc::new(cfg.geometry.clone());
        let mut network = Network::new(&cfg, self.seed)?;
        let nodes = self.node_count();
        for node in geometry.nodes() {
            let agent: Box<dyn hornet_net::agent::NodeAgent> = match &self.workload {
                DistWorkload::Synthetic => Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: self.pattern.clone(),
                        process: self.process,
                        packet_len: self.packet_len,
                        stop_after: self.stop_after,
                        max_packets: self.max_packets,
                    },
                )),
                DistWorkload::MemVectorSum { base_stride, count } => Box::new(CoreAgent::new(
                    node,
                    nodes,
                    vector_sum_program(base_stride * (node.raw() as u64 + 1), *count),
                    CoreConfig::default(),
                )),
                DistWorkload::CpuTokenRing => Box::new(CoreAgent::new(
                    node,
                    nodes,
                    token_ring_program(node.index(), nodes),
                    CoreConfig::default(),
                )),
            };
            network.attach_agent(node, agent);
        }
        Ok(network)
    }

    /// Runs this workload sequentially in the current process — the
    /// reference every distributed CycleAccurate run must reproduce
    /// bit-exactly. Returns `(stats, final_cycle, completed)`.
    pub fn run_sequential(&self) -> Result<(NetworkStats, u64, bool), ConfigError> {
        let mut network = self.build_network()?;
        network.set_fast_forward(self.fast_forward);
        let completed = match self.run {
            RunKind::Cycles(n) => {
                network.run(n);
                true
            }
            RunKind::ToCompletion { max } => network.run_to_completion(max),
        };
        Ok((network.stats(), network.cycle(), completed))
    }

    /// Encodes the spec for the wire.
    pub fn encode(&self, e: &mut Enc) {
        e.u32(self.width).u32(self.height);
        e.u8(match self.routing {
            RoutingKind::Xy => 0,
            RoutingKind::Yx => 1,
            RoutingKind::O1Turn => 2,
            RoutingKind::Valiant => 3,
            RoutingKind::Romm => 4,
            RoutingKind::Prom => 5,
            RoutingKind::StaticLoadBalanced => 6,
            RoutingKind::AdaptiveMinimal => 7,
        });
        e.u8(match self.vca {
            VcAllocKind::Dynamic => 0,
            VcAllocKind::StaticSet => 1,
            VcAllocKind::Phased => 2,
            VcAllocKind::Edvca => 3,
            VcAllocKind::Faa => 4,
            VcAllocKind::Table => 5,
        });
        e.u32(self.vcs_per_port)
            .u32(self.vc_capacity)
            .u32(self.injection_vcs)
            .u32(self.injection_vc_capacity)
            .u32(self.link_bandwidth)
            .u32(self.ejection_bandwidth);
        match &self.pattern {
            SyntheticPattern::Transpose => {
                e.u8(0);
            }
            SyntheticPattern::BitComplement => {
                e.u8(1);
            }
            SyntheticPattern::Shuffle => {
                e.u8(2);
            }
            SyntheticPattern::UniformRandom => {
                e.u8(3);
            }
            SyntheticPattern::Hotspot(targets) => {
                e.u8(4).u32(targets.len() as u32);
                for t in targets {
                    e.u32(t.raw());
                }
            }
            SyntheticPattern::Tornado => {
                e.u8(5);
            }
            SyntheticPattern::NearestNeighbor => {
                e.u8(6);
            }
        }
        match self.process {
            InjectionProcess::Bernoulli { rate } => {
                e.u8(0).f64(rate);
            }
            InjectionProcess::Periodic { period, offset } => {
                e.u8(1).u64(period).u64(offset);
            }
            InjectionProcess::Burst { burst_len, gap } => {
                e.u8(2).u32(burst_len).u64(gap);
            }
        }
        e.u32(self.packet_len);
        e.u8(u8::from(self.max_packets.is_some()))
            .u64(self.max_packets.unwrap_or(0));
        e.u8(u8::from(self.stop_after.is_some()))
            .u64(self.stop_after.unwrap_or(0));
        e.u64(self.seed);
        match self.sync {
            DistSync::CycleAccurate => {
                e.u8(0).u64(0);
            }
            DistSync::Slack(k) => {
                e.u8(1).u64(k);
            }
            DistSync::Periodic(n) => {
                e.u8(2).u64(n);
            }
        }
        match self.run {
            RunKind::Cycles(n) => {
                e.u8(0).u64(n);
            }
            RunKind::ToCompletion { max } => {
                e.u8(1).u64(max);
            }
        }
        e.u8(u8::from(self.fast_forward));
        match &self.workload {
            DistWorkload::Synthetic => {
                e.u8(0);
            }
            DistWorkload::MemVectorSum { base_stride, count } => {
                e.u8(1).u64(*base_stride).u64(*count);
            }
            DistWorkload::CpuTokenRing => {
                e.u8(2);
            }
        }
        e.u8(u8::from(self.checkpoint_every.is_some()))
            .u64(self.checkpoint_every.unwrap_or(0));
        e.u8(u8::from(self.telemetry_every.is_some()))
            .u64(self.telemetry_every.unwrap_or(0));
        e.u8(u8::from(self.trace_capacity.is_some()))
            .u32(self.trace_capacity.unwrap_or(0));
    }

    /// Decodes a spec written by [`encode`](Self::encode).
    pub fn decode(d: &mut Dec) -> io::Result<Self> {
        let width = d.u32()?;
        let height = d.u32()?;
        let routing = match d.u8()? {
            0 => RoutingKind::Xy,
            1 => RoutingKind::Yx,
            2 => RoutingKind::O1Turn,
            3 => RoutingKind::Valiant,
            4 => RoutingKind::Romm,
            5 => RoutingKind::Prom,
            6 => RoutingKind::StaticLoadBalanced,
            7 => RoutingKind::AdaptiveMinimal,
            _ => return Err(bad("routing kind")),
        };
        let vca = match d.u8()? {
            0 => VcAllocKind::Dynamic,
            1 => VcAllocKind::StaticSet,
            2 => VcAllocKind::Phased,
            3 => VcAllocKind::Edvca,
            4 => VcAllocKind::Faa,
            5 => VcAllocKind::Table,
            _ => return Err(bad("vca kind")),
        };
        let vcs_per_port = d.u32()?;
        let vc_capacity = d.u32()?;
        let injection_vcs = d.u32()?;
        let injection_vc_capacity = d.u32()?;
        let link_bandwidth = d.u32()?;
        let ejection_bandwidth = d.u32()?;
        let pattern = match d.u8()? {
            0 => SyntheticPattern::Transpose,
            1 => SyntheticPattern::BitComplement,
            2 => SyntheticPattern::Shuffle,
            3 => SyntheticPattern::UniformRandom,
            4 => {
                let n = d.u32()?;
                let targets = (0..n)
                    .map(|_| d.u32().map(NodeId::new))
                    .collect::<io::Result<Vec<_>>>()?;
                SyntheticPattern::Hotspot(targets)
            }
            5 => SyntheticPattern::Tornado,
            6 => SyntheticPattern::NearestNeighbor,
            _ => return Err(bad("pattern")),
        };
        let process = match d.u8()? {
            0 => InjectionProcess::Bernoulli { rate: d.f64()? },
            1 => InjectionProcess::Periodic {
                period: d.u64()?,
                offset: d.u64()?,
            },
            2 => InjectionProcess::Burst {
                burst_len: d.u32()?,
                gap: d.u64()?,
            },
            _ => return Err(bad("process")),
        };
        let packet_len = d.u32()?;
        let max_packets = {
            let some = d.u8()? != 0;
            let v = d.u64()?;
            some.then_some(v)
        };
        let stop_after = {
            let some = d.u8()? != 0;
            let v = d.u64()?;
            some.then_some(v)
        };
        let seed = d.u64()?;
        let sync = {
            let tag = d.u8()?;
            let v = d.u64()?;
            match tag {
                0 => DistSync::CycleAccurate,
                1 => DistSync::Slack(v),
                2 => DistSync::Periodic(v),
                _ => return Err(bad("sync mode")),
            }
        };
        let run = {
            let tag = d.u8()?;
            let v = d.u64()?;
            match tag {
                0 => RunKind::Cycles(v),
                1 => RunKind::ToCompletion { max: v },
                _ => return Err(bad("run kind")),
            }
        };
        let fast_forward = d.u8()? != 0;
        let workload = match d.u8()? {
            0 => DistWorkload::Synthetic,
            1 => DistWorkload::MemVectorSum {
                base_stride: d.u64()?,
                count: d.u64()?,
            },
            2 => DistWorkload::CpuTokenRing,
            _ => return Err(bad("workload")),
        };
        let checkpoint_every = {
            let some = d.u8()? != 0;
            let v = d.u64()?;
            some.then_some(v)
        };
        let telemetry_every = {
            let some = d.u8()? != 0;
            let v = d.u64()?;
            some.then_some(v)
        };
        let trace_capacity = {
            let some = d.u8()? != 0;
            let v = d.u32()?;
            some.then_some(v)
        };
        Ok(Self {
            width,
            height,
            routing,
            vca,
            vcs_per_port,
            vc_capacity,
            injection_vcs,
            injection_vc_capacity,
            link_bandwidth,
            ejection_bandwidth,
            workload,
            pattern,
            process,
            packet_len,
            max_packets,
            stop_after,
            seed,
            sync,
            run,
            fast_forward,
            checkpoint_every,
            telemetry_every,
            trace_capacity,
            kernel: KernelMode::Auto,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_on_the_wire() {
        let spec = DistSpec {
            width: 16,
            height: 4,
            routing: RoutingKind::O1Turn,
            vca: VcAllocKind::Edvca,
            workload: DistWorkload::MemVectorSum {
                base_stride: 0x1_0000,
                count: 12,
            },
            pattern: SyntheticPattern::Hotspot(vec![NodeId::new(3), NodeId::new(9)]),
            process: InjectionProcess::Periodic {
                period: 10,
                offset: 3,
            },
            max_packets: Some(50),
            stop_after: None,
            sync: DistSync::Slack(5),
            run: RunKind::ToCompletion { max: 100_000 },
            fast_forward: true,
            checkpoint_every: Some(256),
            telemetry_every: Some(1_000),
            trace_capacity: Some(4_096),
            ..DistSpec::default()
        };
        let mut e = Enc::new();
        spec.encode(&mut e);
        let back = DistSpec::decode(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn sequential_reference_is_deterministic() {
        let spec = DistSpec {
            width: 4,
            height: 4,
            run: RunKind::Cycles(500),
            ..DistSpec::default()
        };
        let (a, _, _) = spec.run_sequential().unwrap();
        let (b, _, _) = spec.run_sequential().unwrap();
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.latency_histogram, b.latency_histogram);
    }
}
