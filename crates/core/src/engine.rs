//! The parallel simulation engine — the paper's primary contribution.
//!
//! The simulated system is divided into tiles (router + traffic generators +
//! private PRNG + private statistics). A topology-aware partitioner
//! ([`hornet_shard::Partitioner`]) assigns contiguous sub-mesh blocks of
//! tiles to *shards*, one shard per worker of a persistent thread pool; a
//! tile is never split between shards. Links cut by the partition are
//! rewired onto lock-free boundary mailboxes
//! ([`hornet_net::boundary`]), so the only inter-thread communication is (a)
//! cycle-stamped flits and credits crossing those mailboxes and (b) per-shard
//! atomic progress counters that neighboring shards spin on — there is no
//! global barrier on the simulation path.
//!
//! Three synchronization modes are offered:
//!
//! * [`SyncMode::CycleAccurate`] — shards run in lock-step with their
//!   cut-link neighbors and consume mailbox traffic strictly by cycle stamp.
//!   Results are bit-identical to single-threaded simulation with the same
//!   seed, down to the latency histogram.
//! * [`SyncMode::Slack(k)`] — neighboring shards may drift up to `k` cycles
//!   apart, using the one-cycle link latency as conservative lookahead.
//!   Functional correctness is preserved exactly (flits arrive in order,
//!   credits never overflow a buffer) and, because measurements ride inside
//!   the flits, reported latencies retain near-100 % fidelity; only timing
//!   skews bounded by `k` are introduced. `Slack(0)` is identical to
//!   [`SyncMode::CycleAccurate`].
//! * [`SyncMode::Periodic(n)`] — shards check the drift condition only every
//!   `n` cycles (batched synchronization, the paper's loose-sync headline
//!   configuration). Coarser than `Slack` at equal bound, but cheaper per
//!   cycle.
//!
//! When fast-forwarding is enabled, the engine skips idle periods: if, at a
//! synchronization boundary, no flit is buffered anywhere (including boundary
//! mailboxes) and no injector has pending work, all tile clocks jump to the
//! next injection event.

use hornet_net::geometry::Topology;
use hornet_net::ids::Cycle;
use hornet_net::kernel::MeshKernel;
use hornet_net::network::{Network, NetworkNode};
use hornet_net::payload::PayloadStore;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::TelemetrySample;
use hornet_obs::profile::StallProfile;
use hornet_obs::serve::ObsHub;
use hornet_obs::trace::TraceDump;
use hornet_shard::{Partitioner, RunParams, ShardConfig, ShardRuntime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How simulation shards synchronize.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncMode {
    /// Lock-step neighbor synchronization with strict cycle-stamped mailbox
    /// consumption; parallel results are bit-identical to sequential
    /// simulation.
    CycleAccurate,
    /// Drift check once every `n` cycles; faster, slightly lossy timing.
    Periodic(u64),
    /// Neighboring shards may drift up to `k` cycles apart; timing skew is
    /// bounded by `k`, functional behaviour is exact. `Slack(0)` ≡
    /// [`SyncMode::CycleAccurate`].
    Slack(u64),
}

impl SyncMode {
    /// A short label for reports.
    pub fn label(self) -> String {
        match self {
            SyncMode::CycleAccurate => "cycle-accurate".to_string(),
            SyncMode::Periodic(n) => format!("sync-every-{n}"),
            SyncMode::Slack(k) => format!("slack-{k}"),
        }
    }

    /// The shard-runtime parameters this mode maps onto:
    /// `(slack, quantum, strict, barrier_batches)`.
    fn shard_params(self) -> (u64, u64, bool, bool) {
        match self {
            SyncMode::CycleAccurate => (0, 1, true, false),
            SyncMode::Slack(k) => (k, 1, k == 0, false),
            SyncMode::Periodic(n) => {
                let n = n.max(1);
                // Periodic keeps its classic rendezvous-per-batch profile;
                // Periodic(1) degenerates to the bit-exact lock-step mode.
                (0, n, n == 1, n > 1)
            }
        }
    }
}

/// Configuration of the parallel engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of worker threads (tiles are divided equally among them).
    /// `1` selects the purely sequential path.
    pub threads: usize,
    /// Synchronization mode.
    pub sync: SyncMode,
    /// Skip idle periods (no buffered flits, no pending injections) by
    /// advancing all clocks to the next injection event.
    pub fast_forward: bool,
    /// Pin each shard worker thread to one host core (Linux
    /// `sched_setaffinity`; a no-op elsewhere). Takes effect when the worker
    /// pool is created, i.e. on the first parallel run.
    pub pin_threads: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            sync: SyncMode::CycleAccurate,
            fast_forward: false,
            pin_threads: false,
        }
    }
}

/// Summary of the shard layout and per-shard results of the last parallel
/// run.
#[derive(Clone, Debug)]
pub struct ShardRunInfo {
    /// Number of shards the tiles were partitioned into.
    pub shards: usize,
    /// Tiles per shard, in shard order.
    pub tiles_per_shard: Vec<usize>,
    /// Physical links cut by the partition (each rewired onto boundary
    /// mailboxes for the duration of the run).
    pub cut_links: usize,
    /// Statistics merged per shard by its worker (no cross-thread atomics).
    pub per_shard_stats: Vec<NetworkStats>,
    /// Per-shard wall-time attribution (all zeros unless profiling was
    /// enabled with [`ParallelEngine::set_profiling`]).
    pub per_shard_profiles: Vec<StallProfile>,
}

/// The parallel cycle-level simulation engine.
pub struct ParallelEngine {
    nodes: Vec<NetworkNode>,
    /// The process-wide payload store (the DMA side channel every bridge
    /// deposits into). All shards of the thread backend share it, so the
    /// unified cycle driver's payload channel is the same-process fast path;
    /// `None` when the engine was built from bare tiles.
    payload_store: Option<Arc<PayloadStore>>,
    config: EngineConfig,
    cycle: Cycle,
    /// `(width, height)` of the row-major mesh the tiles came from, when
    /// known; drives the topology-aware partitioner.
    mesh_dims: Option<(usize, usize)>,
    /// The persistent worker pool, created on the first parallel run and
    /// reused (threads and all) across subsequent `run()` calls.
    runtime: Option<ShardRuntime>,
    /// Shard layout and per-shard statistics of the last parallel run.
    shard_info: Option<ShardRunInfo>,
    /// Attribute worker wall time to compute/wait/ingest/flush phases.
    profile: bool,
    /// Telemetry sampling period in cycles (`None` = off).
    telemetry_every: Option<u64>,
    /// Ring capacity used when tracing was enabled (also sizes the per-shard
    /// runtime rings of parallel runs); 0 = tracing off.
    trace_capacity: usize,
    /// Telemetry samples accumulated across runs (drained by the caller).
    samples: Vec<TelemetrySample>,
    /// Runtime events (slack waits, checkpoints) accumulated across parallel
    /// runs (drained by the caller).
    runtime_trace: TraceDump,
    /// Live observation hub fed a copy of every telemetry sample as it is
    /// emitted (the embedded HTTP server's data source); `None` = off.
    live_hub: Option<Arc<ObsHub>>,
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("tiles", &self.nodes.len())
            .field("config", &self.config)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl ParallelEngine {
    /// Creates an engine over an assembled network, inheriting the network's
    /// geometry so the partitioner can align shard boundaries to mesh rows.
    pub fn from_network(network: Network, config: EngineConfig) -> Self {
        let mesh_dims = match *network.geometry().topology() {
            Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
                Some((width, height))
            }
            // Row-major 3-D meshes stack layers of rows; partitioning the
            // flattened `height × layers` rows keeps blocks contiguous.
            Topology::Mesh3D {
                width,
                height,
                layers,
                ..
            } => Some((width, height * layers)),
            Topology::Line { .. } | Topology::Ring { .. } | Topology::Custom { .. } => None,
        };
        let (nodes, store) = network.into_nodes();
        let mut engine = Self::new(nodes, config);
        engine.payload_store = Some(store);
        engine.mesh_dims = mesh_dims;
        engine
    }

    /// Creates an engine over a set of tiles (no topology hint: the
    /// partitioner falls back to balanced contiguous index ranges).
    pub fn new(nodes: Vec<NetworkNode>, config: EngineConfig) -> Self {
        Self {
            nodes,
            payload_store: None,
            config,
            cycle: 0,
            mesh_dims: None,
            runtime: None,
            shard_info: None,
            profile: false,
            telemetry_every: None,
            trace_capacity: 0,
            samples: Vec::new(),
            runtime_trace: TraceDump::default(),
            live_hub: None,
        }
    }

    /// Enables flit-lifecycle event tracing on every tile (ring of
    /// `capacity` events per tile) plus, on parallel runs, a per-shard
    /// runtime event ring of the same capacity. Tracing never perturbs the
    /// simulation: traced runs are bit-identical to untraced ones.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
        for n in &mut self.nodes {
            n.enable_tracing(capacity);
        }
    }

    /// Collects every tile's flit-lifecycle events into one dump, in
    /// node-index order (use [`TraceDump::canonicalize`] before comparing
    /// dumps across backends).
    pub fn drain_trace(&mut self) -> TraceDump {
        let mut dump = TraceDump::default();
        for n in &mut self.nodes {
            n.drain_trace(&mut dump);
        }
        dump
    }

    /// Takes the runtime events (slack waits, checkpoint captures)
    /// accumulated by parallel runs since the last call.
    pub fn take_runtime_trace(&mut self) -> TraceDump {
        std::mem::take(&mut self.runtime_trace)
    }

    /// Enables per-shard wall-time phase attribution (reported in
    /// [`ShardRunInfo::per_shard_profiles`]).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profile = enabled;
    }

    /// Enables periodic telemetry sampling every `every` cycles on parallel
    /// runs (collected via [`take_samples`](Self::take_samples)).
    pub fn set_telemetry_every(&mut self, every: Option<u64>) {
        self.telemetry_every = every;
    }

    /// Takes the telemetry samples accumulated since the last call.
    pub fn take_samples(&mut self) -> Vec<TelemetrySample> {
        std::mem::take(&mut self.samples)
    }

    /// Attaches (or detaches) a live observation hub: parallel runs push a
    /// copy of every telemetry sample into it as emitted, so an embedded
    /// HTTP server can report progress mid-run. Strictly write-only from the
    /// simulation's point of view — results are unaffected.
    pub fn set_live_hub(&mut self, hub: Option<Arc<ObsHub>>) {
        self.live_hub = hub;
    }

    /// The shared payload store (the DMA side channel), when the engine was
    /// assembled from a [`Network`]. Agents attached after construction can
    /// deposit payloads here; within one process every shard shares it.
    pub fn payload_store(&self) -> Option<&Arc<PayloadStore>> {
        self.payload_store.as_ref()
    }

    /// Shard layout and per-shard statistics of the most recent parallel
    /// run, if any.
    pub fn shard_info(&self) -> Option<&ShardRunInfo> {
        self.shard_info.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Changes the engine configuration (takes effect on the next `run`).
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The simulated tiles.
    pub fn nodes(&self) -> &[NetworkNode] {
        &self.nodes
    }

    /// Mutable access to the simulated tiles (e.g. to attach agents).
    pub fn nodes_mut(&mut self) -> &mut [NetworkNode] {
        &mut self.nodes
    }

    /// Merged statistics across all tiles.
    pub fn stats(&self) -> NetworkStats {
        let mut merged = NetworkStats::new();
        for n in &self.nodes {
            merged.merge(n.stats());
        }
        merged
    }

    /// Per-tile statistics (for thermal maps and per-tile power).
    pub fn per_node_stats(&self) -> Vec<NetworkStats> {
        self.nodes.iter().map(|n| n.stats().clone()).collect()
    }

    /// Clears every tile's statistics (used to discard the warm-up window).
    pub fn reset_stats(&mut self) {
        for n in &mut self.nodes {
            n.reset_stats();
        }
    }

    /// True if no flit is buffered anywhere and no injector has pending work.
    pub fn is_idle(&self) -> bool {
        self.nodes.iter().all(NetworkNode::is_idle)
    }

    /// True once every agent has reported completion.
    pub fn finished(&self) -> bool {
        self.nodes.iter().all(NetworkNode::finished)
    }

    /// Runs for `cycles` simulated cycles.
    pub fn run(&mut self, cycles: Cycle) {
        self.run_inner(cycles, false);
    }

    /// Runs until every agent reports completion and the network drains, or
    /// until `max_cycles` elapse. Returns `true` on completion.
    pub fn run_to_completion(&mut self, max_cycles: Cycle) -> bool {
        self.run_inner(max_cycles, true);
        self.finished() && self.is_idle()
    }

    fn run_inner(&mut self, cycles: Cycle, detect_completion: bool) {
        if cycles == 0 {
            return;
        }
        let threads = self.config.threads.clamp(1, self.nodes.len().max(1));
        if threads == 1 {
            self.run_sequential(cycles, detect_completion);
        } else {
            self.run_sharded(cycles, detect_completion, threads);
        }
    }

    fn run_sequential(&mut self, cycles: Cycle, detect_completion: bool) {
        let end = self.cycle + cycles;
        // Built per run: the sweep holds no authoritative state, only
        // derived cross-tile structures, so dropping it at the end keeps
        // snapshots and node access between runs unconstrained.
        let mut kernel = MeshKernel::compile(&self.nodes, false);
        while self.cycle < end {
            if detect_completion && self.finished() && self.is_idle() {
                return;
            }
            if self.config.fast_forward && self.is_idle() {
                let next = self
                    .nodes
                    .iter()
                    .filter_map(|n| n.next_event(self.cycle))
                    .min();
                match next {
                    Some(next) if next > self.cycle + 1 => {
                        let target = next.min(end) - 1;
                        let skipped = target - self.cycle;
                        for n in &mut self.nodes {
                            n.set_cycle(target);
                            n.router_mut().stats_mut().fast_forwarded_cycles += skipped;
                        }
                        self.cycle = target;
                    }
                    Some(_) => {}
                    None => {
                        for n in &mut self.nodes {
                            n.set_cycle(end);
                            n.router_mut().stats_mut().fast_forwarded_cycles += end - self.cycle;
                        }
                        self.cycle = end;
                        return;
                    }
                }
            }
            let now = self.cycle + 1;
            kernel.posedge(&mut self.nodes, now);
            kernel.negedge(&mut self.nodes, now);
            self.cycle = now;
        }
    }

    /// Runs the tiles on the sharded runtime: topology-aware partition,
    /// boundary mailboxes on cut links, slack-based neighbor synchronization.
    fn run_sharded(&mut self, cycles: Cycle, detect_completion: bool, threads: usize) {
        let partition = {
            let partitioner = Partitioner::new(threads);
            match self.mesh_dims {
                Some((w, h)) => partitioner.mesh(w, h),
                None => partitioner.linear(self.nodes.len()),
            }
        };
        if partition.shard_count() == 1 {
            // One shard means no cross-thread communication at all; the
            // sequential path is strictly faster.
            return self.run_sequential(cycles, detect_completion);
        }
        let (slack, quantum, strict, barrier_batches) = self.config.sync.shard_params();
        let params = RunParams {
            start: self.cycle,
            cycles,
            slack,
            quantum,
            strict,
            barrier_batches,
            fast_forward: self.config.fast_forward,
            detect_completion,
            profile: self.profile,
            telemetry_every: self.telemetry_every,
            trace_runtime: self.trace_capacity,
            live: self.live_hub.clone(),
        };
        let pin = self.config.pin_threads;
        let runtime = self.runtime.get_or_insert_with(|| {
            ShardRuntime::with_config(partition.shard_count(), ShardConfig { pin_to_cores: pin })
        });
        let nodes = std::mem::take(&mut self.nodes);
        let outcome = runtime.run(nodes, &partition, params);
        self.nodes = outcome.nodes;
        self.cycle = outcome.final_cycle;
        self.samples.extend(outcome.samples);
        self.runtime_trace.merge(outcome.runtime_trace);
        self.shard_info = Some(ShardRunInfo {
            shards: partition.shard_count(),
            tiles_per_shard: (0..partition.shard_count())
                .map(|s| partition.tiles(s))
                .collect(),
            cut_links: outcome.cut_links,
            per_shard_stats: outcome.per_shard_stats,
            per_shard_profiles: outcome.per_shard_profiles,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::config::NetworkConfig;
    use hornet_net::geometry::Geometry;
    use hornet_net::routing::RoutingKind;
    use hornet_net::vca::VcAllocKind;
    use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
    use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
    use std::sync::Arc;

    fn build_engine(threads: usize, sync: SyncMode, seed: u64, rate: f64) -> ParallelEngine {
        let geometry = Arc::new(Geometry::mesh2d(4, 4));
        let pattern = SyntheticPattern::Transpose;
        let flows = flows_for_pattern(&pattern, &geometry);
        let cfg = NetworkConfig::new((*geometry).clone())
            .with_routing(RoutingKind::Xy)
            .with_vca(VcAllocKind::Dynamic)
            .with_flows(flows);
        let mut network = Network::new(&cfg, seed).unwrap();
        for node in geometry.nodes() {
            network.attach_agent(
                node,
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Bernoulli { rate },
                        packet_len: 4,
                        stop_after: None,
                        max_packets: Some(50),
                    },
                )),
            );
        }
        ParallelEngine::from_network(
            network,
            EngineConfig {
                threads,
                sync,
                fast_forward: false,
                pin_threads: false,
            },
        )
    }

    #[test]
    fn cycle_accurate_parallel_matches_sequential_exactly() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 99, 0.05);
        seq.run(3_000);
        let s = seq.stats();

        for threads in [2, 4] {
            let mut par = build_engine(threads, SyncMode::CycleAccurate, 99, 0.05);
            par.run(3_000);
            let p = par.stats();
            assert_eq!(
                p.delivered_packets, s.delivered_packets,
                "{threads} threads"
            );
            assert_eq!(
                p.total_packet_latency, s.total_packet_latency,
                "{threads} threads"
            );
            assert_eq!(p.injected_flits, s.injected_flits, "{threads} threads");
            assert_eq!(p.total_hops, s.total_hops, "{threads} threads");
        }
    }

    #[test]
    fn loose_sync_preserves_functional_correctness() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 7, 0.05);
        seq.run_to_completion(100_000);
        let s = seq.stats();

        // The paper's headline loose-sync configuration synchronizes every 5
        // cycles (Table I).
        let mut par = build_engine(4, SyncMode::Periodic(5), 7, 0.05);
        assert!(par.run_to_completion(100_000));
        let p = par.stats();
        // Every offered packet is still delivered exactly once.
        assert_eq!(p.delivered_packets, s.delivered_packets);
        assert_eq!(p.delivered_flits, s.delivered_flits);
        assert_eq!(p.routing_failures, 0);
        // Timing may deviate slightly, but not wildly. (On this deliberately
        // tiny 16-tile network the relative skew is much larger than on the
        // paper's 1024-tile systems, and it grows when the host is busy with
        // other test binaries, so the bound is deliberately loose; the
        // fidelity-vs-period curve itself is measured by `repro_fig6b`.)
        let accuracy = p.latency_accuracy_vs(&s);
        assert!(accuracy > 0.6, "loose-sync accuracy {accuracy} too low");
    }

    #[test]
    fn slack_zero_is_bit_identical_to_sequential() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 41, 0.05);
        seq.run(3_000);
        let s = seq.stats();
        for threads in [2, 4] {
            let mut par = build_engine(threads, SyncMode::Slack(0), 41, 0.05);
            par.run(3_000);
            let p = par.stats();
            assert_eq!(
                p.delivered_packets, s.delivered_packets,
                "{threads} threads"
            );
            assert_eq!(
                p.total_packet_latency, s.total_packet_latency,
                "{threads} threads"
            );
            assert_eq!(
                p.latency_histogram, s.latency_histogram,
                "{threads} threads"
            );
            assert_eq!(p.busy_cycles, s.busy_cycles, "{threads} threads");
        }
    }

    #[test]
    fn slack_preserves_functional_correctness_with_bounded_drift() {
        let mut seq = build_engine(1, SyncMode::CycleAccurate, 7, 0.05);
        seq.run_to_completion(100_000);
        let s = seq.stats();

        let mut par = build_engine(4, SyncMode::Slack(5), 7, 0.05);
        assert!(par.run_to_completion(100_000));
        let p = par.stats();
        // Every offered packet is still delivered exactly once.
        assert_eq!(p.delivered_packets, s.delivered_packets);
        assert_eq!(p.delivered_flits, s.delivered_flits);
        assert_eq!(p.routing_failures, 0);
        // Timing skew is bounded by the 5-cycle slack per hop; on this tiny
        // mesh the relative deviation still stays moderate.
        let accuracy = p.latency_accuracy_vs(&s);
        assert!(accuracy > 0.6, "slack-sync accuracy {accuracy} too low");
    }

    #[test]
    fn shard_info_reports_layout_and_per_shard_stats() {
        let mut par = build_engine(4, SyncMode::CycleAccurate, 99, 0.05);
        par.run(1_000);
        let info = par.shard_info().expect("parallel run records shard info");
        assert_eq!(info.shards, 4, "4×4 mesh, 4 threads: one row per shard");
        assert_eq!(info.tiles_per_shard, vec![4, 4, 4, 4]);
        assert_eq!(info.cut_links, 12, "three row boundaries × four links");
        let merged: u64 = info
            .per_shard_stats
            .iter()
            .map(|s| s.delivered_packets)
            .sum();
        assert_eq!(merged, par.stats().delivered_packets);
    }

    #[test]
    fn run_to_completion_stops_early() {
        let mut engine = build_engine(2, SyncMode::CycleAccurate, 3, 0.05);
        assert!(engine.run_to_completion(200_000));
        assert!(engine.cycle() < 200_000, "must stop well before the limit");
        assert!(engine.finished() && engine.is_idle());
        // 16 nodes x 50 packets each.
        assert_eq!(engine.stats().delivered_packets, 16 * 50);
    }

    #[test]
    fn fast_forward_skips_idle_time_in_parallel_mode() {
        let build = |ff: bool| {
            let geometry = Arc::new(Geometry::mesh2d(2, 2));
            let pattern = SyntheticPattern::NearestNeighbor;
            let flows = flows_for_pattern(&pattern, &geometry);
            let cfg = NetworkConfig::new((*geometry).clone()).with_flows(flows);
            let mut network = Network::new(&cfg, 5).unwrap();
            // Only node 0 injects, one packet every 400 cycles.
            network.attach_agent(
                hornet_net::ids::NodeId::new(0),
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: pattern.clone(),
                        process: InjectionProcess::Periodic {
                            period: 400,
                            offset: 0,
                        },
                        packet_len: 2,
                        stop_after: Some(1_600),
                        max_packets: Some(4),
                    },
                )),
            );
            let mut engine = ParallelEngine::from_network(
                network,
                EngineConfig {
                    threads: 2,
                    sync: SyncMode::CycleAccurate,
                    fast_forward: ff,
                    pin_threads: false,
                },
            );
            engine.run(2_000);
            engine.stats()
        };
        let without = build(false);
        let with = build(true);
        assert_eq!(without.delivered_packets, with.delivered_packets);
        assert_eq!(without.total_packet_latency, with.total_packet_latency);
        assert!(with.fast_forwarded_cycles > 0);
        assert!(with.simulated_cycles < without.simulated_cycles);
    }

    #[test]
    fn fast_forward_with_loose_sync_preserves_functional_results() {
        // fast_forward + SyncMode::Periodic ride the same boundary checks:
        // idle detection (now a single O(1) aggregate-counter load per tile)
        // decides when all clocks jump. Functional results must match the
        // sequential run exactly; only timings may skew.
        let build = |threads: usize, sync: SyncMode| {
            let geometry = Arc::new(Geometry::mesh2d(4, 4));
            let pattern = SyntheticPattern::Transpose;
            let flows = flows_for_pattern(&pattern, &geometry);
            let cfg = NetworkConfig::new((*geometry).clone())
                .with_routing(RoutingKind::Xy)
                .with_flows(flows);
            let mut network = Network::new(&cfg, 23).unwrap();
            // Sparse periodic traffic: long idle gaps between bursts, so the
            // run exercises the fast-forward path heavily.
            for node in geometry.nodes() {
                network.attach_agent(
                    node,
                    Box::new(SyntheticInjector::new(
                        Arc::clone(&geometry),
                        SyntheticConfig {
                            pattern: pattern.clone(),
                            process: InjectionProcess::Periodic {
                                period: 300,
                                offset: (node.index() as u64 % 4) * 25,
                            },
                            packet_len: 4,
                            stop_after: None,
                            max_packets: Some(8),
                        },
                    )),
                );
            }
            let mut engine = ParallelEngine::from_network(
                network,
                EngineConfig {
                    threads,
                    sync,
                    fast_forward: true,
                    pin_threads: false,
                },
            );
            assert!(engine.run_to_completion(1_000_000), "must complete");
            engine.stats()
        };
        let seq = build(1, SyncMode::CycleAccurate);
        let par = build(4, SyncMode::Periodic(5));
        // Every offered packet is delivered exactly once in both runs.
        assert_eq!(par.delivered_packets, seq.delivered_packets);
        assert_eq!(par.delivered_flits, seq.delivered_flits);
        assert_eq!(par.injected_flits, seq.injected_flits);
        assert_eq!(par.routing_failures, 0);
        assert_eq!(seq.routing_failures, 0);
        // Both runs must actually have skipped idle periods.
        assert!(
            seq.fast_forwarded_cycles > 0,
            "sequential run never skipped"
        );
        assert!(par.fast_forwarded_cycles > 0, "parallel run never skipped");
    }

    #[test]
    fn thread_count_is_clamped_to_tile_count() {
        let mut engine = build_engine(64, SyncMode::CycleAccurate, 1, 0.02);
        engine.run(200); // 16 tiles, 64 requested threads: must not panic
        assert_eq!(engine.cycle(), 200);
    }
}
