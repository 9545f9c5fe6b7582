//! The three workloads, their timed runs and their traced runs.
//!
//! In-process workloads time `SimulationBuilder::build` (set-up), then
//! drive the built engine through an untimed warm-up window followed by
//! fixed-size timed windows — the same `ParallelEngine::run` calls
//! `Simulation::run` makes, split so that each window is timed on its own —
//! and finally time the teardown a user also pays before getting a report.
//! The vector-sum workload times `DistSpec::build_network` and
//! `Network::run_to_completion`; its traced run also times whole
//! `run_distributed` calls on two worker processes.

use crate::digest::{self, Tally};
use crate::host;
use crate::metrics::{median, Metrics};
use crate::timed::TimedAgent;
use hornet_core::engine::{ShardRunInfo, SyncMode};
use hornet_core::report::ShardSummary;
use hornet_core::sim::{SimError, SimulationBuilder, TrafficKind};
use hornet_cpu::agent::{CoreAgent, CoreConfig};
use hornet_cpu::programs::vector_sum_program;
use hornet_dist::{run_distributed, DistOutcome, DistSpec, DistSync, DistWorkload, HostOptions};
use hornet_dist::{RunKind, TransportKind};
use hornet_net::stats::NetworkStats;
use hornet_net::{Geometry, KernelMode, Network, NetworkConfig, RoutingKind, StageTimes};
use hornet_net::{NodeAgent, VcAllocKind};
use hornet_obs::profile::StallProfile;
use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32×32 mesh, saturated transpose traffic, one thread.
    Transpose1024Seq,
    /// 32×32 mesh, light uniform-random traffic, two threads.
    Uniform1024T2,
    /// 16×16 mesh of cores summing vectors over MSI coherence, one thread;
    /// its traced run adds the same system on two worker processes.
    Vsum256Seq,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Transpose1024Seq,
        Workload::Uniform1024T2,
        Workload::Vsum256Seq,
    ];

    /// The workload's name on the command line and in the fixture.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Transpose1024Seq => "transpose1024_seq",
            Workload::Uniform1024T2 => "uniform1024_t2",
            Workload::Vsum256Seq => "vsum256_seq",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a run measured: its operation tally, its metrics and free-form
/// detail lines printed before the result line.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Metrics,
    pub details: Vec<String>,
}

const MESH: usize = 32;

/// Per-tile event-ring capacity of the event-tracing overhead run: enough
/// for one timed window, so rings are drained between windows and never
/// drop.
const EVENT_RING: usize = 2048;

/// Shape of an in-process synthetic workload.
struct Synth {
    pattern: SyntheticPattern,
    rate: f64,
    threads: usize,
    /// Untimed warm-up window, in cycles (statistics reset after it).
    warmup: u64,
    /// Cycles per timed window.
    window: u64,
    /// Timed windows per operation.
    windows: u64,
    /// `SimulationBuilder::build` calls per run; the last one is run.
    setups: usize,
}

impl Synth {
    fn of(workload: Workload, seconds: u64) -> Self {
        match workload {
            // ~0.45 s per 500-cycle window on a 2-core Xeon host.
            Workload::Transpose1024Seq => Synth {
                pattern: SyntheticPattern::Transpose,
                rate: 0.05,
                threads: 1,
                warmup: 1_000,
                window: 500,
                windows: 2 * seconds.max(1),
                setups: 15,
            },
            // Set-up takes ~10-17 s and ~4 GiB, so it is done once per run;
            // the first thousand or more threaded cycles in a fresh process
            // run slow, hence the longer warm-up.
            Workload::Uniform1024T2 => Synth {
                pattern: SyntheticPattern::UniformRandom,
                rate: 0.01,
                threads: 2,
                warmup: 2_500,
                window: 500,
                windows: seconds.max(2),
                setups: 1,
            },
            Workload::Vsum256Seq => unreachable!("not an in-process synthetic workload"),
        }
    }

    /// The simulated window of one operation, for the fixture key.
    fn shape(&self) -> String {
        format!("w{}+{}x{}", self.warmup, self.windows, self.window)
    }

    fn builder(&self, seed: u64, threads: usize) -> SimulationBuilder {
        SimulationBuilder::new()
            .geometry(Geometry::mesh2d(MESH, MESH))
            .routing(RoutingKind::Xy)
            .vc_allocation(VcAllocKind::Dynamic)
            .traffic(TrafficKind::pattern(self.pattern.clone(), self.rate))
            .measured_cycles(self.window)
            .seed(seed)
            .threads(threads)
            .sync(SyncMode::CycleAccurate)
            .kernel(KernelMode::Auto)
    }

    /// The sequential reference digest: `Simulation::run` over the same
    /// warm-up and measured cycles on one thread.
    fn reference(&self, seed: u64) -> Result<String, SimError> {
        let report = self
            .builder(seed, 1)
            .warmup_cycles(self.warmup)
            .measured_cycles(self.window * self.windows)
            .build()?
            .run()?;
        Ok(digest::digest(&report.network, None))
    }
}

/// One timed in-process operation.
struct SynthOp {
    setup_s: Vec<f64>,
    window_s: Vec<f64>,
    /// Indices of the windows run with stall profiling on.
    profiled: Vec<usize>,
    wall_s: f64,
    teardown_s: f64,
    stats: NetworkStats,
    shard: Option<ShardSummary>,
}

/// Adds one sharded run's layout, statistics and stall profiles to `acc`.
fn accumulate_shards(acc: &mut Option<ShardSummary>, info: &ShardRunInfo) {
    let acc = acc.get_or_insert_with(|| ShardSummary {
        shards: info.shards,
        tiles_per_shard: info.tiles_per_shard.clone(),
        cut_links: info.cut_links,
        per_shard: Vec::new(),
        stalls: vec![StallProfile::default(); info.shards],
    });
    // Tile statistics accumulate since the last reset; profiles are per run.
    acc.per_shard = info.per_shard_stats.clone();
    for (total, p) in acc.stalls.iter_mut().zip(&info.per_shard_profiles) {
        total.merge(p);
    }
}

/// Builds `s.setups` times (timing each build), then runs the last build:
/// untimed warm-up, `s.windows` timed windows, timed teardown. With
/// `profile_odd` the odd windows run with stall profiling on; with
/// `trace_events > 0` every window records flit events.
fn synth_op(
    s: &Synth,
    seed: u64,
    trace_events: usize,
    profile_odd: bool,
) -> Result<SynthOp, SimError> {
    let mut setup_s = Vec::with_capacity(s.setups);
    let mut built = None;
    let mut wall_start = Instant::now();
    for _ in 0..s.setups.max(1) {
        // Free the previous build outside the timed region.
        drop(built.take());
        let start = Instant::now();
        let sim = s
            .builder(seed, s.threads)
            .trace_events(trace_events)
            .build()?;
        setup_s.push(start.elapsed().as_secs_f64());
        wall_start = start;
        built = Some(sim);
    }
    let mut sim = built.expect("at least one build");
    let engine = sim.engine_mut();
    engine.run(s.warmup);
    engine.reset_stats();
    engine.take_samples();
    engine.take_runtime_trace();
    engine.drain_trace();

    let mut window_s = Vec::with_capacity(s.windows as usize);
    let mut profiled = Vec::new();
    let mut shard = None;
    for i in 0..s.windows as usize {
        let profile = profile_odd && i % 2 == 1;
        engine.set_profiling(profile);
        let start = Instant::now();
        engine.run(s.window);
        window_s.push(start.elapsed().as_secs_f64());
        if profile {
            profiled.push(i);
            if let Some(info) = engine.shard_info() {
                accumulate_shards(&mut shard, info);
            }
        }
        if trace_events > 0 {
            drop(engine.drain_trace());
            drop(engine.take_runtime_trace());
        }
    }
    let stats = engine.stats();
    let start = Instant::now();
    drop(sim);
    let teardown_s = start.elapsed().as_secs_f64();
    Ok(SynthOp {
        setup_s,
        window_s,
        profiled,
        wall_s: wall_start.elapsed().as_secs_f64(),
        teardown_s,
        stats,
        shard,
    })
}

/// A sequential `Network` run with the kernel's stage timers on and every
/// agent wrapped in a [`TimedAgent`].
struct SeqTrace {
    flows_s: f64,
    build_s: f64,
    /// Timed `Network::run` calls (one per window, or one to completion).
    run_s: Vec<f64>,
    stages: StageTimes,
    kernel: bool,
    tick_s: f64,
    stats: NetworkStats,
    cycles: u64,
    tiles: usize,
    /// Completion cycle of a run-to-completion workload.
    completion: Option<u64>,
}

impl SeqTrace {
    fn stage_sum(&self) -> f64 {
        let t = &self.stages;
        [t.absorb, t.sa, t.va, t.rc, t.negedge, t.bridge]
            .iter()
            .map(|d| d.as_secs_f64())
            .sum()
    }

    fn run_total(&self) -> f64 {
        self.run_s.iter().sum()
    }
}

/// Builds the network `builds` times, timing the flow list and
/// `Network::new` separately (medians), and wraps every agent of the last
/// build in a [`TimedAgent`].
fn timed_network(
    flows_config: impl Fn() -> NetworkConfig,
    seed: u64,
    builds: usize,
    agent: impl Fn(&Geometry, hornet_net::NodeId) -> Box<dyn NodeAgent>,
    ticks: &Arc<AtomicU64>,
) -> Result<(Network, f64, f64), SimError> {
    let (mut flows_s, mut build_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..builds.max(1) {
        drop(built.take());
        let start = Instant::now();
        let cfg = flows_config();
        flows_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let net = Network::new(&cfg, seed)?;
        build_s.push(start.elapsed().as_secs_f64());
        built = Some((net, cfg.geometry));
    }
    let (mut net, geometry) = built.expect("at least one build");
    let (flows_s, build_s) = (median(&flows_s), median(&build_s));
    for node in geometry.nodes() {
        net.attach_agent(
            node,
            Box::new(TimedAgent::new(agent(&geometry, node), Arc::clone(ticks))),
        );
    }
    Ok((net, flows_s, build_s))
}

fn synth_seq_traced(s: &Synth, seed: u64) -> Result<SeqTrace, SimError> {
    let geometry = Geometry::mesh2d(MESH, MESH);
    let ticks = Arc::new(AtomicU64::new(0));
    let injector = |g: &Geometry, _node| -> Box<dyn NodeAgent> {
        Box::new(SyntheticInjector::new(
            Arc::new(g.clone()),
            SyntheticConfig {
                pattern: s.pattern.clone(),
                process: InjectionProcess::Bernoulli { rate: s.rate },
                packet_len: 8,
                stop_after: None,
                max_packets: None,
            },
        ))
    };
    let flows = || {
        // The flow list exactly as `SimulationBuilder::build` assembles it.
        let mut flows = flows_for_pattern(&s.pattern, &geometry);
        flows.sort_by_key(|f| (f.src, f.dst));
        flows.dedup();
        NetworkConfig::new(geometry.clone())
            .with_routing(RoutingKind::Xy)
            .with_vca(VcAllocKind::Dynamic)
            .with_vcs(4, 4)
            .with_link_bandwidth(1)
            .with_bidirectional_links(false)
            .with_flows(flows)
    };
    let (mut net, flows_s, build_s) = timed_network(flows, seed, s.setups, injector, &ticks)?;
    net.run(s.warmup);
    net.reset_stats();
    // Recompiles the kernel with fresh stage timers for the timed windows.
    net.set_kernel_timing(true);
    let kernel = net.kernel_active();
    ticks.store(0, Ordering::Relaxed);
    let mut run_s = Vec::with_capacity(s.windows as usize);
    for _ in 0..s.windows {
        let start = Instant::now();
        net.run(s.window);
        run_s.push(start.elapsed().as_secs_f64());
    }
    Ok(SeqTrace {
        flows_s,
        build_s,
        run_s,
        stages: net.kernel_stage_times().unwrap_or_default(),
        kernel,
        tick_s: ticks.load(Ordering::Relaxed) as f64 / 1e9,
        stats: net.stats(),
        cycles: s.window * s.windows,
        tiles: net.node_count(),
        completion: None,
    })
}

/// Median of the window rates, in simulated cycles per second.
fn rate(window: u64, secs: &[f64]) -> f64 {
    let rates: Vec<f64> = secs.iter().map(|s| window as f64 / s).collect();
    median(&rates)
}

/// Directory, under the working directory, where references computed for
/// unrecorded seeds are kept, keyed by the simulator sources that computed
/// them, so a seed run again on the same sources is computed once.
const REFERENCE_CACHE: &str = ".hbench-cache";

/// The reference digest for a fixture key: recorded, cached from an earlier
/// run on the same sources, or computed now.
fn reference(
    key: &str,
    compute: impl FnOnce() -> Result<String, String>,
    details: &mut Vec<String>,
) -> Result<String, String> {
    if let Some(d) = digest::recorded(key) {
        details.push(format!("reference {key}: recorded"));
        return Ok(d);
    }
    let cached = std::path::Path::new(REFERENCE_CACHE).join(format!(
        "{}-{}",
        key.replace('/', "_"),
        host::source_digest()
    ));
    if let Ok(d) = std::fs::read_to_string(&cached) {
        details.push(format!("reference {key}: cached in {}", cached.display()));
        return Ok(d);
    }
    let start = Instant::now();
    let d = compute()?;
    details.push(format!(
        "reference {key}: computed sequentially in {:.3} s",
        start.elapsed().as_secs_f64()
    ));
    if std::fs::create_dir_all(REFERENCE_CACHE).is_ok() {
        // Written whole under a temporary name, then renamed: a run killed
        // mid-write leaves no partial reference behind.
        let tmp = cached.with_extension("tmp");
        if std::fs::write(&tmp, &d).is_ok() {
            let _ = std::fs::rename(&tmp, &cached);
        }
    }
    Ok(d)
}

fn windows_line(label: &str, secs: &[f64]) -> String {
    let ms: Vec<String> = secs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!("{label} window ms: {}", ms.join(" "))
}

/// A timed (untraced) run: the end-to-end metrics.
pub fn timed(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    match workload {
        Workload::Vsum256Seq => vsum_timed(seed, seconds),
        _ => synth_timed(workload, seed, seconds),
    }
}

/// A traced run: the per-layer metrics.
pub fn traced(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    match workload {
        Workload::Vsum256Seq => vsum_traced(seed),
        _ => synth_traced(workload, seed, seconds),
    }
}

fn synth_timed(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let s = Synth::of(workload, seconds);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut details = Vec::new();
    let key = digest::key(workload.name(), seed, &s.shape());
    let expected = reference(
        &key,
        || s.reference(seed).map_err(|e| e.to_string()),
        &mut details,
    );
    host::reset_peak_rss();
    let op = synth_op(&s, seed, 0, false);
    let peak_mib = host::peak_rss_kib() as f64 / 1024.0;
    match (expected, op) {
        (Ok(expected), Ok(op)) => {
            tally.check(workload.name(), &expected, &digest::digest(&op.stats, None));
            metrics.set("sim_cycles_per_s", rate(s.window, &op.window_s));
            metrics.set("setup_s", median(&op.setup_s));
            metrics.set("wall_s", op.wall_s);
            details.push(windows_line("timed", &op.window_s));
            details.push(format!(
                "first window / median window: {:.3}; teardown {:.3} s",
                op.window_s[0] / median(&op.window_s),
                op.teardown_s
            ));
        }
        (Err(e), _) => tally.error("sequential reference", &e),
        (_, Err(e)) => tally.error(workload.name(), &e),
    }
    metrics.set("peak_rss_mib", peak_mib);
    RunResult {
        tally,
        metrics,
        details,
    }
}

/// Sets the per-layer metrics every workload reports from its sequential
/// traced run, and the accounting check.
fn seq_layer_metrics(m: &mut Metrics, seq: &SeqTrace, setup_s: f64, tick_name: &'static str) {
    let t = &seq.stages;
    m.set("net.absorb_s", t.absorb.as_secs_f64());
    m.set("net.sa_s", t.sa.as_secs_f64());
    m.set("net.va_s", t.va.as_secs_f64());
    m.set("net.rc_s", t.rc.as_secs_f64());
    m.set("net.negedge_s", t.negedge.as_secs_f64());
    m.set("net.bridge_s", t.bridge.as_secs_f64());
    for name in ["traffic.tick_s", "cpu.tick_s"] {
        m.set(name, if name == tick_name { seq.tick_s } else { 0.0 });
    }
    let run = seq.run_total();
    let unaccounted = run - seq.stage_sum() - seq.tick_s;
    m.set("net.seq_run_s", run);
    m.set("net.unaccounted_s", unaccounted);
    m.set("setup.flows_s", seq.flows_s);
    m.set("net.build_s", seq.build_s);
    let setup_other = setup_s - seq.flows_s - seq.build_s;
    m.set("setup.other_s", setup_other);
    let st = &seq.stats;
    // Merged statistics sum busy cycles over tiles but keep the largest
    // per-tile cycle count.
    m.set(
        "net.busy_tile_frac",
        st.busy_cycles as f64 / (st.simulated_cycles as f64 * seq.tiles as f64),
    );
    let a = &st.activity;
    m.set("net.link_flits", a.link_flits as f64);
    m.set("net.arbitrations", a.arbitrations as f64);
    m.set("net.crossbar_transits", a.crossbar_transits as f64);
    m.set(
        "net.grant_ratio",
        a.crossbar_transits as f64 / a.arbitrations as f64,
    );
    m.set(
        "net.ns_per_tile_cycle",
        run * 1e9 / (seq.tiles as f64 * seq.cycles as f64),
    );
    m.set("net.ns_per_link_flit", run * 1e9 / a.link_flits as f64);
    // The timed parts must account for the whole: the stage and tick timers
    // cover the run up to the per-cycle loop (and, to completion, the
    // completion scan), and neither split may exceed what it splits.
    let run_ok = (-0.02 * run..=0.20 * run).contains(&unaccounted);
    let setup_ok = setup_other >= -(0.25 * setup_s).max(0.005);
    m.set(
        "bench.accounting_ok",
        f64::from(u8::from(run_ok && setup_ok)),
    );
}

fn zero_layers(m: &mut Metrics, prefix: &str) {
    for (name, _) in crate::metrics::PER_LAYER {
        if name.starts_with(prefix) {
            m.set(name, 0.0);
        }
    }
}

fn seq_detail(seq: &SeqTrace) -> String {
    format!(
        "sequential traced run: kernel {}, {} cycles in {:.3} s, stages {:.3} s, ticks {:.3} s, build {:.3} s, flows {:.3} s",
        if seq.kernel { "on" } else { "off (interpreter)" },
        seq.cycles,
        seq.run_total(),
        seq.stage_sum(),
        seq.tick_s,
        seq.build_s,
        seq.flows_s
    )
}

fn synth_traced(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let s = Synth::of(workload, seconds);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut details = Vec::new();
    let key = digest::key(workload.name(), seed, &s.shape());
    let recorded = digest::recorded(&key);
    details.push(format!(
        "reference {key}: {}",
        if recorded.is_some() {
            "recorded"
        } else {
            "the sequential traced run"
        }
    ));

    // 1. The timed operation, untraced (uniform: odd windows profiled). It
    // runs first so that its set-up, like a timed run's, is the process's
    // first build.
    let profile = workload == Workload::Uniform1024T2;
    let op = match synth_op(&s, seed, 0, profile) {
        Ok(op) => op,
        Err(e) => {
            tally.error(workload.name(), &e);
            return RunResult {
                tally,
                metrics: m,
                details,
            };
        }
    };

    // 2. Sequential traced run: stage and tick timers, set-up split. It is
    // also the reference for a seed without a recorded digest.
    let seq = match synth_seq_traced(&s, seed) {
        Ok(seq) => seq,
        Err(e) => {
            tally.error("sequential traced run", &e);
            return RunResult {
                tally,
                metrics: m,
                details,
            };
        }
    };
    let seq_digest = digest::digest(&seq.stats, None);
    let expected = match recorded {
        Some(d) => {
            tally.check("sequential traced run", &d, &seq_digest);
            d
        }
        None => seq_digest,
    };
    details.push(seq_detail(&seq));
    tally.check(workload.name(), &expected, &digest::digest(&op.stats, None));
    details.push(windows_line("timed", &op.window_s));
    let untraced: Vec<f64> = (0..op.window_s.len())
        .filter(|i| !op.profiled.contains(i))
        .map(|i| op.window_s[i])
        .collect();
    let untraced_rate = rate(s.window, &untraced);
    let setup_s = median(&op.setup_s);
    seq_layer_metrics(&mut m, &seq, setup_s, "traffic.tick_s");
    m.set("core.teardown_s", op.teardown_s);
    m.set(
        "bench.first_window_ratio",
        op.window_s[0] / median(&untraced),
    );
    zero_layers(&mut m, "dist.");

    if let Some(shard) = &op.shard {
        let stalls = shard.total_stalls();
        m.set("shard.compute_s", stalls.compute_ns as f64 / 1e9);
        m.set("shard.wait_s", stalls.wait_ns as f64 / 1e9);
        m.set("shard.ingest_s", stalls.ingest_ns as f64 / 1e9);
        m.set("shard.flush_s", stalls.flush_ns as f64 / 1e9);
        m.set("shard.load_imbalance", shard.load_imbalance());
        m.set("shard.cut_links", shard.cut_links as f64);
        let profiled: Vec<f64> = op.profiled.iter().map(|&i| op.window_s[i]).collect();
        let profiled_rate = rate(s.window, &profiled);
        m.set(
            "bench.trace_overhead_pct",
            (1.0 - profiled_rate / untraced_rate) * 100.0,
        );
        details.push(format!(
            "stall breakdown (profiled windows):\n{}",
            shard.stall_breakdown().trim_end()
        ));
    } else {
        zero_layers(&mut m, "shard.");
        let seq_rate = rate(s.window, &seq.run_s);
        m.set(
            "bench.trace_overhead_pct",
            (1.0 - seq_rate / untraced_rate) * 100.0,
        );
    }

    // 3. Event tracing on (the cost of a user feature), transpose only.
    if workload == Workload::Transpose1024Seq {
        match synth_op(&s, seed, EVENT_RING, false) {
            Ok(ev) => {
                tally.check(
                    "event-traced run",
                    &expected,
                    &digest::digest(&ev.stats, None),
                );
                let ev_rate = rate(s.window, &ev.window_s);
                m.set(
                    "obs.event_trace_overhead_pct",
                    (1.0 - ev_rate / untraced_rate) * 100.0,
                );
                details.push(windows_line("event-traced", &ev.window_s));
            }
            Err(e) => tally.error("event-traced run", &e),
        }
    } else {
        m.set("obs.event_trace_overhead_pct", 0.0);
    }
    RunResult {
        tally,
        metrics: m,
        details,
    }
}

const VSUM_MESH: u32 = 16;
const VSUM_COUNT: u64 = 1024;
const VSUM_STRIDE: u64 = 0x1000;
const VSUM_MAX_CYCLES: u64 = 2_000_000;

fn vsum_spec(seed: u64) -> DistSpec {
    DistSpec {
        width: VSUM_MESH,
        height: VSUM_MESH,
        workload: DistWorkload::MemVectorSum {
            base_stride: VSUM_STRIDE,
            count: VSUM_COUNT,
        },
        seed,
        sync: DistSync::CycleAccurate,
        run: RunKind::ToCompletion {
            max: VSUM_MAX_CYCLES,
        },
        kernel: KernelMode::Auto,
        ..DistSpec::default()
    }
}

fn vsum_key(seed: u64) -> String {
    digest::key(
        Workload::Vsum256Seq.name(),
        seed,
        &format!("to-completion-count{VSUM_COUNT}"),
    )
}

/// Timed operations per run.
fn vsum_ops(seconds: u64) -> usize {
    seconds.div_ceil(4).max(3) as usize
}

/// One timed sequential operation: `DistSpec::build_network` (set-up),
/// `Network::run_to_completion`, teardown.
struct VsumOp {
    setup_s: f64,
    run_s: f64,
    teardown_s: f64,
    digest: String,
}

fn vsum_op(spec: &DistSpec) -> Result<VsumOp, String> {
    let start = Instant::now();
    let mut net = spec.build_network().map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let completed = net.run_to_completion(VSUM_MAX_CYCLES);
    let run_s = start.elapsed().as_secs_f64();
    if !completed {
        return Err(format!("did not complete within {VSUM_MAX_CYCLES} cycles"));
    }
    let digest = digest::digest(&net.stats(), Some(net.cycle()));
    let start = Instant::now();
    drop(net);
    Ok(VsumOp {
        setup_s,
        run_s,
        teardown_s: start.elapsed().as_secs_f64(),
        digest,
    })
}

fn vsum_reference(spec: &DistSpec) -> Result<String, String> {
    let (stats, cycle, completed) = spec.run_sequential().map_err(|e| e.to_string())?;
    if !completed {
        return Err("sequential reference did not complete".into());
    }
    Ok(digest::digest(&stats, Some(cycle)))
}

fn vsum_timed(seed: u64, seconds: u64) -> RunResult {
    let spec = vsum_spec(seed);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut details = Vec::new();
    let expected = match reference(&vsum_key(seed), || vsum_reference(&spec), &mut details) {
        Ok(d) => d,
        Err(e) => {
            tally.error("sequential reference", &e);
            return RunResult {
                tally,
                metrics,
                details,
            };
        }
    };
    let done = digest::completion_cycle(&expected).unwrap_or(0) as f64;
    host::reset_peak_rss();
    let mut ops = Vec::new();
    for i in 0..vsum_ops(seconds) {
        match vsum_op(&spec) {
            Ok(op) => {
                tally.check(&format!("vsum256_seq op {i}"), &expected, &op.digest);
                ops.push(op);
            }
            Err(e) => tally.error(&format!("vsum256_seq op {i}"), &e),
        }
    }
    let setups: Vec<f64> = ops.iter().map(|o| o.setup_s).collect();
    let runs: Vec<f64> = ops.iter().map(|o| o.run_s).collect();
    let walls: Vec<f64> = ops
        .iter()
        .map(|o| o.setup_s + o.run_s + o.teardown_s)
        .collect();
    let rates: Vec<f64> = runs.iter().map(|r| done / r).collect();
    metrics.set("sim_cycles_per_s", median(&rates));
    metrics.set("setup_s", median(&setups));
    metrics.set("wall_s", median(&walls));
    metrics.set("peak_rss_mib", host::peak_rss_kib() as f64 / 1024.0);
    details.push(format!("ops set-up s: {setups:?}; run s: {runs:?}"));
    RunResult {
        tally,
        metrics,
        details,
    }
}

fn host_options() -> HostOptions {
    HostOptions {
        workers: 2,
        transport: TransportKind::UnixSocket,
        // A lost worker is a failed operation, not a silent restart.
        max_restarts: 0,
        ..HostOptions::default()
    }
}

/// The slowest shard's stall profile: the shard whose driven time bounds
/// the run.
fn slowest(outcome: &DistOutcome) -> StallProfile {
    outcome
        .per_shard_profiles
        .iter()
        .copied()
        .max_by_key(StallProfile::total_ns)
        .unwrap_or_default()
}

fn vsum_seq_traced(spec: &DistSpec) -> Result<SeqTrace, SimError> {
    let ticks = Arc::new(AtomicU64::new(0));
    let nodes = spec.node_count();
    // The agents exactly as `DistSpec::build_network` attaches them.
    let core = |_: &Geometry, node: hornet_net::NodeId| -> Box<dyn NodeAgent> {
        Box::new(CoreAgent::new(
            node,
            nodes,
            vector_sum_program(VSUM_STRIDE * (node.raw() as u64 + 1), VSUM_COUNT),
            CoreConfig::default(),
        ))
    };
    let (mut net, flows_s, build_s) =
        timed_network(|| spec.network_config(), spec.seed, 3, core, &ticks)?;
    net.set_kernel_timing(true);
    let kernel = net.kernel_active();
    let start = Instant::now();
    let completed = net.run_to_completion(VSUM_MAX_CYCLES);
    let run_s = start.elapsed().as_secs_f64();
    if !completed {
        return Err(SimError::Traffic(
            "sequential traced run did not complete".into(),
        ));
    }
    Ok(SeqTrace {
        flows_s,
        build_s,
        run_s: vec![run_s],
        stages: net.kernel_stage_times().unwrap_or_default(),
        kernel,
        tick_s: ticks.load(Ordering::Relaxed) as f64 / 1e9,
        stats: net.stats(),
        cycles: net.cycle(),
        tiles: net.node_count(),
        completion: Some(net.cycle()),
    })
}

/// Distributed runs in a traced run of `vsum256_seq`.
const DIST_OPS: usize = 2;

fn vsum_traced(seed: u64) -> RunResult {
    let spec = vsum_spec(seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut details = Vec::new();
    let recorded = digest::recorded(&vsum_key(seed));

    // 1. Sequential traced run: stage and tick timers, set-up split; the
    // reference for a seed without a recorded digest.
    let seq = match vsum_seq_traced(&spec) {
        Ok(seq) => seq,
        Err(e) => {
            tally.error("sequential traced run", &e);
            return RunResult {
                tally,
                metrics: m,
                details,
            };
        }
    };
    let seq_digest = digest::digest(&seq.stats, seq.completion);
    let expected = match recorded {
        Some(d) => {
            tally.check("sequential traced run", &d, &seq_digest);
            d
        }
        None => seq_digest,
    };
    details.push(seq_detail(&seq));

    // 2. The timed operation untraced, for set-up and tracing overhead.
    let op = match vsum_op(&spec) {
        Ok(op) => op,
        Err(e) => {
            tally.error("vsum256_seq", &e);
            return RunResult {
                tally,
                metrics: m,
                details,
            };
        }
    };
    tally.check("vsum256_seq", &expected, &op.digest);
    seq_layer_metrics(&mut m, &seq, op.setup_s, "cpu.tick_s");
    m.set("core.teardown_s", op.teardown_s);
    zero_layers(&mut m, "shard.");
    m.set("obs.event_trace_overhead_pct", 0.0);
    m.set(
        "bench.trace_overhead_pct",
        (seq.run_total() / op.run_s - 1.0) * 100.0,
    );

    // 3. The same system on two worker processes over Unix sockets: the
    // dist layer. Its statistics must match the sequential digest; its
    // host times are per-layer numbers only (see README.md).
    let done = digest::completion_cycle(&expected);
    let mut runs = Vec::new();
    for i in 0..DIST_OPS {
        let start = Instant::now();
        match run_distributed(&spec, &host_options()) {
            Ok(outcome) if outcome.completed => {
                let wall = start.elapsed().as_secs_f64();
                let got = digest::digest(&outcome.stats, done);
                tally.check(&format!("distributed run {i}"), &expected, &got);
                runs.push((wall, outcome));
            }
            Ok(_) => tally.error(&format!("distributed run {i}"), &"did not complete"),
            Err(e) => tally.error(&format!("distributed run {i}"), &e),
        }
    }
    let driven = |o: &DistOutcome| slowest(o).total_ns() as f64 / 1e9;
    let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let drivens: Vec<f64> = runs.iter().map(|r| driven(&r.1)).collect();
    if let Some((wall, outcome)) = runs.last() {
        let p = slowest(outcome);
        m.set("dist.compute_s", p.compute_ns as f64 / 1e9);
        m.set("dist.wait_s", p.wait_ns as f64 / 1e9);
        m.set("dist.ingest_s", p.ingest_ns as f64 / 1e9);
        m.set("dist.flush_s", p.flush_ns as f64 / 1e9);
        m.set("dist.coordinator_s", wall - driven(outcome));
        details.push(format!(
            "distributed: wall s {walls:?}, slowest shard driven s {drivens:?} ({}), final cycle {} (digest completion {})",
            p.summary(),
            outcome.final_cycle,
            done.unwrap_or(0)
        ));
    }
    m.set(
        "bench.first_window_ratio",
        drivens.first().copied().unwrap_or(0.0) / median(&drivens),
    );
    m.set("dist.wall_s", median(&walls));
    m.set(
        "dist.sim_cycles_per_s",
        done.unwrap_or(0) as f64 / median(&drivens),
    );
    RunResult {
        tally,
        metrics: m,
        details,
    }
}

/// One fixture line: the sequential reference digest of `workload` at
/// `seed` for runs of `seconds`.
pub fn reference_line(workload: Workload, seed: u64, seconds: u64) -> Result<String, String> {
    let (key, digest) = match workload {
        Workload::Vsum256Seq => (vsum_key(seed), vsum_reference(&vsum_spec(seed))?),
        _ => {
            let s = Synth::of(workload, seconds);
            (
                digest::key(workload.name(), seed, &s.shape()),
                s.reference(seed).map_err(|e| e.to_string())?,
            )
        }
    };
    Ok(format!("{key} {digest}"))
}
