//! Hot-path throughput emitter: measures simulated cycles per second for the
//! canonical 8×8-mesh configuration and writes `BENCH_hotpath.json` so
//! successive PRs can track hot-path perf deltas.
//!
//! Two scenarios are measured, matching the paper's two operating points:
//!
//! * `mesh8x8_seq` — single-threaded cycle-accurate simulation;
//! * `mesh8x8_t4_periodic5` — 4 worker threads, loose synchronization every
//!   5 cycles (the paper's headline configuration, Table I).
//!
//! A third scenario, `mesh8x8_seq_traced`, repeats the sequential run with
//! flit-lifecycle event tracing enabled; the emitted
//! `tracing_overhead_pct` is the throughput cost of turning tracing on
//! (`mesh8x8_seq` itself measures the tracing-compiled-in-but-disabled
//! configuration, which the observability work must keep within noise).
//!
//! The emitted `stage_*_ns` break one timed sequential run down into the
//! router pipeline's sweeps (absorb, SA, VA, RC, negedge, bridge).
//!
//! Usage: `cargo run --release -p hornet-bench --bin bench_hotpath [--baseline
//! FILE] [--out FILE]`. When `--baseline` points at a previous emission, its
//! `current` section is embedded under `baseline` in the new file, so a single
//! artifact records both sides of a before/after comparison.

use hornet_bench::extract_current_section;
use hornet_core::engine::SyncMode;
use hornet_core::sim::{SimulationBuilder, TrafficKind};
use hornet_net::config::NetworkConfig;
use hornet_net::geometry::Geometry;
use hornet_net::network::Network;
use hornet_net::routing::RoutingKind;
use hornet_net::vca::VcAllocKind;
use hornet_traffic::injector::{flows_for_pattern, SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::sync::Arc;
use std::time::Instant;

const MEASURED_CYCLES: u64 = 20_000;
const RATE: f64 = 0.05;
const SEED: u64 = 1;

struct Scenario {
    name: &'static str,
    threads: usize,
    sync: SyncMode,
    /// Per-tile trace-ring capacity; 0 leaves tracing disabled (the
    /// compiled-in-but-off configuration every other scenario measures).
    trace_events: usize,
}

fn run_scenario(s: &Scenario) -> (f64, u64) {
    let sim = SimulationBuilder::new()
        .geometry(Geometry::mesh2d(8, 8))
        .traffic(TrafficKind::pattern(SyntheticPattern::Transpose, RATE))
        .measured_cycles(MEASURED_CYCLES)
        .seed(SEED)
        .threads(s.threads)
        .sync(s.sync)
        .trace_events(s.trace_events)
        .build()
        .expect("valid config");
    let start = Instant::now();
    let report = sim.run().expect("run succeeds");
    let secs = start.elapsed().as_secs_f64();
    (
        MEASURED_CYCLES as f64 / secs,
        report.network.delivered_packets,
    )
}

/// One timed sequential run on the canonical workload; returns the
/// per-stage wall-clock breakdown in nanoseconds (absorb, SA, VA, RC,
/// negedge, bridge).
fn stage_breakdown() -> Option<Vec<(&'static str, u128)>> {
    let geometry = Arc::new(Geometry::mesh2d(8, 8));
    let pattern = SyntheticPattern::Transpose;
    let cfg = NetworkConfig::new((*geometry).clone())
        .with_routing(RoutingKind::Xy)
        .with_vca(VcAllocKind::Dynamic)
        .with_flows(flows_for_pattern(&pattern, &geometry));
    let mut network = Network::new(&cfg, SEED).expect("valid config");
    for node in geometry.nodes() {
        network.attach_agent(
            node,
            Box::new(SyntheticInjector::new(
                Arc::clone(&geometry),
                SyntheticConfig {
                    pattern: pattern.clone(),
                    process: InjectionProcess::Bernoulli { rate: RATE },
                    packet_len: 8,
                    stop_after: None,
                    max_packets: None,
                },
            )),
        );
    }
    network.set_kernel_timing(true);
    network.run(MEASURED_CYCLES);
    let t = network.kernel_stage_times()?;
    Some(vec![
        ("absorb", t.absorb.as_nanos()),
        ("sa", t.sa.as_nanos()),
        ("va", t.va.as_nanos()),
        ("rc", t.rc.as_nanos()),
        ("negedge", t.negedge.as_nanos()),
        ("bridge", t.bridge.as_nanos()),
    ])
}

/// The latest `router_pipeline` medians from the criterion-lite CSV log, if a
/// `cargo bench -p hornet-bench --bench router_pipeline` ran from this
/// directory. Embedding them here keeps the criterion trajectory in the same
/// artifact as the cycles/sec numbers.
fn criterion_medians() -> Vec<(String, u128)> {
    let Ok(csv) = std::fs::read_to_string(criterion::target_dir().join("criterion-lite.csv"))
    else {
        return Vec::new();
    };
    let mut latest: Vec<(String, u128)> = Vec::new();
    for line in csv.lines() {
        let mut parts = line.split(',');
        let (Some(id), Some(_min), Some(median)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if !id.starts_with("router_pipeline/") {
            continue;
        }
        let Ok(median) = median.parse::<u128>() else {
            continue;
        };
        let key = format!("{}_median_ns", id.replace(['/', '.'], "_"));
        match latest.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = median,
            None => latest.push((key, median)),
        }
    }
    latest
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path: Option<String> = None;
    let mut out_path = "BENCH_hotpath.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next(),
            "--out" => {
                if let Some(p) = args.next() {
                    out_path = p;
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let scenarios = [
        Scenario {
            name: "mesh8x8_seq",
            threads: 1,
            sync: SyncMode::CycleAccurate,
            trace_events: 0,
        },
        Scenario {
            name: "mesh8x8_t4_periodic5",
            threads: 4,
            sync: SyncMode::Periodic(5),
            trace_events: 0,
        },
        Scenario {
            name: "mesh8x8_seq_traced",
            threads: 1,
            sync: SyncMode::CycleAccurate,
            trace_events: 1 << 16,
        },
    ];

    let mut current_fields = Vec::new();
    let mut cps_by_name: Vec<(&str, f64)> = Vec::new();
    for s in &scenarios {
        // Warm-up run (page in code + allocator), then the measured run.
        run_scenario(s);
        let (cps, delivered) = run_scenario(s);
        println!(
            "{:<24} {:>12.0} cycles/sec ({delivered} packets delivered)",
            s.name, cps
        );
        current_fields.push(format!("\"{}_cycles_per_sec\": {:.0}", s.name, cps));
        current_fields.push(format!("\"{}_delivered_packets\": {}", s.name, delivered));
        cps_by_name.push((s.name, cps));
    }
    // Tracing-on vs. tracing-off delta for the sequential hot path.
    let cps_of = |name: &str| {
        cps_by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    };
    let (off, on) = (cps_of("mesh8x8_seq"), cps_of("mesh8x8_seq_traced"));
    if off > 0.0 {
        let overhead_pct = (off - on) / off * 100.0;
        println!("tracing overhead       {overhead_pct:>12.2} %");
        current_fields.push(format!("\"tracing_overhead_pct\": {overhead_pct:.2}"));
    }
    if let Some(stages) = stage_breakdown() {
        let total: u128 = stages.iter().map(|(_, ns)| ns).sum();
        for (stage, ns) in &stages {
            let pct = (*ns * 100).checked_div(total).unwrap_or(0);
            println!("stage {stage:<10} {ns:>12} ns ({pct:>2} %)");
            current_fields.push(format!("\"stage_{stage}_ns\": {ns}"));
        }
    }
    for (key, median) in criterion_medians() {
        current_fields.push(format!("\"{key}\": {median}"));
    }

    let baseline = baseline_path
        .and_then(|p| std::fs::read_to_string(&p).ok())
        .and_then(|c| extract_current_section(&c));

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str(&format!(
        "  \"config\": \"mesh8x8 transpose rate={RATE} cycles={MEASURED_CYCLES} seed={SEED}\",\n"
    ));
    if let Some(b) = baseline {
        json.push_str(&format!("  \"baseline\": {b},\n"));
    }
    json.push_str(&format!(
        "  \"current\": {{ {} }}\n",
        current_fields.join(", ")
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write output file");
    println!("wrote {out_path}");
}
