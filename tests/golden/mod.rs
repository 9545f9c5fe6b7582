//! The recorded router-pipeline oracle shared by `tests/golden_pipeline.rs`
//! and the distributed backend's `golden_dist` test.
//!
//! Every case of [`cases`] is a fixed workload (mesh shape, routing, VC
//! allocation, link mode, VC count, agents, seed, cycle count). Its digest is
//! a 64-bit FNV-1a hash of the merged `NetworkStats` (in the
//! `codec::encode_stats` layout) followed by the canonical flit-lifecycle
//! trace (`TraceDump::flit_events`, `TraceDump::encode` layout). Every
//! bit-exact backend — sequential, threaded CycleAccurate and Slack(0), and
//! multi-process CycleAccurate — must reproduce the digest recorded in
//! `tests/fixtures/pipeline_golden.txt`.
//!
//! The fixture is rewritten only by the `#[ignore]`d `record_golden` test in
//! `tests/golden_pipeline.rs`.

#![allow(dead_code)]

use hornet_dist::spec::{DistSpec, DistWorkload, RunKind};
use hornet_net::codec::{encode_stats, Enc};
use hornet_net::network::Network;
use hornet_net::routing::RoutingKind;
use hornet_net::stats::NetworkStats;
use hornet_net::vca::VcAllocKind;
use hornet_obs::trace::TraceDump;
use hornet_traffic::injector::{SyntheticConfig, SyntheticInjector};
use hornet_traffic::pattern::{InjectionProcess, SyntheticPattern};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-tile trace ring capacity; large enough that no case drops an event.
pub const TRACE_CAPACITY: usize = 1 << 14;

/// The fixture file, relative to the repository root.
pub const FIXTURE: &str = "tests/fixtures/pipeline_golden.txt";

/// One recorded workload.
pub struct GoldenCase {
    /// Stable fixture key.
    pub name: String,
    /// Everything but the link mode (distributed runs rebuild from it).
    pub spec: DistSpec,
    /// Bandwidth-adaptive bidirectional links (not expressible in a
    /// `DistSpec`, so such cases skip the multi-process check).
    pub bidir: bool,
}

impl GoldenCase {
    fn synthetic(
        width: u32,
        height: u32,
        routing: RoutingKind,
        vca: VcAllocKind,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
    ) -> Self {
        let spec = DistSpec {
            width,
            height,
            routing,
            vca,
            pattern,
            process: InjectionProcess::Bernoulli { rate },
            packet_len: 4,
            seed,
            run: RunKind::Cycles(800),
            ..DistSpec::default()
        };
        Self {
            name: format!("{width}x{height}-{routing:?}-{vca:?}").to_lowercase(),
            spec,
            bidir: false,
        }
    }

    fn named(mut self, suffix: &str) -> Self {
        self.name = format!("{}-{suffix}", self.name);
        self
    }

    /// Simulated cycles of the case.
    pub fn cycles(&self) -> u64 {
        self.spec.cycle_budget()
    }

    /// Builds the case's network with every agent attached.
    pub fn network(&self) -> Network {
        if !self.bidir {
            return self.spec.build_network().expect("valid golden case");
        }
        assert_eq!(self.spec.workload, DistWorkload::Synthetic);
        let cfg = self.spec.network_config().with_bidirectional_links(true);
        let geometry = Arc::new(cfg.geometry.clone());
        let mut network = Network::new(&cfg, self.spec.seed).expect("valid golden case");
        for node in geometry.nodes() {
            network.attach_agent(
                node,
                Box::new(SyntheticInjector::new(
                    Arc::clone(&geometry),
                    SyntheticConfig {
                        pattern: self.spec.pattern.clone(),
                        process: self.spec.process,
                        packet_len: self.spec.packet_len,
                        stop_after: self.spec.stop_after,
                        max_packets: self.spec.max_packets,
                    },
                )),
            );
        }
        network
    }
}

/// The recorded matrix: mesh shapes from 2×2 to 12×11 (square and not), every
/// routing kind, every VC-allocation kind, bidirectional links on and off,
/// tiles with more than 64 VCs, a tile set spanning several kernel tile
/// blocks, and the memory and CPU workloads.
pub fn cases() -> Vec<GoldenCase> {
    use RoutingKind as R;
    use SyntheticPattern as P;
    use VcAllocKind as V;
    let mut out = vec![
        GoldenCase::synthetic(2, 2, R::Xy, V::Dynamic, P::UniformRandom, 0.10, 11),
        GoldenCase::synthetic(3, 2, R::Xy, V::Dynamic, P::UniformRandom, 0.08, 12),
        GoldenCase::synthetic(2, 5, R::Yx, V::Dynamic, P::UniformRandom, 0.08, 13),
        GoldenCase::synthetic(8, 8, R::Xy, V::Dynamic, P::Transpose, 0.06, 14),
        GoldenCase::synthetic(7, 3, R::O1Turn, V::Edvca, P::UniformRandom, 0.05, 15),
    ];
    for (i, routing) in [
        R::Xy,
        R::Yx,
        R::O1Turn,
        R::Valiant,
        R::Romm,
        R::Prom,
        R::StaticLoadBalanced,
        R::AdaptiveMinimal,
    ]
    .into_iter()
    .enumerate()
    {
        out.push(GoldenCase::synthetic(
            4,
            4,
            routing,
            V::Dynamic,
            P::Transpose,
            0.07,
            100 + i as u64,
        ));
    }
    for (i, vca) in [V::StaticSet, V::Phased, V::Edvca, V::Faa, V::Table]
        .into_iter()
        .enumerate()
    {
        out.push(GoldenCase::synthetic(
            4,
            4,
            R::Xy,
            vca,
            P::UniformRandom,
            0.07,
            200 + i as u64,
        ));
    }
    for (w, h, routing, seed) in [
        (4, 4, R::Xy, 301),
        (5, 3, R::AdaptiveMinimal, 302),
        (4, 6, R::O1Turn, 303),
    ] {
        let mut case =
            GoldenCase::synthetic(w, h, routing, V::Dynamic, P::UniformRandom, 0.09, seed)
                .named("bidir");
        case.bidir = true;
        out.push(case);
    }
    // 16 VCs per port (and on the injection port): interior tiles hold
    // 4 × 16 + 16 = 80 ingress VCs.
    for (routing, seed) in [(R::Xy, 401), (R::AdaptiveMinimal, 402)] {
        let mut case =
            GoldenCase::synthetic(4, 4, routing, V::Dynamic, P::UniformRandom, 0.12, seed)
                .named("vcs16");
        case.spec.vcs_per_port = 16;
        case.spec.injection_vcs = 16;
        out.push(case);
    }
    // 132 tiles under saturated traffic: several kernel tile blocks plus a
    // partial one, with every block busy.
    out.push(
        GoldenCase::synthetic(12, 11, R::Xy, V::Dynamic, P::UniformRandom, 0.15, 601)
            .named("saturated"),
    );
    // 35 tiles (two full kernel tile blocks plus three) on narrow, fast
    // channels: one-flit VCs flip between zero and one credit every hop,
    // and two-flit links let SA try two grants into one downstream VC in a
    // cycle (its staged count must refuse the second).
    let mut narrow =
        GoldenCase::synthetic(7, 5, R::Xy, V::Dynamic, P::UniformRandom, 0.3, 701).named("narrow");
    narrow.spec.vcs_per_port = 2;
    narrow.spec.vc_capacity = 1;
    narrow.spec.injection_vcs = 1;
    narrow.spec.injection_vc_capacity = 2;
    narrow.spec.link_bandwidth = 2;
    out.push(narrow);
    out.push(GoldenCase {
        name: "3x3-vsum".into(),
        spec: DistSpec {
            width: 3,
            height: 3,
            workload: DistWorkload::MemVectorSum {
                base_stride: 0x1000,
                count: 16,
            },
            seed: 501,
            run: RunKind::Cycles(3_000),
            ..DistSpec::default()
        },
        bidir: false,
    });
    out.push(GoldenCase {
        name: "4x2-token-ring".into(),
        spec: DistSpec {
            width: 4,
            height: 2,
            workload: DistWorkload::CpuTokenRing,
            seed: 502,
            run: RunKind::Cycles(3_000),
            ..DistSpec::default()
        },
        bidir: false,
    });
    out
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of one run: statistics, then the canonical flit trace.
pub fn digest(stats: &NetworkStats, trace: &TraceDump) -> u64 {
    let flits = trace.flit_events();
    assert_eq!(
        flits.dropped, 0,
        "trace ring overflowed; grow TRACE_CAPACITY"
    );
    assert!(stats.delivered_flits > 0, "golden case moved no traffic");
    let mut e = Enc::new();
    encode_stats(&mut e, stats);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&flits.encode());
    fnv1a(&bytes)
}

/// Reads the recorded fixture: case name → digest.
pub fn load_fixture(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("`<case> <digest>` line");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (name.to_string(), digest)
        })
        .collect()
}
