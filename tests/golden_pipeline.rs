//! The router pipeline against its recorded oracle.
//!
//! Every case of the golden matrix (see `tests/golden/mod.rs`) runs on every
//! in-process bit-exact backend — `Network::run`, the engine's sequential
//! path, and 2- and 4-thread CycleAccurate and Slack(0) runs — and each run's
//! statistics-plus-canonical-flit-trace digest must equal the one recorded
//! in `tests/fixtures/pipeline_golden.txt`.
//!
//! Regenerate the fixture (only when a change is *meant* to alter simulated
//! behaviour) with
//!
//! ```sh
//! cargo test --release --test golden_pipeline -- --ignored record_golden
//! ```

mod golden;

use golden::{cases, digest, load_fixture, GoldenCase, FIXTURE, TRACE_CAPACITY};
use hornet_core::engine::{EngineConfig, ParallelEngine, SyncMode};
use hornet_net::network::Network;
use hornet_obs::trace::TraceDump;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn run_network(case: &GoldenCase) -> u64 {
    let mut net = case.network();
    net.enable_tracing(TRACE_CAPACITY);
    net.run(case.cycles());
    digest(&net.stats(), &net.drain_trace())
}

fn run_engine(case: &GoldenCase, threads: usize, sync: SyncMode) -> u64 {
    let mut engine = ParallelEngine::from_network(
        case.network(),
        EngineConfig {
            threads,
            sync,
            ..EngineConfig::default()
        },
    );
    engine.enable_tracing(TRACE_CAPACITY);
    engine.run(case.cycles());
    digest(&engine.stats(), &engine.drain_trace())
}

/// Runs every case on `backend` and checks it against the fixture.
fn check(backend: &str, run: impl Fn(&GoldenCase) -> u64) {
    let fixture = load_fixture(&fixture_path());
    let cases = cases();
    assert_eq!(
        fixture.keys().collect::<Vec<_>>(),
        {
            let mut names: Vec<_> = cases.iter().map(|c| &c.name).collect();
            names.sort();
            names
        },
        "fixture and case matrix list different cases"
    );
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|case| {
            let got = run(case);
            let want = fixture[&case.name];
            (got != want).then(|| format!("{} ({backend}): {got:016x} != {want:016x}", case.name))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sequential_network_matches_the_fixture() {
    check("Network::run", run_network);
}

#[test]
fn sequential_engine_matches_the_fixture() {
    check("engine, 1 thread", |c| {
        run_engine(c, 1, SyncMode::CycleAccurate)
    });
}

#[test]
fn two_thread_runs_match_the_fixture() {
    check("2 threads, CycleAccurate", |c| {
        run_engine(c, 2, SyncMode::CycleAccurate)
    });
    check("2 threads, Slack(0)", |c| {
        run_engine(c, 2, SyncMode::Slack(0))
    });
}

#[test]
fn four_thread_runs_match_the_fixture() {
    check("4 threads, CycleAccurate", |c| {
        run_engine(c, 4, SyncMode::CycleAccurate)
    });
    check("4 threads, Slack(0)", |c| {
        run_engine(c, 4, SyncMode::Slack(0))
    });
}

/// Adaptive routing over bandwidth-adaptive links, cut at arbitrary cycles,
/// snapshotted, restored into a freshly built network and finished, must
/// land on the uninterrupted run's recorded digest.
#[test]
fn adaptive_bidir_snapshot_resume_matches_the_fixture() {
    let fixture = load_fixture(&fixture_path());
    let case = cases()
        .into_iter()
        .find(|c| c.bidir && c.name.contains("adaptiveminimal"))
        .expect("matrix has an adaptive bidirectional case");
    let total = case.cycles();
    for cut in [1, 173, total - 1] {
        let mut first: Network = case.network();
        first.enable_tracing(TRACE_CAPACITY);
        first.run(cut);
        let snap = first.snapshot();
        let mut trace: TraceDump = first.drain_trace();

        let mut resumed = case.network();
        resumed.enable_tracing(TRACE_CAPACITY);
        resumed.restore(&snap).expect("snapshot restores");
        assert_eq!(resumed.cycle(), cut);
        resumed.run(total - cut);
        trace.merge(resumed.drain_trace());

        assert_eq!(
            digest(&resumed.stats(), &trace),
            fixture[&case.name],
            "cut at {cut}: resumed run diverges from the recorded digest"
        );
    }
}

/// Rewrites the fixture from the sequential network run, after checking that
/// every other in-process backend agrees with it.
#[test]
#[ignore = "regenerates tests/fixtures/pipeline_golden.txt"]
fn record_golden() {
    let mut out = String::from(
        "# Router-pipeline golden digests: `<case> <FNV-1a of encode_stats ++ flit trace>`.\n\
         # Regenerate: cargo test --release --test golden_pipeline -- --ignored record_golden\n",
    );
    for case in cases() {
        let want = run_network(&case);
        for (threads, sync) in [
            (1, SyncMode::CycleAccurate),
            (2, SyncMode::CycleAccurate),
            (4, SyncMode::CycleAccurate),
            (2, SyncMode::Slack(0)),
            (4, SyncMode::Slack(0)),
        ] {
            assert_eq!(
                run_engine(&case, threads, sync),
                want,
                "{}: {threads} threads {sync:?} disagrees with Network::run",
                case.name
            );
        }
        out.push_str(&format!("{} {want:016x}\n", case.name));
    }
    std::fs::write(fixture_path(), out).expect("write fixture");
}
