//! Multi-process runs against the recorded router-pipeline oracle: every
//! golden case a `DistSpec` can express runs as a 4-process CycleAccurate
//! job over Unix sockets and must reproduce the digest recorded in
//! `tests/fixtures/pipeline_golden.txt` (see `tests/golden/mod.rs` at the
//! repository root).

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use golden::{cases, digest, load_fixture, FIXTURE, TRACE_CAPACITY};
use hornet_dist::spec::DistSync;
use hornet_dist::{run_distributed, HostOptions, TransportKind};
use std::path::PathBuf;

#[cfg(unix)]
#[test]
fn four_process_unix_socket_runs_match_the_fixture() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fixture = load_fixture(&root.join(FIXTURE));
    let mut mismatches = Vec::new();
    for case in cases().into_iter().filter(|c| !c.bidir) {
        let mut spec = case.spec.clone();
        spec.sync = DistSync::CycleAccurate;
        spec.trace_capacity = Some(TRACE_CAPACITY as u32);
        let outcome = run_distributed(
            &spec,
            &HostOptions {
                workers: 4,
                transport: TransportKind::UnixSocket,
                worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_hornet-dist"))),
                ..HostOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: distributed run failed: {e}", case.name));
        let got = digest(&outcome.stats, &outcome.trace);
        let want = fixture[&case.name];
        if got != want {
            mismatches.push(format!("{}: {got:016x} != {want:016x}", case.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "4-process digests diverge from the fixture:\n{}",
        mismatches.join("\n")
    );
}
