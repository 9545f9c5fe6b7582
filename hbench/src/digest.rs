//! Result digests: the fixture every timed run is checked against.
//!
//! A digest is the canonical text of the simulated statistics that a
//! CycleAccurate run must reproduce exactly on every backend: packet and
//! flit counts, latency totals, hops and the latency histogram, plus (for
//! run-to-completion workloads) the sequential completion cycle.
//! `digests.txt` holds the recorded digests of the shipped seeds; a seed
//! without one gets its reference from a sequential run before any timed
//! run.

use hornet_net::stats::NetworkStats;

/// The recorded fixture: one `key digest` pair per line.
const RECORDED: &str = include_str!("../digests.txt");

/// The canonical digest text of `stats`. `completion_cycle` is the
/// sequential reference's completion cycle for run-to-completion workloads.
/// Distributed runs stop a few cycles apart from run to run while their
/// statistics stay identical, so their own final cycle is never part of a
/// digest.
pub fn digest(stats: &NetworkStats, completion_cycle: Option<u64>) -> String {
    let mut hist = stats.latency_histogram.clone();
    while hist.last() == Some(&0) {
        hist.pop();
    }
    let hist: Vec<String> = hist.iter().map(u64::to_string).collect();
    let mut out = format!(
        "inj_pkts={};inj_flits={};del_pkts={};del_flits={};flit_lat={};pkt_lat={};head_lat={};hops={};route_fail={};hist={}",
        stats.injected_packets,
        stats.injected_flits,
        stats.delivered_packets,
        stats.delivered_flits,
        stats.total_flit_latency,
        stats.total_packet_latency,
        stats.total_head_latency,
        stats.total_hops,
        stats.routing_failures,
        hist.join(","),
    );
    if let Some(cycle) = completion_cycle {
        out.push_str(&format!(";done={cycle}"));
    }
    out
}

/// The completion cycle recorded in a digest, if it has one.
pub fn completion_cycle(digest: &str) -> Option<u64> {
    digest
        .split(';')
        .find_map(|f| f.strip_prefix("done="))
        .and_then(|v| v.parse().ok())
}

/// The fixture key of one workload run: workload name, seed and the shape
/// of the simulated window.
pub fn key(workload: &str, seed: u64, shape: &str) -> String {
    format!("{workload}/seed={seed}/{shape}")
}

/// The recorded digest for `key`, if the fixture has one.
pub fn recorded(key: &str) -> Option<String> {
    lookup(RECORDED, key)
}

fn lookup(fixture: &str, key: &str) -> Option<String> {
    fixture
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, d)| d.trim().to_string())
}

/// Counts operations and the ones that failed: errored, did not complete,
/// or disagreed with the reference digest.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation whose result digest is `got`; it fails unless
    /// `got` equals `expected`. Returns whether it matched.
    pub fn check(&mut self, what: &str, expected: &str, got: &str) -> bool {
        self.attempted += 1;
        let ok = expected == got;
        if !ok {
            self.failed += 1;
            eprintln!("hbench: {what}: digest mismatch\n  expected {expected}\n  got      {got}");
        }
        ok
    }

    /// Records one operation that errored before producing a result.
    pub fn error(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("hbench: {what}: {err}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> NetworkStats {
        let mut s = NetworkStats::new();
        s.injected_packets = 10;
        s.injected_flits = 80;
        s.delivered_packets = 9;
        s.delivered_flits = 72;
        s.total_packet_latency = 900;
        s.latency_histogram = vec![0, 3, 6, 0, 0];
        s
    }

    #[test]
    fn digest_is_canonical_and_ignores_trailing_empty_buckets() {
        let a = stats();
        let mut b = stats();
        b.latency_histogram.truncate(3);
        assert_eq!(digest(&a, None), digest(&b, None));
        assert!(digest(&a, None).ends_with("hist=0,3,6"));
        assert_eq!(completion_cycle(&digest(&a, Some(46040))), Some(46040));
        assert_eq!(completion_cycle(&digest(&a, None)), None);
    }

    #[test]
    fn digest_mismatch_counts_as_a_failed_operation() {
        let reference = digest(&stats(), Some(7));
        let mut tally = Tally::default();
        assert!(tally.check("same", &reference, &digest(&stats(), Some(7))));
        let mut drifted = stats();
        drifted.total_hops += 1;
        assert!(!tally.check("hops", &reference, &digest(&drifted, Some(7))));
        let mut bucket = stats();
        bucket.latency_histogram[1] -= 1;
        bucket.latency_histogram[2] += 1;
        assert!(!tally.check("histogram", &reference, &digest(&bucket, Some(7))));
        assert!(!tally.check("done", &reference, &digest(&stats(), Some(8))));
        tally.error("crash", &"worker lost");
        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }

    #[test]
    fn fixture_lookup_matches_whole_keys_only() {
        let fixture = "# comment\na/seed=1/w 1+2 x=1\na/seed=10/w 1+2 x=2\n";
        assert_eq!(lookup(fixture, "a/seed=1/w"), Some("1+2 x=1".into()));
        assert_eq!(lookup(fixture, "a/seed=10/w"), Some("1+2 x=2".into()));
        assert_eq!(lookup(fixture, "a/seed=2/w"), None);
    }

    #[test]
    fn recorded_fixture_lines_are_well_formed() {
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let (key, digest) = line.split_once(' ').expect("key and digest");
            assert_eq!(key.split('/').count(), 3, "bad key {key}");
            assert!(digest.starts_with("inj_pkts="), "bad digest for {key}");
        }
    }
}
