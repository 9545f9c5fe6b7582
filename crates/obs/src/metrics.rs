//! The lock-free, shard-local metrics registry and the telemetry samples
//! drawn from it.
//!
//! A [`MetricsRegistry`] maps names to three kinds of instruments:
//!
//! * [`Counter`] — monotone `u64`, relaxed `fetch_add`;
//! * [`Gauge`] — last-written `u64`, relaxed `store`;
//! * [`Histogram`] — 32 log₂-bucketed occurrence counters, relaxed
//!   `fetch_add` on one bucket per recorded value.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes the registry lock
//! once and hands back a cheap cloneable handle; every subsequent update is
//! a single relaxed atomic operation with no lock anywhere, so instruments
//! can sit on simulation hot paths. Handles stay valid for the life of the
//! registry (they share ownership of the slot), so a sampler thread and an
//! updating shard thread never race on anything but the atomics themselves.
//!
//! [`TelemetrySample`] is the unit of periodic observation: the shard
//! driver's fixed progress fields (cycle, flit totals, stall profile) plus a
//! flattened snapshot of the registry. Samples serialize to a fixed
//! little-endian byte layout (for `CtrlMsg::Telemetry` on wire v4) and to
//! one NDJSON object per line (for `hornet-dist --metrics-out`).

use crate::profile::StallProfile;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buckets per histogram: value `v` lands in bucket `⌈log₂(v+1)⌉`, capped.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotone counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed; the sampler tolerates torn inter-metric views).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂ histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<[AtomicU64; HISTOGRAM_BUCKETS]>);

impl Histogram {
    /// Records one occurrence of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all buckets.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// Total recorded occurrences.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named registry of counters, gauges and histograms.
///
/// Cloning the registry clones the *handle*; all clones share one slot
/// table, so a shard can hand its registry to a sampler without copying.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    slots: Arc<Mutex<Vec<(String, Slot)>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.slots.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("slots", &n)
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, mk: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        if let Some((_, slot)) = slots.iter().find(|(n, _)| n == name) {
            return slot.clone();
        }
        let slot = mk();
        slots.push((name.to_string(), slot.clone()));
        slot
    }

    /// The counter named `name`, created on first use. Re-registering the
    /// name returns a handle to the *same* counter; asking for a name that
    /// is already a gauge or histogram panics (a misconfigured instrument is
    /// a programming error, not a runtime condition).
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))) {
            Slot::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use (see [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use (see [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || {
            Slot::Histogram(Histogram(Arc::new(std::array::from_fn(|_| {
                AtomicU64::new(0)
            }))))
        }) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Flattens every instrument to `(name, u64)` pairs in registration
    /// order: counters and gauges as their value, histograms as
    /// `name_count` plus one `name_b<i>` entry per non-empty bucket.
    pub fn sample(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut out = Vec::with_capacity(slots.len());
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => out.push((name.clone(), c.get())),
                Slot::Gauge(g) => out.push((name.clone(), g.get())),
                Slot::Histogram(h) => {
                    let buckets = h.buckets();
                    out.push((format!("{name}_count"), buckets.iter().sum()));
                    for (i, &b) in buckets.iter().enumerate() {
                        if b != 0 {
                            out.push((format!("{name}_b{i}"), b));
                        }
                    }
                }
            }
        }
        out
    }
}

/// One periodic observation of one shard: fixed driver progress fields plus
/// the flattened registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Shard that produced the sample.
    pub shard: u32,
    /// Simulated cycle at sampling time.
    pub cycle: u64,
    /// Cumulative flits moved from boundary mailboxes into ingress buffers.
    pub received: u64,
    /// Flits buffered or pending anywhere in the shard right now.
    pub busy: u64,
    /// Packets delivered by the shard's tiles so far.
    pub delivered_packets: u64,
    /// Flits delivered by the shard's tiles so far.
    pub delivered_flits: u64,
    /// Flits injected by the shard's tiles so far.
    pub injected_flits: u64,
    /// Flits currently buffered in the shard's routers.
    pub buffered_flits: u64,
    /// Wall-time stall attribution accumulated so far this run.
    pub profile: StallProfile,
    /// Flattened registry snapshot (`MetricsRegistry::sample`).
    pub metrics: Vec<(String, u64)>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if buf.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated observability record",
        ));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> io::Result<u32> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> io::Result<u64> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
}

/// Reads a `u32` element count and rejects it unless the remaining bytes can
/// hold that many elements of at least `min_elem_bytes` each — the rule of
/// `hornet_net::codec::Dec::count`, for this crate's records.
pub(crate) fn get_count(buf: &mut &[u8], min_elem_bytes: usize) -> io::Result<usize> {
    let n = get_u32(buf)? as usize;
    if n.saturating_mul(min_elem_bytes.max(1)) > buf.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("element count {n} exceeds the remaining input"),
        ));
    }
    Ok(n)
}

impl TelemetrySample {
    /// Serializes the sample to the fixed little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.shard);
        put_u64(buf, self.cycle);
        put_u64(buf, self.received);
        put_u64(buf, self.busy);
        put_u64(buf, self.delivered_packets);
        put_u64(buf, self.delivered_flits);
        put_u64(buf, self.injected_flits);
        put_u64(buf, self.buffered_flits);
        put_u64(buf, self.profile.compute_ns);
        put_u64(buf, self.profile.wait_ns);
        put_u64(buf, self.profile.ingest_ns);
        put_u64(buf, self.profile.flush_ns);
        put_u32(buf, self.metrics.len() as u32);
        for (name, v) in &self.metrics {
            put_u32(buf, name.len() as u32);
            buf.extend_from_slice(name.as_bytes());
            put_u64(buf, *v);
        }
    }

    /// Decodes a sample written by [`encode_into`](Self::encode_into),
    /// advancing the cursor.
    ///
    /// # Errors
    ///
    /// `InvalidData` / `UnexpectedEof` on a corrupt or truncated record.
    pub fn decode_from(buf: &mut &[u8]) -> io::Result<Self> {
        let shard = get_u32(buf)?;
        let cycle = get_u64(buf)?;
        let received = get_u64(buf)?;
        let busy = get_u64(buf)?;
        let delivered_packets = get_u64(buf)?;
        let delivered_flits = get_u64(buf)?;
        let injected_flits = get_u64(buf)?;
        let buffered_flits = get_u64(buf)?;
        let profile = StallProfile {
            compute_ns: get_u64(buf)?,
            wait_ns: get_u64(buf)?,
            ingest_ns: get_u64(buf)?,
            flush_ns: get_u64(buf)?,
        };
        // Each metric is at least a name length and a value.
        let n = get_count(buf, 12)?;
        let mut metrics = Vec::with_capacity(n);
        for _ in 0..n {
            let len = get_u32(buf)? as usize;
            let name = std::str::from_utf8(take(buf, len)?)
                .map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "metric name is not UTF-8")
                })?
                .to_string();
            let v = get_u64(buf)?;
            metrics.push((name, v));
        }
        Ok(Self {
            shard,
            cycle,
            received,
            busy,
            delivered_packets,
            delivered_flits,
            injected_flits,
            buffered_flits,
            profile,
            metrics,
        })
    }

    /// Renders the sample as one NDJSON object (no trailing newline). The
    /// fixed keys below form the schema `validate_ndjson_line` checks.
    pub fn to_ndjson(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"shard\":{},\"cycle\":{},\"received\":{},\"busy\":{},\
             \"delivered_packets\":{},\"delivered_flits\":{},\"injected_flits\":{},\
             \"buffered_flits\":{},\"compute_ns\":{},\"wait_ns\":{},\"ingest_ns\":{},\
             \"flush_ns\":{},\"metrics\":{{",
            self.shard,
            self.cycle,
            self.received,
            self.busy,
            self.delivered_packets,
            self.delivered_flits,
            self.injected_flits,
            self.buffered_flits,
            self.profile.compute_ns,
            self.profile.wait_ns,
            self.profile.ingest_ns,
            self.profile.flush_ns,
        );
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", escape_json(name), v);
        }
        s.push_str("}}");
        s
    }

    /// Checks one `--metrics-out` NDJSON line against the sample schema:
    /// object braces, every fixed key present, each fixed key followed by a
    /// numeric value. Returns a description of the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the schema violation.
    pub fn validate_ndjson_line(line: &str) -> Result<(), String> {
        let line = line.trim();
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err("line is not a JSON object".into());
        }
        const KEYS: [&str; 12] = [
            "shard",
            "cycle",
            "received",
            "busy",
            "delivered_packets",
            "delivered_flits",
            "injected_flits",
            "buffered_flits",
            "compute_ns",
            "wait_ns",
            "ingest_ns",
            "flush_ns",
        ];
        for key in KEYS {
            let pat = format!("\"{key}\":");
            let Some(at) = line.find(&pat) else {
                return Err(format!("missing key {key:?}"));
            };
            let rest = &line[at + pat.len()..];
            if !rest.starts_with(|c: char| c.is_ascii_digit()) {
                return Err(format!("key {key:?} has a non-numeric value"));
            }
        }
        if !line.contains("\"metrics\":{") {
            return Err("missing key \"metrics\"".into());
        }
        Ok(())
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_handles_and_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("flits");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = reg.counter("flits");
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(reg.sample(), vec![("flits".to_string(), 40_000)]);
    }

    #[test]
    fn histogram_buckets_by_log2_and_flattens_sparsely() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(1);
        h.record(1000); // bucket 10
        assert_eq!(h.count(), 4);
        let sample = reg.sample();
        assert_eq!(sample[0], ("wait_count".to_string(), 4));
        assert!(sample.contains(&("wait_b0".to_string(), 1)));
        assert!(sample.contains(&("wait_b1".to_string(), 2)));
        assert!(sample.contains(&("wait_b10".to_string(), 1)));
        assert_eq!(sample.len(), 4, "empty buckets are omitted");
    }

    #[test]
    fn gauge_overwrites() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("cycle");
        g.set(10);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }

    #[test]
    fn sample_round_trips_and_emits_valid_ndjson() {
        let s = TelemetrySample {
            shard: 3,
            cycle: 12_000,
            received: 42,
            busy: 7,
            delivered_packets: 100,
            delivered_flits: 400,
            injected_flits: 410,
            buffered_flits: 9,
            profile: StallProfile {
                compute_ns: 1,
                wait_ns: 2,
                ingest_ns: 3,
                flush_ns: 4,
            },
            metrics: vec![("batch_wait_count".into(), 5)],
        };
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let back = TelemetrySample::decode_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, s);
        let line = s.to_ndjson();
        TelemetrySample::validate_ndjson_line(&line).expect("schema-valid line");
        assert!(TelemetrySample::validate_ndjson_line("{\"shard\":1}").is_err());
        assert!(TelemetrySample::validate_ndjson_line("not json").is_err());
    }
}
