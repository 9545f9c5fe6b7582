//! The hand-rolled little-endian wire codec.
//!
//! Everything that crosses a process boundary or lands in a checkpoint —
//! flits and credits on the data plane, specs, ledgers and directives on the
//! control plane, and the per-shard state snapshots — is encoded with this
//! explicit codec and framed with a `u32` length prefix. The encoding is
//! deliberately hand-rolled: the build image has no serialization crates,
//! and a fixed, versioned byte layout is exactly what a cross-machine
//! protocol (and an on-disk checkpoint) wants anyway.
//!
//! The module lives in `hornet-net` (rather than `hornet-dist`, where it
//! started) so the per-crate snapshot implementations in `hornet-net`,
//! `hornet-mem`, `hornet-cpu` and `hornet-traffic` can serialize through it
//! without depending on the distributed backend; `hornet-dist` re-exports it
//! as `wire`.

use crate::boundary::CreditMsg;
use crate::flit::{Flit, FlitKind, FlitStats, Packet, Payload};
use crate::ids::{FlowId, NodeId, PacketId};
use crate::stats::{FlowRecord, NetworkStats, RouterActivity};
use std::io::{self, Read, Write};

/// Size of one encoded flit, in bytes (fixed: flits are also stored in
/// fixed-slot shared-memory rings).
pub const FLIT_WIRE_BYTES: usize = 79;

/// Size of one encoded credit message, in bytes.
pub const CREDIT_WIRE_BYTES: usize = 12;

/// A growing little-endian encode buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Raw bytes with a length prefix.
    pub fn blob(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }
}

/// A little-endian decode cursor.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated wire message")
}

impl<'a> Dec<'a> {
    /// Starts decoding `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8"))
    }

    /// Reads a `u32` element count and rejects it unless the remaining
    /// bytes can hold that many elements of at least `min_elem_bytes` each,
    /// so a corrupt count never drives an allocation or a long decode loop.
    pub fn count(&mut self, min_elem_bytes: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("element count {n} exceeds the remaining input"),
            ));
        }
        Ok(n)
    }

    pub fn blob(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame (up to a 64 MiB sanity bound).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > 64 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Encodes a flit into exactly [`FLIT_WIRE_BYTES`] bytes.
pub fn encode_flit(e: &mut Enc, f: &Flit) {
    let before = e.buf.len();
    e.u64(f.packet.raw());
    e.u64(f.flow.base());
    e.u8(f.flow.phase());
    e.u64(f.original_flow.base());
    e.u8(f.original_flow.phase());
    e.u8(match f.kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::HeadTail => 3,
    });
    e.u32(f.seq);
    e.u32(f.packet_len);
    e.u32(f.dst.raw());
    e.u32(f.src.raw());
    e.u64(f.visible_at);
    e.u64(f.stats.injected_at);
    e.u64(f.stats.arrived_at_current);
    e.u64(f.stats.accumulated_latency);
    e.u32(f.stats.hops);
    debug_assert_eq!(e.buf.len() - before, FLIT_WIRE_BYTES);
}

/// Decodes a flit written by [`encode_flit`].
pub fn decode_flit(d: &mut Dec) -> io::Result<Flit> {
    Ok(Flit {
        packet: PacketId::new(d.u64()?),
        flow: FlowId::new(d.u64()?).with_phase(d.u8()?),
        original_flow: FlowId::new(d.u64()?).with_phase(d.u8()?),
        kind: match d.u8()? {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            3 => FlitKind::HeadTail,
            k => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad flit kind {k}"),
                ))
            }
        },
        seq: d.u32()?,
        packet_len: d.u32()?,
        dst: NodeId::new(d.u32()?),
        src: NodeId::new(d.u32()?),
        visible_at: d.u64()?,
        stats: FlitStats {
            injected_at: d.u64()?,
            arrived_at_current: d.u64()?,
            accumulated_latency: d.u64()?,
            hops: d.u32()?,
        },
    })
}

/// Encodes a full packet (identity, flow, framing and payload words) — the
/// record that follows a packet's tail flit across a process boundary so the
/// destination bridge can claim the payload (the DMA side of the flit model).
pub fn encode_packet(e: &mut Enc, p: &Packet) {
    e.u64(p.id.raw());
    e.u64(p.flow.base());
    e.u8(p.flow.phase());
    e.u32(p.src.raw());
    e.u32(p.dst.raw());
    e.u32(p.len_flits);
    e.u64(p.created_at);
    e.u64(p.injected_at);
    e.u32(p.payload.len() as u32);
    for w in p.payload.words() {
        e.u64(*w);
    }
}

/// Decodes a packet written by [`encode_packet`].
pub fn decode_packet(d: &mut Dec) -> io::Result<Packet> {
    let id = PacketId::new(d.u64()?);
    let flow = FlowId::new(d.u64()?).with_phase(d.u8()?);
    let src = NodeId::new(d.u32()?);
    let dst = NodeId::new(d.u32()?);
    let len_flits = d.u32()?;
    if len_flits == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length packet on the wire",
        ));
    }
    let created_at = d.u64()?;
    let injected_at = d.u64()?;
    let words = d.u32()?;
    if d.remaining() < words as usize * 8 {
        return Err(short());
    }
    let payload = Payload((0..words).map(|_| d.u64()).collect::<io::Result<_>>()?);
    let mut p = Packet::new(id, flow, src, dst, len_flits, created_at);
    p.injected_at = injected_at;
    p.payload = payload;
    Ok(p)
}

/// Encodes a flow id as base + phase. `FlowId::new` masks the phase bits out
/// of a raw value, so the two components must travel separately.
pub fn encode_flow(e: &mut Enc, f: FlowId) {
    e.u64(f.base());
    e.u8(f.phase());
}

/// Decodes a flow id written by [`encode_flow`].
pub fn decode_flow(d: &mut Dec) -> io::Result<FlowId> {
    Ok(FlowId::new(d.u64()?).with_phase(d.u8()?))
}

/// Encodes a credit message into exactly [`CREDIT_WIRE_BYTES`] bytes.
pub fn encode_credit(e: &mut Enc, c: &CreditMsg) {
    e.u64(c.cycle);
    e.u32(c.count);
}

/// Decodes a credit message written by [`encode_credit`].
pub fn decode_credit(d: &mut Dec) -> io::Result<CreditMsg> {
    Ok(CreditMsg {
        cycle: d.u64()?,
        count: d.u32()?,
    })
}

/// Encodes a full per-shard statistics record (including the per-flow map
/// and the latency histogram, so bit-identity can be asserted end to end).
pub fn encode_stats(e: &mut Enc, s: &NetworkStats) {
    e.u64(s.offered_packets);
    e.u64(s.injected_packets);
    e.u64(s.injected_flits);
    e.u64(s.delivered_packets);
    e.u64(s.delivered_flits);
    e.u64(s.total_flit_latency);
    e.u64(s.total_packet_latency);
    e.u64(s.total_head_latency);
    e.u64(s.total_hops);
    e.u64(s.routing_failures);
    e.u64(s.activity.buffer_writes);
    e.u64(s.activity.buffer_reads);
    e.u64(s.activity.crossbar_transits);
    e.u64(s.activity.link_flits);
    e.u64(s.activity.arbitrations);
    e.u64(s.simulated_cycles);
    e.u64(s.fast_forwarded_cycles);
    e.u64(s.busy_cycles);
    e.u64(s.last_cycle);
    // Per-flow records, sorted by flow id so the encoding is canonical.
    let mut flows: Vec<(&u64, &FlowRecord)> = s.per_flow.iter().collect();
    flows.sort_by_key(|(id, _)| **id);
    e.u32(flows.len() as u32);
    for (id, rec) in flows {
        e.u64(*id);
        e.u64(rec.packets);
        e.u64(rec.flits);
        e.u64(rec.total_packet_latency);
    }
    e.u32(s.latency_histogram.len() as u32);
    for b in &s.latency_histogram {
        e.u64(*b);
    }
}

/// Decodes a statistics record written by [`encode_stats`].
pub fn decode_stats(d: &mut Dec) -> io::Result<NetworkStats> {
    let mut s = NetworkStats {
        offered_packets: d.u64()?,
        injected_packets: d.u64()?,
        injected_flits: d.u64()?,
        delivered_packets: d.u64()?,
        delivered_flits: d.u64()?,
        total_flit_latency: d.u64()?,
        total_packet_latency: d.u64()?,
        total_head_latency: d.u64()?,
        total_hops: d.u64()?,
        routing_failures: d.u64()?,
        activity: RouterActivity {
            buffer_writes: d.u64()?,
            buffer_reads: d.u64()?,
            crossbar_transits: d.u64()?,
            link_flits: d.u64()?,
            arbitrations: d.u64()?,
        },
        simulated_cycles: d.u64()?,
        fast_forwarded_cycles: d.u64()?,
        busy_cycles: d.u64()?,
        last_cycle: d.u64()?,
        ..NetworkStats::new()
    };
    let flows = d.u32()?;
    for _ in 0..flows {
        let id = d.u64()?;
        let rec = FlowRecord {
            packets: d.u64()?,
            flits: d.u64()?,
            total_packet_latency: d.u64()?,
        };
        s.per_flow.insert(id, rec);
    }
    let buckets = d.u32()?;
    s.latency_histogram = (0..buckets).map(|_| d.u64()).collect::<io::Result<_>>()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_input_cannot_hold_are_rejected() {
        let mut e = Enc::new();
        e.u32(2).u64(1).u64(2);
        assert_eq!(Dec::new(e.bytes()).count(8).unwrap(), 2);
        let err = Dec::new(e.bytes()).count(9).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut e = Enc::new();
        e.u32(u32::MAX);
        assert!(Dec::new(e.bytes()).count(1).is_err());
    }

    fn flit() -> Flit {
        Flit {
            packet: PacketId::new(42),
            flow: FlowId::new(7).with_phase(1),
            original_flow: FlowId::new(7),
            kind: FlitKind::Tail,
            seq: 3,
            packet_len: 4,
            dst: NodeId::new(11),
            src: NodeId::new(2),
            visible_at: 1_000_003,
            stats: FlitStats {
                injected_at: 999_000,
                arrived_at_current: 1_000_000,
                accumulated_latency: 17,
                hops: 5,
            },
        }
    }

    #[test]
    fn flit_round_trips() {
        let mut e = Enc::new();
        encode_flit(&mut e, &flit());
        assert_eq!(e.bytes().len(), FLIT_WIRE_BYTES);
        let mut d = Dec::new(e.bytes());
        assert_eq!(decode_flit(&mut d).unwrap(), flit());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn packet_round_trips_with_payload() {
        let mut p = Packet::new(
            PacketId::new(77),
            FlowId::new(3).with_phase(2),
            NodeId::new(4),
            NodeId::new(9),
            8,
            1_000,
        );
        p.injected_at = 1_004;
        p.payload = Payload::from_words(&[1, u64::MAX, 0xdead_beef]);
        let mut e = Enc::new();
        encode_packet(&mut e, &p);
        let back = decode_packet(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(back, p);

        let empty = Packet::new(
            PacketId::new(1),
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            2,
            0,
        );
        let mut e = Enc::new();
        encode_packet(&mut e, &empty);
        assert_eq!(decode_packet(&mut Dec::new(e.bytes())).unwrap(), empty);
    }

    #[test]
    fn credit_round_trips() {
        let c = CreditMsg {
            cycle: 123_456,
            count: 9,
        };
        let mut e = Enc::new();
        encode_credit(&mut e, &c);
        assert_eq!(e.bytes().len(), CREDIT_WIRE_BYTES);
        assert_eq!(decode_credit(&mut Dec::new(e.bytes())).unwrap(), c);
    }

    #[test]
    fn stats_round_trip_preserves_histogram_and_flows() {
        let mut s = NetworkStats::new();
        s.record_delivery(FlowId::new(3), 8, 10, 20, 4);
        s.record_delivery(FlowId::new(9), 8, 12, 300, 6);
        s.injected_flits = 16;
        s.busy_cycles = 77;
        s.simulated_cycles = 1_000;
        let mut e = Enc::new();
        encode_stats(&mut e, &s);
        let back = decode_stats(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 300]);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut e = Enc::new();
        encode_flit(&mut e, &flit());
        let cut = &e.bytes()[..20];
        assert!(decode_flit(&mut Dec::new(cut)).is_err());
    }
}
