//! The worker side of the distributed backend: a thin host around the
//! unified [`hornet_shard::driver::CycleDriver`], and the process entry
//! point that speaks the control protocol.
//!
//! The per-cycle shard protocol itself — strict flit/credit limits, skip
//! handling, slack waits, ledger publish-on-change — lives exactly once, in
//! `hornet-shard`; this module only supplies the distributed
//! [`TransportPump`] (per-adjacency [`BoundaryTransport`]s) and the
//! process-local [`PayloadChannel`], then reports the outcome. Directives
//! (stop / fast-forward jumps) arrive from the coordinator through plain
//! atomics the control reader thread maintains.

use crate::protocol::{hello, CtrlMsg, TransportKind};
use crate::shm::{ShmSegment, ShmTransport};
use crate::spec::{DistSpec, RunKind};
use crate::transport::{BoundaryTransport, SocketTransport, Stream, TransportSet};
use crate::wire::{read_frame, write_frame};
use crate::wiring::{build_shards, partition_for, ShardParts};
use hornet_net::boundary::{BoundaryLink, BoundaryRx};
use hornet_net::ids::Cycle;
use hornet_net::network::NetworkNode;
use hornet_net::stats::NetworkStats;
use hornet_obs::metrics::{MetricsRegistry, TelemetrySample};
use hornet_obs::olog_debug;
use hornet_obs::profile::StallProfile;
use hornet_obs::trace::{TraceDump, TraceRing};
use hornet_shard::driver::{
    merge_tile_stats, CheckpointSink, CycleDriver, DriverParams, PayloadChannel, TelemetrySink,
    WaitProfile,
};
use hornet_shard::termination::ShardLedger;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The control-plane shared state between the shard loop and the control
/// reader thread.
#[derive(Clone)]
pub struct WorkerControl {
    /// This shard's published termination ledger.
    pub ledger: Arc<ShardLedger>,
    /// Stop directive (completion declared, or coordinator lost).
    pub stop: Arc<AtomicBool>,
    /// Monotone fast-forward target.
    pub skip_to: Arc<AtomicU64>,
}

impl Default for WorkerControl {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerControl {
    /// Fresh control state.
    pub fn new() -> Self {
        Self {
            ledger: Arc::new(ShardLedger::new()),
            stop: Arc::new(AtomicBool::new(false)),
            skip_to: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Result of one shard's run.
pub struct WorkerOutcome {
    /// The cycle the shard stopped at.
    pub final_now: Cycle,
    /// Statistics merged over this shard's tiles.
    pub stats: NetworkStats,
    /// Every local agent finished and the shard drained.
    pub completed: bool,
    /// The tiles (for in-process callers that want to inspect them).
    pub tiles: Vec<NetworkNode>,
    /// Wall-time attribution of the shard loop (compute / wait / ingest /
    /// flush).
    pub profile: StallProfile,
    /// Event trace of the shard's tile and runtime rings (empty unless the
    /// spec enabled tracing).
    pub trace: TraceDump,
}

/// One shard's execution state, generic over the boundary transport.
pub struct ShardWorker {
    /// The shard index (for diagnostics).
    pub shard: usize,
    /// The shard's tiles.
    pub tiles: Vec<NetworkNode>,
    /// All outbound boundary halves.
    pub outbound: Vec<Arc<BoundaryLink>>,
    /// All inbound receiver endpoints.
    pub inbound: Vec<BoundaryRx>,
    /// One transport per neighboring shard (attach in
    /// [`transports_plan`](Self::transports_plan) order).
    pub transports: Vec<Box<dyn BoundaryTransport>>,
    /// Per-neighbor channel wiring, canonical order.
    neighbors_meta: Vec<crate::wiring::NeighborWiring>,
    /// How payloads follow tail flits across this shard's boundaries.
    pub payloads: Arc<dyn PayloadChannel>,
    /// Maximum cycles to run ahead of neighbors.
    pub slack: u64,
    /// Cycles between drift checks.
    pub quantum: u64,
    /// Strict cycle-stamped mailbox consumption (bit-exact mode).
    pub strict: bool,
    /// Publish ledgers / honor skip directives.
    pub track_ledger: bool,
    /// Compute next-event info for fast-forward.
    pub fast_forward: bool,
    /// Capture a resumable checkpoint every this many cycles (strict only).
    pub checkpoint_every: Option<u64>,
    /// Ship a telemetry sample every this many cycles.
    pub telemetry_every: Option<u64>,
    /// Per-tile event-trace ring capacity (0 disables tracing).
    pub trace_capacity: usize,
    /// Control-plane state.
    pub control: WorkerControl,
}

impl ShardWorker {
    /// Builds a worker from wiring parts, the spec's synchronization
    /// parameters and the process's payload channel (transports attached
    /// separately).
    pub fn from_parts(
        parts: ShardParts,
        spec: &DistSpec,
        control: WorkerControl,
        payloads: Arc<dyn PayloadChannel>,
    ) -> Self {
        let (slack, quantum, strict) = spec.sync.params();
        Self {
            shard: parts.shard,
            tiles: parts.tiles,
            outbound: parts.outbound,
            inbound: parts.inbound,
            transports: Vec::new(),
            neighbors_meta: parts.neighbors,
            payloads,
            slack,
            quantum,
            strict,
            track_ledger: spec.needs_detector(),
            fast_forward: spec.fast_forward,
            checkpoint_every: spec.checkpoint_every,
            telemetry_every: spec.telemetry_every,
            trace_capacity: spec.trace_capacity.unwrap_or(0) as usize,
            control,
        }
    }

    /// Restores a shard checkpoint into this (freshly built, not yet run)
    /// worker's tiles and boundary rings. Must happen before transports are
    /// attached and before any peer traffic can arrive. Returns
    /// `(resume_cycle, received_start)` for [`run`](Self::run).
    pub fn restore(&mut self, checkpoint: &[u8]) -> io::Result<(Cycle, u64)> {
        hornet_shard::restore_shard(
            checkpoint,
            &mut self.tiles,
            &self.outbound,
            &mut self.inbound,
            &*self.payloads,
        )
    }

    /// Runs the shard for `cycles` cycles starting after `start` by handing
    /// everything to the unified [`CycleDriver`] — the per-cycle protocol
    /// has exactly one implementation, shared with the thread backend.
    /// `received_start` seeds the cumulative delivery counter (nonzero when
    /// resuming from a checkpoint), `checkpoint` receives the periodic
    /// state captures when `checkpoint_every` is set, and `telemetry`
    /// receives periodic samples when the spec set `telemetry_every`.
    pub fn run<'c>(
        self,
        start: Cycle,
        cycles: Cycle,
        received_start: u64,
        checkpoint: Option<&'c mut dyn CheckpointSink>,
        telemetry: Option<&'c mut dyn TelemetrySink>,
    ) -> io::Result<WorkerOutcome> {
        let ShardWorker {
            shard,
            mut tiles,
            outbound,
            mut inbound,
            mut transports,
            neighbors_meta: _,
            payloads,
            slack,
            quantum,
            strict,
            track_ledger,
            fast_forward,
            checkpoint_every,
            telemetry_every,
            trace_capacity,
            control,
        } = self;
        if trace_capacity > 0 {
            for tile in &mut tiles {
                tile.enable_tracing(trace_capacity);
            }
        }
        let metrics = telemetry_every.map(|_| MetricsRegistry::default());
        let mut runtime_ring = (trace_capacity > 0).then(|| TraceRing::new(trace_capacity));
        let mut set = TransportSet(&mut transports);
        let driver = CycleDriver {
            shard,
            tiles: &mut tiles,
            outbound: &outbound,
            inbound: &mut inbound,
            transport: &mut set,
            payloads: &*payloads,
            stop: &control.stop,
            skip_to: &control.skip_to,
            ledger: &control.ledger,
            checkpoint,
            telemetry,
            metrics: metrics.as_ref(),
            tracer: runtime_ring.as_mut(),
        };
        let outcome = driver.run(&DriverParams {
            start,
            cycles,
            slack,
            quantum,
            strict,
            track_ledger,
            fast_forward,
            checkpoint_every,
            received_start,
            wait: WaitProfile::Sleep,
            // Wall-time attribution is always on for distributed workers:
            // the loop is already syscall-bound, so the handful of clock
            // reads per cycle vanish in the noise, and the coordinator's
            // imbalance summary needs every shard's breakdown.
            profile: true,
            telemetry_every,
        })?;

        let mut trace = TraceDump::default();
        for tile in &mut tiles {
            tile.drain_trace(&mut trace);
        }
        if let Some(ring) = runtime_ring.as_mut() {
            ring.drain_into(&mut trace);
        }

        // `busy` comes from the driver — the same definition the
        // termination detector scanned, so host and detector cannot drift.
        let completed = tiles.iter().all(NetworkNode::finished) && outcome.busy == 0;
        Ok(WorkerOutcome {
            final_now: outcome.final_now,
            stats: merge_tile_stats(&tiles),
            completed,
            tiles,
            profile: outcome.profile,
            trace,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker process entry.
// ---------------------------------------------------------------------------

/// Ships every periodic shard checkpoint to the coordinator over the control
/// plane, with an optional fault-injection point for the recovery tests.
struct CtrlCheckpointSink {
    shard: usize,
    writer: Arc<Mutex<Stream>>,
    /// `(shard, cycle, token_path)` — die before shipping the first
    /// checkpoint at `cycle ≥` this on the matching shard, if the token file
    /// can still be claimed.
    crash: Option<(usize, u64, std::path::PathBuf)>,
}

impl CheckpointSink for CtrlCheckpointSink {
    fn checkpoint(&mut self, cycle: Cycle, state: &[u8]) -> io::Result<()> {
        if let Some((shard, at, token)) = &self.crash {
            // Claiming the token by deleting it makes the injection
            // exactly-once: the respawned worker inherits the env var but
            // finds no file.
            if *shard == self.shard && cycle >= *at && std::fs::remove_file(token).is_ok() {
                #[cfg(unix)]
                {
                    let _ = std::process::Command::new("kill")
                        .arg("-9")
                        .arg(std::process::id().to_string())
                        .status();
                }
                std::process::abort();
            }
        }
        send_ctrl(
            &self.writer,
            &CtrlMsg::Checkpoint {
                cycle,
                data: state.to_vec(),
            },
        )
    }
}

/// Ships every periodic telemetry sample to the coordinator over the control
/// plane. Send failures are swallowed: telemetry is advisory, and a lost
/// coordinator already stops the run through the control reader.
struct CtrlTelemetrySink {
    writer: Arc<Mutex<Stream>>,
}

impl TelemetrySink for CtrlTelemetrySink {
    fn emit(&mut self, sample: &TelemetrySample) {
        let _ = send_ctrl(
            &self.writer,
            &CtrlMsg::Telemetry {
                sample: Box::new(sample.clone()),
            },
        );
    }
}

/// Parses `HORNET_DIST_CRASH_TOKEN`: the path of a file containing
/// `"<shard> <cycle>"`. The named shard SIGKILLs itself at its first
/// checkpoint at or after `cycle`, before shipping it.
fn crash_token() -> Option<(usize, u64, std::path::PathBuf)> {
    let path = std::path::PathBuf::from(std::env::var_os("HORNET_DIST_CRASH_TOKEN")?);
    let s = std::fs::read_to_string(&path).ok()?;
    let mut it = s.split_whitespace();
    let shard = it.next()?.parse().ok()?;
    let cycle = it.next()?.parse().ok()?;
    Some((shard, cycle, path))
}

fn proto_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol: {msg}"))
}

fn set_stream_blocking(s: &Stream) -> io::Result<()> {
    match s {
        #[cfg(unix)]
        Stream::Unix(u) => u.set_nonblocking(false),
        Stream::Tcp(t) => t.set_nonblocking(false),
    }
}

/// Sends one control message over the shared writer.
fn send_ctrl(writer: &Mutex<Stream>, msg: &CtrlMsg) -> io::Result<()> {
    let mut w = writer.lock().expect("control writer poisoned");
    write_frame(&mut *w, &msg.encode())?;
    use std::io::Write;
    w.flush()
}

/// Accepts one data-plane connection with a deadline.
enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept_deadline(&self, deadline: Instant) -> io::Result<Stream> {
        loop {
            let res = match self {
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match res {
                Ok(s) => return Ok(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer connection timed out",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connects to the coordinator's control plane, retrying for up to a minute
/// while the coordinator is not up yet — host-list workers may legitimately
/// be started before the coordinator, in any order.
fn connect_ctrl(ctrl_addr: &str, ctrl_family: &str) -> io::Result<Stream> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let res = match ctrl_family {
            #[cfg(unix)]
            "unix" => UnixStream::connect(ctrl_addr).map(Stream::Unix),
            "tcp" => TcpStream::connect(ctrl_addr).map(Stream::Tcp),
            other => return Err(proto_err(&format!("unknown control family {other}"))),
        };
        match res {
            Ok(s) => return Ok(s),
            Err(e)
                if Instant::now() < deadline
                    && matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused
                            | io::ErrorKind::NotFound
                            | io::ErrorKind::AddrNotAvailable
                    ) =>
            {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs the worker process: connects to the coordinator at `ctrl_addr`
/// (retrying while it is not up yet), executes one assigned shard, reports,
/// and exits when the coordinator closes the control channel.
///
/// In host-list mode (`hornet-dist host --workers host1:port,...`) the
/// worker announces `advertise` — the `host:port` its data plane is
/// reachable at from the other machines — and the coordinator assigns it
/// the matching shard. `nonce` must echo the coordinator's run nonce or the
/// Hello is rejected.
pub fn worker_main(
    ctrl_addr: &str,
    ctrl_family: &str,
    advertise: Option<&str>,
    nonce: u64,
) -> io::Result<()> {
    let ctrl = connect_ctrl(ctrl_addr, ctrl_family)?;
    let writer = Arc::new(Mutex::new(ctrl.try_clone()?));
    let mut reader = BufReader::new(ctrl);

    send_ctrl(&writer, &hello(advertise.unwrap_or(""), nonce))?;
    let CtrlMsg::Assign {
        shard,
        shards,
        spec,
        transport,
        listen,
        heartbeat_ms,
        resume,
    } = CtrlMsg::decode(&read_frame(&mut reader)?)?
    else {
        return Err(proto_err("expected Assign"));
    };
    let shard = shard as usize;
    let shards = shards as usize;

    // Rebuild the full system deterministically; keep our shard.
    let partition = partition_for(&spec, shards);
    assert_eq!(
        partition.shard_count(),
        shards,
        "coordinator/worker partition mismatch"
    );
    let (mut parts, store) = build_shards(&spec, &partition)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let mine = parts.swap_remove(shard);
    drop(parts);

    // Data plane. The payload channel is remote: peers live in other
    // processes, so packet payloads must follow their tail flits over the
    // transports (the store itself is this process's bridge-side DMA park).
    let payloads: Arc<dyn PayloadChannel> =
        Arc::new(hornet_shard::driver::PayloadEndpoint::remote(store));
    let batch = spec.socket_batch();
    let deadline = Instant::now() + Duration::from_secs(30);
    let control = WorkerControl::new();
    let mut worker = ShardWorker::from_parts(mine, &spec, control.clone(), Arc::clone(&payloads));

    // Crash recovery: restore the shipped checkpoint into the freshly built
    // shard *before* attaching transports — no peer traffic can race the
    // ring restore, and every transport starts its progress mirror at the
    // rendezvous cycle instead of 0.
    let (start_cycle, received_start) = match &resume {
        Some(bytes) => worker.restore(bytes)?,
        None => (0, 0),
    };
    match transport {
        TransportKind::UnixSocket | TransportKind::Tcp => {
            let listener = match transport {
                #[cfg(unix)]
                TransportKind::UnixSocket => {
                    let l = UnixListener::bind(&listen)?;
                    l.set_nonblocking(true)?;
                    send_ctrl(
                        &writer,
                        &CtrlMsg::Listening {
                            addr: listen.clone(),
                        },
                    )?;
                    Listener::Unix(l)
                }
                #[cfg(not(unix))]
                TransportKind::UnixSocket => {
                    return Err(proto_err("unix sockets unavailable on this platform"))
                }
                _ if !listen.is_empty() => {
                    // Host-list mode: the coordinator assigned this worker an
                    // advertised `host:port`; bind the port on all interfaces
                    // and advertise the reachable address.
                    let port = listen
                        .rsplit_once(':')
                        .and_then(|(_, p)| p.parse::<u16>().ok())
                        .ok_or_else(|| proto_err("bad advertised address"))?;
                    let l = TcpListener::bind(("0.0.0.0", port))?;
                    l.set_nonblocking(true)?;
                    send_ctrl(
                        &writer,
                        &CtrlMsg::Listening {
                            addr: listen.clone(),
                        },
                    )?;
                    Listener::Tcp(l)
                }
                _ => {
                    let l = TcpListener::bind("127.0.0.1:0")?;
                    let addr = l.local_addr()?.to_string();
                    l.set_nonblocking(true)?;
                    send_ctrl(&writer, &CtrlMsg::Listening { addr })?;
                    Listener::Tcp(l)
                }
            };
            let CtrlMsg::PeerMap { entries } = CtrlMsg::decode(&read_frame(&mut reader)?)? else {
                return Err(proto_err("expected PeerMap"));
            };
            let addrs: HashMap<usize, String> =
                entries.into_iter().map(|(s, a)| (s as usize, a)).collect();
            // Initiate to lower-id neighbors, accept from higher-id ones.
            let mut streams: HashMap<usize, Stream> = HashMap::new();
            for nb in &worker.transports_plan() {
                if *nb < shard {
                    let addr = addrs
                        .get(nb)
                        .ok_or_else(|| proto_err("missing peer addr"))?;
                    let mut s = match transport {
                        #[cfg(unix)]
                        TransportKind::UnixSocket => Stream::Unix(UnixStream::connect(addr)?),
                        _ => Stream::Tcp(TcpStream::connect(addr)?),
                    };
                    write_frame(&mut s, &CtrlMsg::PeerHello { from: shard as u32 }.encode())?;
                    use std::io::Write;
                    s.flush()?;
                    streams.insert(*nb, s);
                }
            }
            let expect_higher = worker
                .transports_plan()
                .iter()
                .filter(|&&p| p > shard)
                .count();
            for _ in 0..expect_higher {
                let mut s = listener.accept_deadline(deadline)?;
                set_stream_blocking(&s)?;
                let CtrlMsg::PeerHello { from } = CtrlMsg::decode(&read_frame(&mut s)?)? else {
                    return Err(proto_err("expected PeerHello"));
                };
                streams.insert(from as usize, s);
            }
            // Attach transports in canonical neighbor order.
            let plan = worker.transports_plan();
            for (i, peer) in plan.iter().enumerate() {
                let stream = streams
                    .remove(peer)
                    .ok_or_else(|| proto_err("peer stream missing"))?;
                let wiring = worker.neighbor_wiring(i);
                worker.transports.push(Box::new(SocketTransport::new(
                    stream,
                    &wiring,
                    start_cycle,
                    batch,
                    Arc::clone(&payloads),
                )?));
            }
        }
        TransportKind::Shm => {
            send_ctrl(
                &writer,
                &CtrlMsg::Listening {
                    addr: String::new(),
                },
            )?;
            let CtrlMsg::ShmMap { entries } = CtrlMsg::decode(&read_frame(&mut reader)?)? else {
                return Err(proto_err("expected ShmMap"));
            };
            let paths: HashMap<(usize, usize), String> = entries
                .into_iter()
                .map(|(lo, hi, p)| ((lo as usize, hi as usize), p))
                .collect();
            let plan = worker.transports_plan();
            for (i, peer) in plan.iter().enumerate() {
                let (lo, hi) = (shard.min(*peer), shard.max(*peer));
                let path = paths
                    .get(&(lo, hi))
                    .ok_or_else(|| proto_err("missing shm segment"))?;
                let wiring = worker.neighbor_wiring(i);
                let is_lo = shard == lo;
                // Direction lo→hi carries the lo side's out channels.
                let (lo_caps, hi_caps) = if is_lo {
                    (
                        wiring.out_links.iter().map(|l| l.capacity()).collect(),
                        wiring.in_links.iter().map(|l| l.capacity()).collect(),
                    )
                } else {
                    (
                        wiring.in_links.iter().map(|l| l.capacity()).collect(),
                        wiring.out_links.iter().map(|l| l.capacity()).collect(),
                    )
                };
                let layout = ShmTransport::layout(lo_caps, hi_caps, spec.sync_depth());
                let seg = ShmSegment::open(std::path::Path::new(path), &layout)?;
                worker
                    .transports
                    .push(Box::new(ShmTransport::new(seg, &layout, is_lo, &wiring)));
            }
        }
    }

    let CtrlMsg::Start = CtrlMsg::decode(&read_frame(&mut reader)?)? else {
        return Err(proto_err("expected Start"));
    };

    // Resume: every peer must observe our progress at the rendezvous cycle
    // (shm progress words start at 0 in a fresh segment), and any restored
    // staged traffic goes onto the wire now.
    if start_cycle > 0 {
        worker.publish_progress(start_cycle)?;
    }

    // Control reader: probes, directives, and coordinator-loss detection.
    let done_flag = Arc::new(AtomicBool::new(false));
    let ctrl_thread = {
        let control = control.clone();
        let done_flag = Arc::clone(&done_flag);
        let writer = Arc::clone(&writer);
        std::thread::Builder::new()
            .name("hornet-dist-ctrl".into())
            .spawn(move || loop {
                let frame = match read_frame(&mut reader) {
                    Ok(f) => f,
                    Err(e) => {
                        if !done_flag.load(Ordering::Acquire) {
                            olog_debug!("ctrl-rx", {}, "read failed mid-run: {}", e);
                            // Coordinator lost mid-run: unwind.
                            control.stop.store(true, Ordering::Release);
                        }
                        return;
                    }
                };
                match CtrlMsg::decode(&frame) {
                    Ok(CtrlMsg::Probe { round }) => {
                        let (version, state) = control.ledger.read();
                        let _ = send_ctrl(
                            &writer,
                            &CtrlMsg::Ledger {
                                round,
                                version,
                                state,
                            },
                        );
                    }
                    Ok(CtrlMsg::Skip { target }) => {
                        control.skip_to.fetch_max(target, Ordering::AcqRel);
                    }
                    Ok(CtrlMsg::Stop) => {
                        control.stop.store(true, Ordering::Release);
                    }
                    _ => {}
                }
            })?
    };

    // Liveness heartbeats: a thin periodic signal so the coordinator can
    // tell a hung worker from a slow one without waiting for the full
    // no-progress timeout.
    if heartbeat_ms > 0 {
        let writer = Arc::clone(&writer);
        let control = control.clone();
        let done_flag = Arc::clone(&done_flag);
        std::thread::Builder::new()
            .name("hornet-dist-hb".into())
            .spawn(move || {
                let interval = Duration::from_millis(heartbeat_ms);
                while !done_flag.load(Ordering::Acquire) {
                    let (_, state) = control.ledger.read();
                    if send_ctrl(&writer, &CtrlMsg::Heartbeat { cycle: state.cycle }).is_err() {
                        return;
                    }
                    std::thread::sleep(interval);
                }
            })?;
    }

    let budget = spec.cycle_budget();
    let mut sink = CtrlCheckpointSink {
        shard,
        writer: Arc::clone(&writer),
        crash: crash_token(),
    };
    let mut telemetry_sink = CtrlTelemetrySink {
        writer: Arc::clone(&writer),
    };
    let telemetry = spec
        .telemetry_every
        .is_some()
        .then_some(&mut telemetry_sink as &mut dyn TelemetrySink);
    let outcome = worker.run(
        start_cycle,
        budget.saturating_sub(start_cycle),
        received_start,
        Some(&mut sink),
        telemetry,
    )?;
    olog_debug!("worker", { shard = shard, cycle = outcome.final_now }, "run complete");
    let trace_blob = if outcome.trace.events.is_empty() && outcome.trace.dropped == 0 {
        Vec::new()
    } else {
        outcome.trace.encode()
    };
    send_ctrl(
        &writer,
        &CtrlMsg::Done {
            final_now: outcome.final_now,
            completed: match spec.run {
                RunKind::Cycles(_) => true,
                RunKind::ToCompletion { .. } => outcome.completed,
            },
            stats: Box::new(outcome.stats),
            profile: outcome.profile,
            trace: trace_blob,
        },
    )?;
    done_flag.store(true, Ordering::Release);
    olog_debug!("worker", { shard = shard }, "done sent");
    // Hold every socket open until the coordinator closes the control
    // channel: peers may still be draining our final frames.
    let _ = ctrl_thread.join();
    olog_debug!("worker", { shard = shard }, "ctrl closed, exiting");
    Ok(())
}

impl ShardWorker {
    /// The neighbor shard ids, in canonical (ascending) order — one
    /// transport must be attached per entry, in this order.
    pub fn transports_plan(&self) -> Vec<usize> {
        self.neighbors_meta.iter().map(|n| n.peer).collect()
    }

    /// Publishes `cycle` as this side's negedge progress on every attached
    /// transport and flushes any staged traffic. Used on resume, where peers
    /// must observe the rendezvous cycle rather than a transport's initial 0.
    pub fn publish_progress(&mut self, cycle: Cycle) -> io::Result<()> {
        let payloads = Arc::clone(&self.payloads);
        for t in &mut self.transports {
            t.pump(cycle, &*payloads, true)?;
        }
        Ok(())
    }

    /// The wiring of the `i`-th planned neighbor.
    pub fn neighbor_wiring(&self, i: usize) -> crate::wiring::NeighborWiring {
        let n = &self.neighbors_meta[i];
        crate::wiring::NeighborWiring {
            peer: n.peer,
            out_links: n.out_links.clone(),
            in_links: n.in_links.clone(),
        }
    }
}
