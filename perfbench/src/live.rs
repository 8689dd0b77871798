//! The live, untraced half of a run: set-up, the measured window on a
//! real in-process cluster, counters, and the correctness gate.

use crate::stats::{due, intended_latency_ns};
use crate::workload::{OpGen, Shape, Workload, SITES};
use dynvote_cluster::{
    wire, ClientOp, ClientReply, Cluster, ClusterConfig, LocalClient, NetStats, RequestError,
    ShardStats, TransportKind,
};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_net::{FrameDecoder, Interest, Poller, Token};
use dynvote_protocol::EventTallies;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Boots per round; `setup_s` is the median over every round's boots.
pub const SETUPS: usize = 5;
/// Least crash/recover cycles of each round's recovery probe.
const PROBES: usize = 2;
/// Least time each round's recovery probe keeps cycling.
const PROBE_TIME: Duration = Duration::from_millis(400);
/// How long a client at a crashed site waits after a `Down` reply
/// before it retries (a real client would back off too; without it
/// the crashed third of the window is a spin loop of refusals).
const DOWN_BACKOFF: Duration = Duration::from_millis(1);
/// Open loop: how long after the last due instant replies may still
/// arrive before the window closes on them.
const OPEN_DRAIN: Duration = Duration::from_millis(200);
/// Time limit on one blocking control step (first op, probe commit),
/// and on how long a closed-loop op may still retry after the window
/// ends.
const STEP_LIMIT: Duration = Duration::from_secs(10);

/// How every attempt (one request to a coordinator) ended: exactly one
/// field per attempt. A closed-loop op retries after a refusal, so it
/// may make several attempts; an open-loop op makes one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// `Committed`.
    pub commits: u64,
    /// `ReadServed`.
    pub reads: u64,
    /// `Rejected` (on a healthy cluster: lock contention).
    pub rejected: u64,
    /// `Busy`.
    pub busy: u64,
    /// `Overloaded`.
    pub overloaded: u64,
    /// `TimedOut` (protocol deadline).
    pub timed_out: u64,
    /// `Down`.
    pub down: u64,
    /// No reply by the client timeout, or (open loop) in flight at
    /// window close.
    pub deadline: u64,
    /// Client transport error.
    pub transport: u64,
}

impl Outcomes {
    /// Attempts made.
    pub fn attempts(&self) -> u64 {
        self.commits + self.reads + self.refused()
    }

    /// Attempts that neither committed nor were served.
    pub fn refused(&self) -> u64 {
        self.rejected
            + self.busy
            + self.overloaded
            + self.timed_out
            + self.down
            + self.deadline
            + self.transport
    }

    fn add(&mut self, o: &Outcomes) {
        self.commits += o.commits;
        self.reads += o.reads;
        self.rejected += o.rejected;
        self.busy += o.busy;
        self.overloaded += o.overloaded;
        self.timed_out += o.timed_out;
        self.down += o.down;
        self.deadline += o.deadline;
        self.transport += o.transport;
    }

    /// Count one reply.
    fn record(&mut self, reply: &ClientReply) {
        match reply {
            ClientReply::Committed { .. } => self.commits += 1,
            ClientReply::ReadServed => self.reads += 1,
            ClientReply::Rejected => self.rejected += 1,
            ClientReply::Busy => self.busy += 1,
            ClientReply::Overloaded => self.overloaded += 1,
            ClientReply::TimedOut => self.timed_out += 1,
            ClientReply::Down => self.down += 1,
            // A data op never gets a control reply; treat one as a
            // broken transport rather than inventing a success.
            _ => self.transport += 1,
        }
    }
}

/// Everything the window measured.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Client ops started in the window.
    pub ops: u64,
    /// Ops that never committed or were served: a closed-loop op still
    /// refused [`STEP_LIMIT`] after the window, an open-loop op refused
    /// or unanswered at close.
    pub failed_ops: u64,
    /// Outcome per attempt.
    pub outcomes: Outcomes,
    /// Latency of each committed update, ns, from its op's first
    /// attempt (retries included).
    pub commit_ns: Vec<u64>,
    /// Latency of each served read, ns, likewise.
    pub read_ns: Vec<u64>,
    /// Generator lag per op, ns.
    pub lag_ns: Vec<u64>,
    /// Attempts whose outcome the client never learned for sure: no
    /// reply, `Down` (the coordinator may have crashed after
    /// committing), or a transport error.
    pub unknown: u64,
    /// Length of the window actually measured: closed loop, until the
    /// last op started in it finished.
    pub elapsed: Duration,
    /// `recovery_ms` samples, ms.
    pub recovery_ms: Vec<f64>,
    /// Update attempts that reached a quorum round (the reply came
    /// from the protocol).
    pub round_updates: u64,
}

/// Counters the cluster exports, summed over sites.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Protocol event tallies.
    pub events: EventTallies,
    /// Merge barriers run.
    pub merge_barriers: u64,
    /// Scheduler wait on workers at merge barriers, ns.
    pub merge_wait_ns: u64,
    /// Deepest per-object pending-op queue on any site (a peak).
    pub queue_peak: u64,
    /// Update quorum rounds started (the batch-size histogram's total).
    pub rounds: u64,
    /// `NetStats` (empty under the channel transport).
    pub net: Vec<u64>,
    /// Bytes this process passed to write(2) (`/proc/self/io` wchar).
    pub wchar: u64,
}

impl Counters {
    /// One `NetStats` counter summed over sites (0 under channels).
    pub fn net(&self, name: &str) -> u64 {
        NetStats::NAMES
            .iter()
            .position(|n| *n == name)
            .and_then(|i| self.net.get(i))
            .copied()
            .unwrap_or(0)
    }
}

/// A booted cluster ready for load, plus what set-up measured.
pub struct Live {
    /// The cluster the window runs on.
    pub cluster: Cluster,
    /// Open loop: one connected binary client stream per coordinator.
    pub conns: Vec<TcpStream>,
    /// Seconds from boot to first op served, one per boot.
    pub setup_s: Vec<f64>,
    /// Site data directories of the cluster (durable workloads).
    pub data_dir: Option<PathBuf>,
}

fn config(workload: &Workload, data_dir: Option<&Path>) -> ClusterConfig {
    let transport = match workload.shape {
        Shape::Closed => TransportKind::Channel,
        Shape::Open { .. } => TransportKind::Tcp,
    };
    let config = ClusterConfig::new(SITES, AlgorithmKind::Hybrid)
        .with_transport(transport)
        .with_objects(workload.objects);
    match (data_dir, workload.fsync) {
        (Some(dir), Some(fsync)) => config.with_data_dir(dir, fsync),
        _ => config,
    }
}

fn connect(cluster: &Cluster, site: u8) -> Result<TcpStream, String> {
    let addr = cluster
        .addr(SiteId(site))
        .ok_or("tcp cluster without a listen address")?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(STEP_LIMIT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&[wire::HELLO_CLIENT])
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One blocking request over a raw client stream.
fn stream_request(stream: &mut TcpStream, id: u64, op: &ClientOp) -> Result<ClientReply, String> {
    let mut buf = Vec::new();
    wire::encode_frame_into(&mut buf, |out| wire::encode_request_into(out, id, op));
    stream.write_all(&buf).map_err(|e| e.to_string())?;
    loop {
        let body = wire::read_frame(stream).map_err(|e| e.to_string())?;
        let (rid, reply) = wire::decode_reply(&body).map_err(|e| e.to_string())?;
        if rid == id {
            return Ok(reply);
        }
    }
}

/// Boot, connect, and serve the first op; the time that takes.
fn boot_once(workload: &Workload, data_dir: Option<&Path>) -> Result<(f64, Live), String> {
    let config = config(workload, data_dir);
    let t0 = Instant::now();
    let cluster = Cluster::boot(&config).map_err(|e| format!("boot: {e}"))?;
    let mut conns = Vec::new();
    if matches!(workload.shape, Shape::Open { .. }) {
        for &site in &workload.coordinators {
            conns.push(connect(&cluster, site)?);
        }
    }
    // The first op is a read of object 0 through the workload's own
    // client path: a full vote round that leaves no state behind.
    let read = ClientOp::Read { key: 0 };
    loop {
        let reply = match conns.first_mut() {
            Some(stream) => stream_request(stream, 0, &read)?,
            None => cluster
                .client(SiteId(workload.coordinators[0]))
                .request(read.clone())
                .map_err(|e| format!("first op: {e}"))?,
        };
        if reply == ClientReply::ReadServed {
            break;
        }
        if t0.elapsed() > STEP_LIMIT {
            return Err(format!("first op never served (last reply {reply:?})"));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        secs,
        Live {
            cluster,
            conns,
            setup_s: Vec::new(),
            data_dir: data_dir.map(Path::to_path_buf),
        },
    ))
}

/// Boot [`SETUPS`] times (fresh data directories each time), keep the
/// last cluster running.
pub fn setup(workload: &Workload, root: &Path) -> Result<Live, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let dir = workload.fsync.map(|_| root.join(format!("boot-{i}")));
        let (secs, live) = boot_once(workload, dir.as_deref())?;
        times.push(secs);
        if i + 1 == SETUPS {
            return Ok(Live {
                setup_s: times,
                ..live
            });
        }
        drop(live.conns);
        live.cluster.shutdown();
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
        }
    }
    unreachable!("SETUPS is at least 1")
}

fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar: "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Read every exported counter.
pub fn counters(cluster: &Cluster) -> Result<Counters, String> {
    let mut c = Counters {
        events: cluster.event_tallies(),
        wchar: wchar(),
        ..Counters::default()
    };
    for i in 0..SITES {
        let mut client = cluster.client(SiteId(i as u8));
        let stats = client
            .request(ClientOp::ShardStats)
            .map_err(|e| format!("shard stats: {e}"))?;
        let ClientReply::ShardStats { workers, counts } = stats else {
            return Err(format!("shard stats: unexpected reply {stats:?}"));
        };
        for (name, value) in ShardStats::names_for(workers as usize).iter().zip(&counts) {
            match name.as_str() {
                "shard_merge_barriers" => c.merge_barriers += value,
                "shard_merge_wait_ns" => c.merge_wait_ns += value,
                n if n.starts_with("pipeline_queue_peak") => {
                    c.queue_peak = c.queue_peak.max(*value)
                }
                n if n.starts_with("pipeline_batch_") => c.rounds += value,
                _ => {}
            }
        }
        let net = client
            .request(ClientOp::NetStats)
            .map_err(|e| format!("net stats: {e}"))?;
        let ClientReply::NetStats { counts } = net else {
            return Err(format!("net stats: unexpected reply {net:?}"));
        };
        if c.net.len() < counts.len() {
            c.net.resize(counts.len(), 0);
        }
        for (sum, v) in c.net.iter_mut().zip(&counts) {
            *sum += v;
        }
    }
    Ok(c)
}

/// One closed-loop client's share of the window. The client retries
/// an op after every refusal (lock contention, a crashed coordinator,
/// a lost reply) until it commits or is served, as a user's client
/// would. An op started before `end` runs to completion; one still
/// refused [`STEP_LIMIT`] after `end` fails.
fn closed_client(
    mut client: LocalClient,
    mut ops: OpGen,
    start: Instant,
    end: Instant,
    recover_at: Option<&AtomicU64>,
) -> Window {
    let mut w = Window::default();
    let give_up = end + STEP_LIMIT;
    let mut last = Instant::now();
    let mut recovered = false;
    'ops: loop {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        w.lag_ns.push(sent.duration_since(last).as_nanos() as u64);
        w.ops += 1;
        let op = ops.op();
        let update = matches!(op, ClientOp::Update { .. });
        loop {
            let reply = client.request(op.clone());
            let done = Instant::now();
            if update && reply.as_ref().is_ok_and(from_round) {
                w.round_updates += 1;
            }
            let latency = done.duration_since(sent).as_nanos() as u64;
            match reply {
                Ok(reply) => {
                    w.outcomes.record(&reply);
                    match reply {
                        ClientReply::Committed { .. } => {
                            w.commit_ns.push(latency);
                            if let Some(recover_at) = recover_at {
                                let at = recover_at.load(Ordering::SeqCst);
                                let done_ns = done.duration_since(start).as_nanos() as u64;
                                if at != 0 && !recovered && done_ns > at {
                                    recovered = true;
                                    w.recovery_ms.push((done_ns - at) as f64 / 1e6);
                                }
                            }
                            last = done;
                            continue 'ops;
                        }
                        ClientReply::ReadServed => {
                            w.read_ns.push(latency);
                            last = done;
                            continue 'ops;
                        }
                        ClientReply::Down => {
                            w.unknown += 1;
                            thread::sleep(DOWN_BACKOFF);
                        }
                        _ => {}
                    }
                }
                Err(RequestError::Timeout) => {
                    w.outcomes.deadline += 1;
                    w.unknown += 1;
                }
                Err(RequestError::NodeGone) => {
                    // The client cannot reach its node again.
                    w.outcomes.transport += 1;
                    w.unknown += 1;
                    w.failed_ops += 1;
                    break 'ops;
                }
            }
            if Instant::now() > give_up {
                w.failed_ops += 1;
                break 'ops;
            }
        }
    }
    w.elapsed = start.elapsed();
    w
}

/// True for a reply that a quorum round produced.
fn from_round(reply: &ClientReply) -> bool {
    matches!(
        reply,
        ClientReply::Committed { .. }
            | ClientReply::Rejected
            | ClientReply::TimedOut
            | ClientReply::Busy
    )
}

/// Pool `part` into `into`.
pub fn merge(into: &mut Window, part: Window) {
    into.ops += part.ops;
    into.failed_ops += part.failed_ops;
    into.outcomes.add(&part.outcomes);
    into.commit_ns.extend(part.commit_ns);
    into.read_ns.extend(part.read_ns);
    into.lag_ns.extend(part.lag_ns);
    into.unknown += part.unknown;
    into.recovery_ms.extend(part.recovery_ms);
    into.round_updates += part.round_updates;
    into.elapsed = into.elapsed.max(part.elapsed);
}

/// Closed loop: one client thread per coordinator, the window lasting
/// until the last client's last op finished; with
/// `workload.crash`, the calling thread crashes that site at 1/3 of
/// the window and recovers it at 2/3.
pub fn closed_window(
    live: &Live,
    workload: &Workload,
    seed: u64,
    length: Duration,
) -> Result<Window, String> {
    let recover_at = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + length;
    let mut window = Window::default();
    let control = thread::scope(|s| {
        let handles: Vec<_> = workload
            .coordinators
            .iter()
            .enumerate()
            .map(|(i, &site)| {
                let client = live.cluster.client(SiteId(site));
                let ops = OpGen::new(workload, seed, i as u64);
                let recover_at = (workload.crash == Some(site)).then_some(&recover_at);
                s.spawn(move || closed_client(client, ops, start, end, recover_at))
            })
            .collect();
        let control = workload.crash.map_or(Ok(()), |site| {
            let site = SiteId(site);
            thread::sleep((start + length / 3).saturating_duration_since(Instant::now()));
            live.cluster
                .crash(site)
                .map_err(|e| format!("crash {site}: {e}"))?;
            thread::sleep((start + length * 2 / 3).saturating_duration_since(Instant::now()));
            let at = start.elapsed().as_nanos() as u64;
            recover_at.store(at.max(1), Ordering::SeqCst);
            live.cluster
                .recover(site)
                .map_err(|e| format!("recover {site}: {e}"))
        });
        for handle in handles {
            merge(&mut window, handle.join().expect("client thread panicked"));
        }
        control
    });
    control?;
    if workload.crash.is_some() && window.recovery_ms.is_empty() {
        return Err("the recovered site's client never committed after Recover".into());
    }
    Ok(window)
}

/// Open loop over the set-up connections: op `i` is due at
/// `start + i / rate` and goes to connection `i % 2`. A sender thread
/// paces the sends; this thread receives, matches replies by id, and
/// times each op from its due instant.
pub fn open_window(
    live: &mut Live,
    workload: &Workload,
    seed: u64,
    length: Duration,
) -> Result<Window, String> {
    let Shape::Open { rate } = workload.shape else {
        return Err("open_window on a closed-loop workload".into());
    };
    let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut writers = Vec::with_capacity(live.conns.len());
    for (i, stream) in live.conns.iter().enumerate() {
        poller
            .register(stream, Token(i), Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
        writers.push(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
    }
    let total = (rate as u128 * length.as_millis() / 1000) as u64;
    // Ops whose request was written (the receiver's finish line).
    let sent = AtomicU64::new(0);
    let sending = std::sync::atomic::AtomicBool::new(true);
    let start = Instant::now() + Duration::from_millis(1);
    let close = due(start, total, rate) + OPEN_DRAIN;
    let mut w = Window::default();
    let conns = &mut live.conns;
    let (lag_ns, write_failures) = thread::scope(|s| -> Result<(Vec<u64>, u64), String> {
        let sender = s.spawn(|| {
            let mut ops = OpGen::new(workload, seed, 0);
            let mut lag_ns = Vec::with_capacity(total as usize);
            let mut failures = 0u64;
            let mut buf = Vec::with_capacity(64);
            for i in 0..total {
                let op = ops.op();
                let id = i + 1;
                buf.clear();
                wire::encode_frame_into(&mut buf, |out| wire::encode_request_into(out, id, &op));
                let at = due(start, i, rate);
                wait_until(at);
                let conn = (i % writers.len() as u64) as usize;
                if writers[conn].write_all(&buf).is_ok() {
                    lag_ns.push(Instant::now().duration_since(at).as_nanos() as u64);
                    sent.fetch_add(1, Ordering::SeqCst);
                } else {
                    failures += 1;
                }
            }
            sending.store(false, Ordering::SeqCst);
            (lag_ns, failures)
        });
        let mut ops = OpGen::new(workload, seed, 0);
        let updates: Vec<bool> = (0..total)
            .map(|_| matches!(ops.op(), ClientOp::Update { .. }))
            .collect();
        let received = receive(
            &poller, conns, start, rate, &updates, close, &sent, &sending, &mut w,
        );
        let result = sender.join().expect("sender thread panicked");
        received.map(|()| result)
    })?;
    w.lag_ns = lag_ns;
    w.outcomes.transport += write_failures;
    w.unknown += write_failures;
    // Written but unanswered when the window closed: failed, outcome
    // unknown.
    let answered = w.outcomes.attempts() - write_failures;
    let inflight = sent.load(Ordering::SeqCst) - answered;
    w.outcomes.deadline += inflight;
    w.unknown += inflight;
    // One attempt per op: no retries on the fixed schedule.
    w.ops = w.outcomes.attempts();
    w.failed_ops = w.outcomes.refused();
    w.elapsed = due(start, total, rate).duration_since(start);
    for stream in conns.iter() {
        poller
            .deregister(stream)
            .map_err(|e| format!("deregister: {e}"))?;
    }
    Ok(w)
}

/// Sleep until `at` (the overshoot is charged to the op's latency).
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// The open loop's receiving side: read replies until every written op
/// is answered after the sender finished, or the window closes.
#[allow(clippy::too_many_arguments)]
fn receive(
    poller: &Poller,
    conns: &mut [TcpStream],
    start: Instant,
    rate: u64,
    updates: &[bool],
    close: Instant,
    sent: &AtomicU64,
    sending: &std::sync::atomic::AtomicBool,
    w: &mut Window,
) -> Result<(), String> {
    let mut decoders: Vec<FrameDecoder> = conns
        .iter()
        .map(|_| FrameDecoder::new(wire::MAX_FRAME))
        .collect();
    let mut events = dynvote_net::Events::with_capacity(16);
    let mut answered = vec![false; updates.len()];
    let mut count = 0u64;
    let mut rbuf = vec![0u8; 64 * 1024];
    loop {
        if !sending.load(Ordering::SeqCst) && count == sent.load(Ordering::SeqCst) {
            return Ok(());
        }
        let now = Instant::now();
        if now >= close {
            return Ok(());
        }
        poller
            .wait(
                &mut events,
                Some((close - now).min(Duration::from_millis(10))),
            )
            .map_err(|e| format!("epoll wait: {e}"))?;
        for event in events.iter() {
            let conn = event.token().0;
            let n = match conns[conn].read(&mut rbuf) {
                Ok(0) => return Err(format!("connection {conn} closed by the node")),
                Ok(n) => n,
                Err(e) => return Err(format!("connection {conn}: {e}")),
            };
            let done = Instant::now();
            decoders[conn].extend(&rbuf[..n]);
            while let Some(body) = decoders[conn]
                .next_frame()
                .map_err(|e| format!("reply frame: {e}"))?
            {
                let (id, reply) =
                    wire::decode_reply(body).map_err(|e| format!("reply decode: {e}"))?;
                let index = id.wrapping_sub(1);
                match answered.get_mut(index as usize) {
                    Some(seen @ false) => *seen = true,
                    _ => return Err(format!("unexpected reply id {id}")),
                }
                count += 1;
                if updates[index as usize] && from_round(&reply) {
                    w.round_updates += 1;
                }
                let latency = intended_latency_ns(due(start, index, rate), done);
                w.outcomes.record(&reply);
                match reply {
                    ClientReply::Committed { .. } => w.commit_ns.push(latency),
                    ClientReply::ReadServed => w.read_ns.push(latency),
                    ClientReply::Down => w.unknown += 1,
                    _ => {}
                }
            }
        }
    }
}

/// Post-window recovery probe: crash a site (the workload's crash
/// site, else one without a client), recover it, and time until an
/// update from that site's own client commits. Cycles repeat until at
/// least [`PROBES`] samples and [`PROBE_TIME`] have accumulated, so a
/// fast recovery is sampled many times. Returns the samples in ms and
/// the commits the probe made.
pub fn recovery_probe(
    live: &Live,
    workload: &Workload,
    seed: u64,
) -> Result<(Vec<f64>, u64), String> {
    let site = workload.crash.unwrap_or_else(|| {
        (0..SITES as u8)
            .find(|s| !workload.coordinators.contains(s))
            .expect("five sites, two coordinators")
    });
    let mut ops = OpGen::new(workload, seed, 99);
    let mut stream = match workload.shape {
        Shape::Open { .. } => Some(connect(&live.cluster, site)?),
        Shape::Closed => None,
    };
    let mut client = live.cluster.client(SiteId(site));
    let mut samples = Vec::with_capacity(PROBES);
    let mut id = 0u64;
    let start = Instant::now();
    while samples.len() < PROBES || start.elapsed() < PROBE_TIME {
        live.cluster
            .crash(SiteId(site))
            .map_err(|e| format!("probe crash: {e}"))?;
        let t0 = Instant::now();
        live.cluster
            .recover(SiteId(site))
            .map_err(|e| format!("probe recover: {e}"))?;
        loop {
            let op = ClientOp::Update { key: ops.key() };
            id += 1;
            let reply = match stream.as_mut() {
                Some(s) => stream_request(s, id, &op)?,
                None => client.request(op).map_err(|e| format!("probe op: {e}"))?,
            };
            if matches!(reply, ClientReply::Committed { .. }) {
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                break;
            }
            if t0.elapsed() > STEP_LIMIT {
                return Err(format!("probe: site {site} never committed after Recover"));
            }
        }
    }
    let commits = samples.len() as u64;
    Ok((samples, commits))
}

/// The correctness gate on the live cluster: the audit must say
/// `consistent` (every site's every log a gapless prefix of its
/// object's chain, no divergence flagged), and the ledger's commit
/// count must sit between what clients saw committed and that plus
/// every op whose outcome the client never learned.
pub fn check(cluster: &Cluster, observed_commits: u64, unknown: u64) -> Result<u64, String> {
    if !cluster.await_quiescence(STEP_LIMIT) {
        return Err("cluster did not quiesce after the window".into());
    }
    let audit = cluster.audit().map_err(|e| format!("audit: {e}"))?;
    if !audit.consistent {
        return Err(format!(
            "audit inconsistent: {:?}",
            audit.violations.iter().take(5).collect::<Vec<_>>()
        ));
    }
    if audit.commits < observed_commits || audit.commits > observed_commits + unknown {
        return Err(format!(
            "ledger holds {} commits; clients saw {observed_commits} with {unknown} outcomes unknown",
            audit.commits
        ));
    }
    Ok(audit.commits)
}
