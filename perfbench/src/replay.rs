//! The traced replay: the workload's op stream pushed through five
//! `ShardedSite` kernels on one thread, every message through the wire
//! codec and a `FrameDecoder`, every persistence hook into a real
//! `NodeStore`, and every client op through the HTTP request parser.
//! Each call into a layer's public functions is a span; a layer's self
//! time is its spans' time minus their child spans'. The live cluster
//! runs none of this code path's timing, so the per-layer numbers
//! never perturb the end-to-end ones.

use crate::workload::{OpGen, Shape, Workload, SITES};
use dynvote_cluster::{wire, ClientOp};
use dynvote_core::{AlgorithmKind, CopyMeta, SiteId, SiteSet};
use dynvote_net::{FrameDecoder, RequestParser};
use dynvote_protocol::persist::PersistOp;
use dynvote_protocol::{
    Action, DurableState, LogEntry, ObjectId, Persistence, ResolveReason, ShardedSite, TxnId,
};
use dynvote_storage::{FsyncPolicy, NodeStore, StoreConfig};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ShardedSite::start_update` / `start_read` (protocol).
    Start,
    /// `ShardedSite::handle_message` (protocol).
    Handle,
    /// `wire::encode_frame_into` + `encode_message_into` (wire).
    Encode,
    /// `wire::decode_peer_frame` (wire).
    Decode,
    /// `FrameDecoder::extend` + `next_frame` (net).
    Frame,
    /// `NodeStore::append` from a persistence hook (storage).
    Append,
    /// `NodeStore::barrier` that sealed a record (storage).
    Barrier,
    /// `RequestParser::extend` + `next_request` (net, HTTP).
    Parse,
}

/// The repository layer a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `dynvote-protocol`.
    Protocol,
    /// `cluster::wire`.
    Wire,
    /// `dynvote-net` frame decoding.
    Net,
    /// `dynvote-storage`.
    Storage,
    /// `dynvote-net` HTTP parsing (the front door; no live workload
    /// runs it yet).
    Http,
}

impl Kind {
    /// The layer this kind of span times.
    pub fn layer(self) -> Layer {
        match self {
            Kind::Start | Kind::Handle => Layer::Protocol,
            Kind::Encode | Kind::Decode => Layer::Wire,
            Kind::Frame => Layer::Net,
            Kind::Append | Kind::Barrier => Layer::Storage,
            Kind::Parse => Layer::Http,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Start => "protocol.start",
            Kind::Handle => "protocol.handle_message",
            Kind::Encode => "wire.encode",
            Kind::Decode => "wire.decode",
            Kind::Frame => "net.frame",
            Kind::Append => "storage.append",
            Kind::Barrier => "storage.barrier",
            Kind::Parse => "net.http_parse",
        }
    }
}

/// One timed call. Spans of one client op share `op`; `parent` is the
/// index of the enclosing span (`NO_PARENT` for a root).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Replay op index that caused the span.
    pub op: u32,
    /// What was timed.
    pub kind: Kind,
    /// Index of the enclosing span.
    pub parent: u32,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
}

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Run `f` inside a span of `kind` (a plain call when tracing is off).
fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let op = t.op;
        let start = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            op,
            kind,
            parent,
            start,
            end: start,
        });
        t.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.origin.elapsed().as_nanos() as u64;
            t.spans[idx as usize].end = end;
            t.stack.pop();
        });
    }
    out
}

/// A persistence hook that appends straight into the site's store,
/// inside a storage span (a child of the kernel call that fired it).
struct TimedHook {
    store: Arc<Mutex<NodeStore>>,
    object: ObjectId,
    appends: Arc<AtomicU64>,
}

impl TimedHook {
    fn append(&mut self, op: PersistOp) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        span(Kind::Append, || {
            self.store
                .lock()
                .expect("replay store lock")
                .append(self.object, &op)
                .expect("replay WAL append");
        });
    }
}

impl Persistence for TimedHook {
    fn seq_advanced(&mut self, next_seq: u64) {
        self.append(PersistOp::Seq(next_seq));
    }
    fn prepared(&mut self, txn: TxnId, coordinator: SiteId) {
        self.append(PersistOp::Prepared(txn, coordinator));
    }
    fn prepare_cleared(&mut self, txn: TxnId) {
        self.append(PersistOp::PrepareCleared(txn));
    }
    fn entries_appended(&mut self, entries: &[LogEntry]) {
        self.append(PersistOp::Entries(entries.to_vec()));
    }
    fn meta_updated(&mut self, meta: CopyMeta) {
        self.append(PersistOp::Meta(meta));
    }
    fn committed(&mut self, txn: TxnId, meta: CopyMeta, participants: SiteSet) {
        self.append(PersistOp::Committed(txn, meta, participants));
    }
}

struct Site {
    kernel: ShardedSite,
    store: Arc<Mutex<NodeStore>>,
    appends: Arc<AtomicU64>,
    sealed_at: u64,
}

/// Counts of one replay (traced or not).
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of the op loop.
    pub elapsed: Duration,
    /// Updates replayed (all must commit).
    pub updates: u64,
    /// Reads replayed (all must be served).
    pub reads: u64,
    /// Messages delivered while replaying updates / reads.
    pub msgs: [u64; 2],
    /// Peer frame bytes delivered while replaying updates / reads.
    pub wire_bytes: [u64; 2],
    /// WAL bytes (all sites) written while replaying updates / reads.
    pub wal_bytes: [u64; 2],
    /// Record-sealing barriers while replaying updates / reads.
    pub barriers: [u64; 2],
    /// Per update: critical path through the live layers, ns (0 when
    /// untraced).
    pub update_path_ns: Vec<u64>,
    /// Spans (empty when untraced); `op` indexes `is_read`.
    pub spans: Vec<Span>,
    /// Per op: whether it was a read.
    pub is_read: Vec<bool>,
    /// The site directories, for the post-replay `NodeStore::open`.
    pub dirs: Vec<PathBuf>,
    /// Every site's final per-object durable state, for comparing
    /// with what recovery from the directories yields.
    pub states: Vec<Vec<DurableState>>,
}

/// Replay `ops` ops of the workload's op stream under `seed`, with the
/// site stores in `dir`, with spans on or off.
/// Checks its own results: every update commits at the next version
/// of its object, every read is served, and every site's log of every
/// object equals the committed chain.
pub fn run(
    workload: &Workload,
    ops: usize,
    seed: u64,
    dir: &Path,
    fsync: FsyncPolicy,
    traced: bool,
) -> Result<Replay, String> {
    let algorithm = AlgorithmKind::Hybrid;
    let live_layers = live_layers(workload);
    let mut sites = Vec::with_capacity(SITES);
    let mut replay = Replay::default();
    for i in 0..SITES {
        let site_dir = dir.join(format!("site-{i}"));
        let (store, _, _) = NodeStore::open(
            &site_dir,
            StoreConfig {
                fsync,
                ..StoreConfig::default()
            },
            workload.objects,
            DurableState::initial(SITES),
        )
        .map_err(|e| format!("replay store: {e}"))?;
        let store = Arc::new(Mutex::new(store));
        let appends = Arc::new(AtomicU64::new(0));
        let mut kernel = ShardedSite::new(SiteId(i as u8), SITES, workload.objects, || {
            algorithm.instantiate(SITES)
        });
        kernel.set_persistence(|object| {
            Box::new(TimedHook {
                store: Arc::clone(&store),
                object,
                appends: Arc::clone(&appends),
            })
        });
        sites.push(Site {
            kernel,
            store,
            appends,
            sealed_at: 0,
        });
        replay.dirs.push(site_dir);
    }

    let mut gen = OpGen::new(workload, seed, 1000);
    let script: Vec<(ClientOp, Vec<u8>)> = (0..ops)
        .map(|_| {
            let op = gen.op();
            let request = http_request(&op);
            (op, request)
        })
        .collect();
    let mut chains: Vec<Vec<u64>> = vec![Vec::new(); workload.objects];
    let mut decoders: Vec<FrameDecoder> = (0..SITES * SITES)
        .map(|_| FrameDecoder::new(wire::MAX_FRAME))
        .collect();
    let mut parser = RequestParser::new();
    let mut queue: VecDeque<Queued> = VecDeque::new();
    let mut out = Vec::new();
    let mut encoded = Vec::with_capacity(256);
    let mut decoded = Vec::new();
    let (mut committed, mut served) = (0u64, 0u64);

    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = traced;
        t.origin = Instant::now();
        t.spans.clear();
        t.stack.clear();
    });
    let start = Instant::now();
    for (index, (op, request)) in script.iter().enumerate() {
        TRACER.with(|t| t.borrow_mut().op = index as u32);
        let (key, read) = match *op {
            ClientOp::Read { key } => (key, true),
            ClientOp::Update { key } => (key, false),
            _ => unreachable!("the op stream holds only reads and updates"),
        };
        let k = usize::from(read);
        replay.is_read.push(read);
        let parsed = span(Kind::Parse, || {
            parser.extend(request);
            parser.next_request()
        });
        match parsed {
            Ok(Some(req)) if request.ends_with(&req.body) => {}
            other => return Err(format!("HTTP parser returned {other:?}")),
        }
        let wal_before = wal_len(&sites);
        let coordinator = workload.coordinators[index % 2];
        let object = ObjectId(key);
        let payload = index as u64 + 1;
        // Virtual per-site clocks for this op: each site runs its steps
        // one at a time, a message is ready when its sender's step
        // ends, and delivery itself is free. The coordinator's clock
        // when it resolves the op is the op's critical path through
        // the replayed layers.
        let mut clock = [0u64; SITES];
        let mut resolved_at = None;
        let mark = span_count();
        let site = &mut sites[coordinator as usize];
        let hosted = span(Kind::Start, || {
            if read {
                site.kernel.start_read(object, &mut out)
            } else {
                site.kernel.start_update(object, payload, &mut out)
            }
        });
        if !hosted {
            return Err(format!("object {key} not hosted"));
        }
        replay.barriers[k] += seal(site)?;
        let mut step = Step {
            from: coordinator,
            queue: &mut queue,
            encoded: &mut encoded,
            chains: &mut chains,
        };
        let (resolved, queued) = step.emit(&mut out, index)?;
        clock[coordinator as usize] = path_cost(mark, live_layers);
        step.stamp(queued, clock[coordinator as usize]);
        if resolved {
            resolved_at = Some(clock[coordinator as usize]);
        }
        while let Some((sender, to, frame, ready)) = queue.pop_front() {
            replay.msgs[k] += 1;
            replay.wire_bytes[k] += frame.len() as u64;
            let mark = span_count();
            let decoder = &mut decoders[usize::from(to) * SITES + usize::from(sender)];
            decoded.clear();
            span(Kind::Frame, || -> Result<(), String> {
                decoder.extend(&frame);
                let body = decoder
                    .next_frame()
                    .map_err(|e| format!("frame: {e}"))?
                    .ok_or("frame: incomplete")?;
                span(Kind::Decode, || {
                    wire::decode_peer_frame(body, |m| decoded.push(m))
                        .map_err(|e| format!("decode: {e}"))
                })?;
                Ok(())
            })?;
            let site = &mut sites[usize::from(to)];
            for msg in decoded.drain(..) {
                span(Kind::Handle, || {
                    site.kernel.handle_message(SiteId(sender), msg, &mut out)
                });
            }
            replay.barriers[k] += seal(site)?;
            let mut step = Step {
                from: to,
                queue: &mut queue,
                encoded: &mut encoded,
                chains: &mut chains,
            };
            let (resolved, queued) = step.emit(&mut out, index)?;
            let t = &mut clock[usize::from(to)];
            *t = (*t).max(ready) + path_cost(mark, live_layers);
            step.stamp(queued, *t);
            if resolved {
                resolved_at = Some(*t);
            }
        }
        let Some(path) = resolved_at else {
            return Err(format!("replay op {index} never resolved"));
        };
        replay.wal_bytes[k] += wal_len(&sites) - wal_before;
        if read {
            replay.reads += 1;
            served += 1;
        } else {
            replay.updates += 1;
            committed += 1;
            replay.update_path_ns.push(path);
        }
    }
    replay.elapsed = start.elapsed();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        replay.spans = std::mem::take(&mut t.spans);
    });

    if committed != replay.updates || served != replay.reads {
        return Err(format!(
            "replay: {committed}/{} updates committed, {served}/{} reads served",
            replay.updates, replay.reads
        ));
    }
    for (i, site) in sites.iter().enumerate() {
        if site.kernel.any_locked() || site.kernel.any_in_doubt() {
            return Err(format!("replay: site {i} left a lock or doubt behind"));
        }
        let mut states = Vec::with_capacity(workload.objects);
        for (o, chain) in chains.iter().enumerate() {
            let shard = site.kernel.shard(ObjectId(o as u32)).expect("hosted");
            if !log_is_chain(shard.log(), chain) || shard.meta().version != chain.len() as u64 {
                return Err(format!(
                    "replay: site {i} object {o} log differs from the chain"
                ));
            }
            states.push(shard.durable().clone());
        }
        replay.states.push(states);
    }
    Ok(replay)
}

/// A frame in flight: sender, receiver, bytes, and the virtual instant
/// its sender's step ended.
type Queued = (u8, u8, Vec<u8>, u64);

/// One site's outputs after a step: encode its sends onto the queue and
/// account for resolutions and commits.
struct Step<'a> {
    from: u8,
    queue: &'a mut VecDeque<Queued>,
    encoded: &'a mut Vec<u8>,
    chains: &'a mut [Vec<u64>],
}

impl Step<'_> {
    /// Drain `out`. Returns whether the op resolved here and how many
    /// frames were queued.
    fn emit(&mut self, out: &mut Vec<Action>, index: usize) -> Result<(bool, usize), String> {
        let before = self.queue.len();
        let mut resolved = false;
        for action in out.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.encode(&msg);
                    self.queue
                        .push_back((self.from, to.0, self.encoded.clone(), 0));
                }
                Action::Broadcast { msg } => {
                    self.encode(&msg);
                    for to in (0..SITES as u8).filter(|&to| to != self.from) {
                        self.queue
                            .push_back((self.from, to, self.encoded.clone(), 0));
                    }
                }
                Action::Resolved { reason, .. } => match reason {
                    ResolveReason::Committed | ResolveReason::ReadServed => resolved = true,
                    other => return Err(format!("replay op {index} resolved {other:?}")),
                },
                Action::CommitRecorded {
                    version,
                    payload,
                    txn,
                } => {
                    let chain = &mut self.chains[txn.object.index()];
                    if version != chain.len() as u64 + 1 {
                        return Err(format!(
                            "replay commit at version {version} of {} (chain {})",
                            txn.object,
                            chain.len()
                        ));
                    }
                    chain.push(payload);
                }
                // No faults and synchronous delivery: deadlines never
                // matter, and group mode is unused.
                Action::SetTimer { .. } | Action::DecisionReady { .. } => {}
            }
        }
        Ok((resolved, self.queue.len() - before))
    }

    fn encode(&mut self, msg: &dynvote_protocol::Message) {
        self.encoded.clear();
        let encoded = &mut *self.encoded;
        span(Kind::Encode, || {
            wire::encode_frame_into(encoded, |o| wire::encode_message_into(o, msg))
        });
    }

    /// Mark the last `queued` frames ready at virtual instant `at`.
    fn stamp(&mut self, queued: usize, at: u64) {
        let len = self.queue.len();
        for q in self.queue.range_mut(len - queued..) {
            q.3 = at;
        }
    }
}

fn span_count() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// Self time of the spans recorded since `mark` whose layer is in
/// `layers` (all of them nest inside one step).
fn path_cost(mark: usize, layers: &[Layer]) -> u64 {
    TRACER.with(|t| {
        let spans = &t.borrow().spans[mark..];
        let own = self_times_from(spans, mark as u32);
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| layers.contains(&s.kind.layer()))
            .map(|(_, ns)| ns)
            .sum()
    })
}

/// The layers a workload's live path runs: `unattributed_us` compares
/// the live latency with the replayed critical path through these.
pub fn live_layers(workload: &Workload) -> &'static [Layer] {
    match (workload.shape, workload.fsync) {
        (Shape::Open { .. }, _) => &[Layer::Protocol, Layer::Wire, Layer::Net],
        (Shape::Closed, Some(_)) => &[Layer::Protocol, Layer::Storage],
        (Shape::Closed, None) => &[Layer::Protocol],
    }
}

/// True when `log` holds exactly versions `1..=chain.len()` with the
/// chain's payloads.
fn log_is_chain(log: &[LogEntry], chain: &[u64]) -> bool {
    log.len() == chain.len()
        && log
            .iter()
            .zip(chain)
            .enumerate()
            .all(|(i, (e, &p))| e.version == i as u64 + 1 && e.payload == p)
}

/// Seal the site's pending WAL ops if any hook fired since the last
/// barrier (the node barriers once per inbox batch, before any send
/// leaves). Returns 1 if a record was sealed.
fn seal(site: &mut Site) -> Result<u64, String> {
    let appends = site.appends.load(Ordering::Relaxed);
    if appends == site.sealed_at {
        return Ok(0);
    }
    site.sealed_at = appends;
    span(Kind::Barrier, || {
        site.store
            .lock()
            .expect("replay store lock")
            .barrier()
            .map_err(|e| format!("replay barrier: {e}"))
    })?;
    Ok(1)
}

fn wal_len(sites: &[Site]) -> u64 {
    sites
        .iter()
        .map(|s| s.store.lock().expect("replay store lock").wal_len())
        .sum()
}

/// The front door's request for `op`.
fn http_request(op: &ClientOp) -> Vec<u8> {
    let body = match op {
        ClientOp::Read { key } => format!("{{\"op\":\"read\",\"key\":{key}}}"),
        ClientOp::Update { key } => format!("{{\"op\":\"update\",\"key\":{key}}}"),
        _ => String::new(),
    };
    format!(
        "POST /v1/op HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Per-layer figures derived from a traced replay's spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Total self ns per kind.
    pub self_ns: Vec<(Kind, u64, u64)>,
    /// Kernel self ns over update ops / read ops.
    pub protocol_ns: [u64; 2],
}

impl Layers {
    /// Total self ns and span count of one kind.
    pub fn kind(&self, kind: Kind) -> (u64, u64) {
        self.self_ns
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map_or((0, 0), |&(_, ns, n)| (ns, n))
    }
}

const KINDS: [Kind; 8] = [
    Kind::Start,
    Kind::Handle,
    Kind::Encode,
    Kind::Decode,
    Kind::Frame,
    Kind::Append,
    Kind::Barrier,
    Kind::Parse,
];

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    self_times_from(spans, 0)
}

/// [`self_times`] of a slice starting at span index `first`; parents
/// before the slice are ignored.
fn self_times_from(spans: &[Span], first: u32) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT && s.parent >= first {
            child[(s.parent - first) as usize] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(*c))
        .collect()
}

/// Aggregate a traced replay's spans by kind, layer and op.
pub fn layers(replay: &Replay) -> Layers {
    let own = self_times(&replay.spans);
    let mut totals = [(0u64, 0u64); 8];
    let mut protocol_ns = [0u64; 2];
    for (s, &ns) in replay.spans.iter().zip(&own) {
        let k = KINDS.iter().position(|&k| k == s.kind).expect("known kind");
        totals[k].0 += ns;
        totals[k].1 += 1;
        if s.kind.layer() == Layer::Protocol {
            protocol_ns[usize::from(replay.is_read[s.op as usize])] += ns;
        }
    }
    Layers {
        self_ns: KINDS
            .iter()
            .zip(totals)
            .map(|(&k, (ns, n))| (k, ns, n))
            .collect(),
        protocol_ns,
    }
}

/// Write the spans as tab-separated text: one line per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "index\top\tspan\tparent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.op,
                s.kind.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(kind: Kind, parent: u32, start: u64, end: u64) -> Span {
        Span {
            op: 0,
            kind,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            s(Kind::Handle, NO_PARENT, 0, 100),
            s(Kind::Append, 0, 10, 30),
            s(Kind::Append, 0, 40, 45),
            s(Kind::Frame, NO_PARENT, 200, 260),
            s(Kind::Decode, 3, 210, 250),
        ];
        assert_eq!(self_times(&spans), vec![75, 20, 5, 20, 40]);
    }

    #[test]
    fn replay_checks_itself_and_traces_every_layer() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-replay-{}", std::process::id()));
        let workload = crate::workload::by_name("mixed-open").unwrap();
        let replay = run(workload, 60, 3, &dir, FsyncPolicy::Never, true).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(replay.updates + replay.reads, 60);
        let layers = layers(&replay);
        for kind in KINDS {
            assert!(layers.kind(kind).1 > 0, "no {kind:?} spans");
        }
        assert_eq!(replay.update_path_ns.len() as u64, replay.updates);
        assert!(replay.update_path_ns.iter().all(|&ns| ns > 0));
        // A five-site round: votes out and back, then commits.
        assert!(replay.msgs[0] >= 8 * replay.updates);
    }
}
