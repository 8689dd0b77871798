//! The store's one benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <contended|keyed-durable|mixed-open> --seed <n> \
//!     --seconds <s> --trace <0|1> [--quick]
//! cargo run ... -- --list        # every metric by name, unit and meaning
//! ```
//!
//! A run boots the workload's cluster several times (`setup_s`), drives
//! the measured window untraced, gates on correctness, then replays
//! the same op stream on one thread with spans off and on. The report
//! goes to stdout; its last line is one JSON object holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). A failed correctness check exits non-zero with no
//! result line. See `perfbench/README.md`.

mod catalog;
mod facts;
mod live;
mod replay;
mod stats;
mod workload;

use dynvote_protocol::{DurableState, EventKind, ObjectId};
use dynvote_storage::{FsyncPolicy, NodeStore, StoreConfig};
use live::{Counters, Live, Window};
use replay::Kind;
use stats::{median, ms, per, percentile};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Shape, Workload, SITES};

/// Scratch space for data directories and span dumps, inside the
/// checkout the benchmark runs from.
const WORK_DIR: &str = ".perfbench";
/// Measured windows per run, each on a freshly booted cluster; the
/// end-to-end figures are medians over them, so one disturbed window
/// does not move a run's result.
const ROUNDS: usize = 5;
/// Ops the traced replay runs (it is bounded by op count, not time).
const REPLAY_OPS: usize = 4000;
/// Window length in `--quick` mode (one round).
const QUICK_WINDOW: Duration = Duration::from_secs(2);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(None),
            "--quick" => quick = true,
            "--workload" => {
                let name = value()?;
                workload = Some(workload::by_name(&name).ok_or(format!(
                    "unknown workload {name:?} (expected {})",
                    workload::ALL.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be 1..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        quick,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            catalog::print();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root =
        Path::new(WORK_DIR).join(format!("run-{}-{}", args.workload.name, std::process::id()));
    let result = std::fs::create_dir_all(&root)
        .map_err(|e| format!("{}: {e}", root.display()))
        .and_then(|()| run(&args, &root));
    let _ = std::fs::remove_dir_all(&root);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}

/// One round: a fresh cluster, its boots, and one measured window.
struct Round {
    setup_s: Vec<f64>,
    window: Window,
    before: Counters,
    after: Counters,
    ledger_commits: u64,
    open_ms: Vec<f64>,
}

impl Round {
    /// A counter's growth over the window.
    fn delta(&self, get: impl Fn(&Counters) -> u64) -> f64 {
        (get(&self.after) - get(&self.before)) as f64
    }
}

/// Everything one run measured, before it is turned into metrics.
struct Measured {
    rounds: Vec<Round>,
    recovery_ms: Vec<f64>,
    probe_commits: u64,
    off: replay::Replay,
    on: replay::Replay,
    replay_open_ms: Vec<f64>,
    data_fs: String,
}

fn run(args: &Args, root: &Path) -> Result<(), String> {
    let w = args.workload;
    let (rounds, window_len) = if args.quick {
        (1, QUICK_WINDOW)
    } else {
        (ROUNDS, Duration::from_secs(args.seconds) / ROUNDS as u32)
    };
    // The replay always runs the storage layer; without a disk in the
    // live workload it only writes through to the OS.
    let replay_fsync = w.fsync.unwrap_or(FsyncPolicy::Never);

    // ---- live, untraced: each round on a fresh cluster ----
    let mut measured = Measured {
        rounds: Vec::with_capacity(rounds),
        recovery_ms: Vec::new(),
        probe_commits: 0,
        off: replay::Replay::default(),
        on: replay::Replay::default(),
        replay_open_ms: Vec::new(),
        data_fs: facts::filesystem(root),
    };
    for r in 0..rounds {
        // Every round draws its own inputs, all fixed by --seed.
        let seed = args.seed.wrapping_add(r as u64 * 0x9E37_79B9);
        let dir = root.join(format!("round-{r}"));
        let mut live: Live = live::setup(w, &dir)?;
        let before = live::counters(&live.cluster)?;
        let window = match w.shape {
            Shape::Closed => live::closed_window(&live, w, seed, window_len)?,
            Shape::Open { .. } => live::open_window(&mut live, w, seed, window_len)?,
        };
        let after = live::counters(&live.cluster)?;
        measured.recovery_ms.extend(&window.recovery_ms);
        let (samples, probe_commits) = live::recovery_probe(&live, w, seed)?;
        measured.recovery_ms.extend(samples);
        measured.probe_commits += probe_commits;
        let observed = window.outcomes.commits + probe_commits;
        let ledger_commits = live::check(&live.cluster, observed, window.unknown)?;
        let Live {
            cluster,
            conns,
            setup_s,
            data_dir,
        } = live;
        drop(conns);
        cluster.shutdown();
        let open_ms = match &data_dir {
            Some(dir) => {
                measured.data_fs = facts::filesystem(dir);
                let open_ms = (0..SITES)
                    .map(|i| reopen(&dir.join(format!("site-{i}")), w.objects, None))
                    .collect::<Result<Vec<_>, _>>()?;
                std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                open_ms
            }
            None => Vec::new(),
        };
        measured.rounds.push(Round {
            setup_s,
            window,
            before,
            after,
            ledger_commits,
            open_ms,
        });
    }

    // ---- replay: spans off, then on ----
    let replay_ops = if args.quick {
        REPLAY_OPS / 10
    } else {
        REPLAY_OPS
    };
    measured.off = replay::run(
        w,
        replay_ops,
        args.seed,
        &root.join("replay-off"),
        replay_fsync,
        false,
    )?;
    measured.on = replay::run(
        w,
        replay_ops,
        args.seed,
        &root.join("replay-on"),
        replay_fsync,
        true,
    )?;
    measured.replay_open_ms = measured
        .on
        .dirs
        .iter()
        .zip(&measured.on.states)
        .map(|(dir, states)| reopen(dir, w.objects, Some(states)))
        .collect::<Result<Vec<_>, _>>()?;
    let spans_path = Path::new(WORK_DIR).join(format!("spans-{}.tsv", w.name));
    replay::write_spans(&spans_path, &measured.on.spans)?;
    report(args, &measured, &spans_path, replay_fsync)
}

/// Time `NodeStore::open` on a site directory and check what it
/// recovered: every object's log gapless and matching its version, and
/// equal to `expect` when given.
fn reopen(dir: &Path, objects: usize, expect: Option<&Vec<DurableState>>) -> Result<f64, String> {
    let t0 = Instant::now();
    let (store, states, report) = NodeStore::open(
        dir,
        StoreConfig::default(),
        objects,
        DurableState::initial(SITES),
    )
    .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(store);
    if let Some(torn) = report.truncated {
        return Err(format!(
            "reopen {}: torn WAL tail: {}",
            dir.display(),
            torn.reason
        ));
    }
    for (o, state) in states.iter().enumerate().take(objects) {
        let gapless = state
            .log
            .iter()
            .enumerate()
            .all(|(i, e)| e.version == i as u64 + 1);
        if !gapless || state.meta.version != state.log.len() as u64 {
            return Err(format!(
                "reopen {}: object {o} log not gapless",
                dir.display()
            ));
        }
        if let Some(expect) = expect {
            if expect[o].log != state.log || expect[o].meta != state.meta {
                return Err(format!(
                    "reopen {}: object {} recovered state differs from the replay's",
                    dir.display(),
                    ObjectId(o as u32)
                ));
            }
        }
    }
    Ok(open_ms)
}

/// A percentile in ms; outside `--quick`, too few samples beyond it
/// fails the run.
fn pct_ms(sorted: &[u64], p: f64, what: &str, quick: bool) -> Result<f64, String> {
    match percentile(sorted, p) {
        Ok(ns) => Ok(ms(ns)),
        Err(e) if quick => {
            eprintln!("perfbench: warning: {what} {e} (quick mode)");
            Ok(sorted.last().map_or(0.0, |&ns| ms(ns)))
        }
        Err(e) => Err(format!("{what} {e}")),
    }
}

/// One round's client-visible figures: commit rate, commit p50/p99,
/// read p50/p99, attempts per op. A run reports the median of each over
/// its rounds, so one disturbed window does not move the result.
fn round_e2e(round: &Round, quick: bool) -> Result<[f64; 6], String> {
    let o = &round.window.outcomes;
    let mut commit_ns = round.window.commit_ns.clone();
    let mut read_ns = round.window.read_ns.clone();
    commit_ns.sort_unstable();
    read_ns.sort_unstable();
    Ok([
        o.commits as f64 / round.window.elapsed.as_secs_f64(),
        pct_ms(&commit_ns, 50.0, "commit latency", quick)?,
        pct_ms(&commit_ns, 99.0, "commit latency", quick)?,
        pct_ms(&read_ns, 50.0, "read latency", quick)?,
        pct_ms(&read_ns, 99.0, "read latency", quick)?,
        stats::attempts_per_op(o.attempts(), round.window.ops),
    ])
}

fn report(
    args: &Args,
    m: &Measured,
    spans_path: &Path,
    replay_fsync: FsyncPolicy,
) -> Result<(), String> {
    let w = args.workload;
    let mut all = Window::default();
    for r in &m.rounds {
        live::merge(&mut all, r.window.clone());
    }
    let o = &all.outcomes;
    all.lag_ns.sort_unstable();
    let per_round = m
        .rounds
        .iter()
        .map(|r| round_e2e(r, args.quick))
        .collect::<Result<Vec<_>, _>>()?;
    let round_median = |i: usize| median(&per_round.iter().map(|v| v[i]).collect::<Vec<_>>());
    let setup_s: Vec<f64> = m
        .rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let commit_p50 = round_median(1);
    let e2e: Vec<(&str, f64)> = vec![
        ("setup_s", median(&setup_s)),
        ("commit_rate", round_median(0)),
        ("commit_p50_ms", commit_p50),
        ("read_p50_ms", round_median(3)),
        ("attempts_per_op", round_median(5)),
        ("recovery_ms", median(&m.recovery_ms)),
    ];

    let commits = o.commits as f64;
    let attempts = o.attempts() as f64;
    let sum = |get: &dyn Fn(&Round) -> f64| m.rounds.iter().map(get).sum::<f64>();
    let ev = |kind| sum(&|r| r.delta(|c| c.events.total(kind)));
    let net = |name| sum(&|r| r.delta(|c| c.net(name)));
    let barriers = sum(&|r| r.delta(|c| c.merge_barriers));
    let layers = replay::layers(&m.on);
    let updates = m.on.updates as f64;
    let reads = m.on.reads as f64;
    let ns_per = |kind: Kind| {
        let (ns, n) = layers.kind(kind);
        per(ns as f64, n as f64)
    };
    let path_us: Vec<f64> =
        m.on.update_path_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
    let replay_path_p50_us = median(&path_us);
    let overhead = m.on.elapsed.as_secs_f64() / m.off.elapsed.as_secs_f64() - 1.0;
    let (wal_bytes_per_commit, wal_source) = if w.fsync.is_some() {
        (
            per(sum(&|r| r.delta(|c| c.wchar)), commits),
            "live write(2) bytes",
        )
    } else {
        (per(m.on.wal_bytes[0] as f64, updates), "replay WAL bytes")
    };
    let open_ms = if w.fsync.is_some() {
        median(
            &m.rounds
                .iter()
                .flat_map(|r| r.open_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    } else {
        median(&m.replay_open_ms)
    };
    let share = |n: u64| per(n as f64, attempts);
    let lag_p99 = pct_ms(&all.lag_ns, 99.0, "send lag", args.quick)?;
    let per_layer: Vec<(&str, f64)> = vec![
        ("commit_p99_ms", round_median(2)),
        ("read_p99_ms", round_median(4)),
        (
            "protocol.vote_denied_per_commit",
            per(ev(EventKind::VoteDenied), commits),
        ),
        (
            "protocol.abort_share",
            per(
                ev(EventKind::Aborted),
                ev(EventKind::Committed) + ev(EventKind::Aborted) + ev(EventKind::ReadServed),
            ),
        ),
        (
            "protocol.ops_per_round",
            per(all.round_updates as f64, sum(&|r| r.delta(|c| c.rounds))),
        ),
        (
            "protocol.catchup_per_commit",
            per(ev(EventKind::CatchUpStarted), commits),
        ),
        (
            "protocol.msgs_per_commit",
            per(m.on.msgs[0] as f64, updates),
        ),
        ("protocol.msgs_per_read", per(m.on.msgs[1] as f64, reads)),
        (
            "protocol.update_us",
            per(layers.protocol_ns[0] as f64, updates) / 1e3,
        ),
        (
            "protocol.read_us",
            per(layers.protocol_ns[1] as f64, reads) / 1e3,
        ),
        ("node.barriers_per_commit", per(barriers, commits)),
        (
            "node.merge_wait_us_per_barrier",
            per(sum(&|r| r.delta(|c| c.merge_wait_ns)), barriers) / 1e3,
        ),
        (
            "node.queue_peak",
            m.rounds
                .iter()
                .map(|r| r.after.queue_peak)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("wire.encode_ns_per_msg", ns_per(Kind::Encode)),
        ("wire.decode_ns_per_msg", ns_per(Kind::Decode)),
        (
            "wire.bytes_per_commit",
            per(m.on.wire_bytes[0] as f64, updates),
        ),
        ("net.frames_in_per_op", per(net("frames_in"), attempts)),
        ("net.frame_decode_ns_per_frame", ns_per(Kind::Frame)),
        (
            "net.transport_faults",
            [
                "peer_dial_failures",
                "peer_write_errors",
                "backpressure_drops",
                "decode_errors",
                "bad_preambles",
            ]
            .into_iter()
            .map(net)
            .sum(),
        ),
        ("net.http_parse_ns_per_req", ns_per(Kind::Parse)),
        ("storage.barrier_us", ns_per(Kind::Barrier) / 1e3),
        ("storage.append_ns_per_op", ns_per(Kind::Append)),
        (
            "storage.barriers_per_commit",
            per(m.on.barriers[0] as f64, updates),
        ),
        (
            "storage.bytes_per_commit",
            per(m.on.wal_bytes[0] as f64, updates),
        ),
        ("storage.wal_bytes_per_commit", wal_bytes_per_commit),
        ("storage.open_ms", open_ms),
        ("client.send_lag_p99_ms", lag_p99),
        ("client.rejected_share", share(o.rejected)),
        ("client.busy_share", share(o.busy)),
        ("client.overloaded_share", share(o.overloaded)),
        ("client.timed_out_share", share(o.timed_out)),
        ("client.down_share", share(o.down)),
        ("client.deadline_share", share(o.deadline)),
        ("client.transport_share", share(o.transport)),
        ("unattributed_us", commit_p50 * 1e3 - replay_path_p50_us),
        ("trace.overhead_share", overhead),
    ];

    // ---- the human-readable report ----
    let fsync = w
        .fsync
        .map_or("none (no disk)".to_string(), |f| f.to_string());
    let recovery_source = if w.crash.is_some() {
        "the in-window recovery and the post-window crash/recover cycles of the same site, every round"
    } else {
        "the post-window crash/recover cycles of a site without a workload client, every round"
    };
    println!(
        "perfbench {} seed {} ({})",
        w.name,
        args.seed,
        if args.trace { "trace 1" } else { "trace 0" }
    );
    println!("  machine: nproc {}, {}", facts::nproc(), facts::rustc());
    println!("  source: {}", facts::revision());
    println!(
        "  fsync: {fsync} (live), {replay_fsync} (replay); data dir filesystem: {}",
        m.data_fs
    );
    println!(
        "  windows: {} x {:.3} s{}, each on a fresh cluster; end-to-end figures are medians over rounds; {} boots for setup_s; recovery_ms pools {}",
        m.rounds.len(),
        m.rounds[0].window.elapsed.as_secs_f64(),
        if args.quick { " (quick mode)" } else { "" },
        setup_s.len(),
        recovery_source
    );
    for (i, v) in per_round.iter().enumerate() {
        println!(
            "    round {i}: commit_rate {:.1} /s, commit p50 {:.4} p99 {:.4} ms, read p50 {:.4} p99 {:.4} ms, attempts_per_op {:.4}",
            v[0], v[1], v[2], v[3], v[4], v[5]
        );
    }
    println!(
        "  tracing overhead: replay {:.1} ms with spans off, {:.1} ms on ({:+.1}%); {} spans in {}",
        m.off.elapsed.as_secs_f64() * 1e3,
        m.on.elapsed.as_secs_f64() * 1e3,
        overhead * 100.0,
        m.on.spans.len(),
        spans_path.display()
    );
    println!(
        "  samples: {} commit latencies, {} read latencies, {} generator lags, {} recovery, {} setup",
        all.commit_ns.len(),
        all.read_ns.len(),
        all.lag_ns.len(),
        m.recovery_ms.len(),
        setup_s.len()
    );
    println!(
        "  ops: {} started, {} failed (never committed or served); outcomes of their {} attempts: committed {}, served {}, rejected {} (lock contention on a healthy cluster: a VoteBusy counts as an absent voter), busy {}, overloaded {}, timed_out {}, down {}, deadline {} (no reply in time, or open loop: in flight at close), transport {}",
        all.ops, all.failed_ops, o.attempts(), o.commits, o.reads, o.rejected, o.busy, o.overloaded, o.timed_out, o.down, o.deadline, o.transport
    );
    println!(
        "  correctness: every audit consistent; ledgers hold {} workload commits; clients saw {} in the windows ({} attempts with outcome unknown) and {} in the recovery probe; recovered logs gapless; replay {} updates committed, {} reads served, logs equal the chain",
        m.rounds.iter().map(|r| r.ledger_commits).sum::<u64>(),
        o.commits,
        all.unknown,
        m.probe_commits,
        m.on.updates,
        m.on.reads
    );
    println!(
        "  replay: {} ops; critical path per update through {:?}: {:.2} us (median); storage.wal_bytes_per_commit from {wal_source}",
        m.on.is_read.len(),
        replay::live_layers(w),
        replay_path_p50_us
    );
    println!("  end-to-end:");
    for (metric, (name, value)) in catalog::END_TO_END.iter().zip(&e2e) {
        assert_eq!(metric.name, *name, "end-to-end metric order");
        println!("    {name:<34} {value:>14.6} {}", metric.unit);
    }
    println!("  per-layer:");
    for (metric, (name, value)) in catalog::PER_LAYER.iter().zip(&per_layer) {
        assert_eq!(metric.name, *name, "per-layer metric order");
        println!(
            "    {name:<34} {value:>14.6} {:<6} {}",
            metric.unit, metric.note
        );
    }

    // ---- the result line ----
    let (chosen, values) = if args.trace {
        (catalog::PER_LAYER, &per_layer)
    } else {
        (catalog::END_TO_END, &e2e)
    };
    let mut body = Vec::with_capacity(chosen.len());
    for (metric, (name, value)) in chosen.iter().zip(values) {
        assert!(stats::valid_name(name) && stats::valid_unit(metric.unit));
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all.ops,
        all.failed_ops,
        body.join(", ")
    );
    Ok(())
}
