//! The traced run: the layer ladder behind every per-layer metric.
//!
//! The same frames are replayed, in lock-step per frame, through five
//! rungs, each timing only calls into public functions of the repo:
//!
//! * **R0** a depth-1 socket round trip to the daemon child;
//! * **R1** the three calls `dispatch_line` makes: `parse_request`,
//!   `PoolHandle::request` on an in-process `EnginePool`, and the reply's
//!   `to_string`;
//! * **R2** `handle_request` on a local `BTreeMap` twin;
//! * **R3** the `StreamEngine` call on a twin;
//! * **R4** the `IncrementalAnalysis` call on a twin, and
//!   `Json::parse_bytes` on the request line.
//!
//! Each call is one [`Span`] whose parent is the rung above, so a
//! layer's self time is its rung minus the rung below. The replies of
//! R0, R1 and R2 must be byte-identical. An untraced pass over the same
//! frames against a second daemon gives `trace.overhead_share`.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::Json;
use rdt_rgraph::IncrementalAnalysis;
use rdt_serve::{
    handle_request, parse_request, EnginePool, EventKind, PoolHandle, QueryKind, Request,
    StreamEngine,
};

use crate::daemon::{self_cpu_seconds, Daemon, TempDir, RESULTS_DIR, WORKERS};
use crate::gen::{shard_of, Frame, Script, Workload};
use crate::run::{sat_phase, Metric, Outcome, Session};
use crate::stats::{median, percentile, self_times, sorted, Span, NO_PARENT};

/// Every per-layer metric: name, unit, better. `BENCHMARK.json` lists the
/// same rows (a unit test holds the two together).
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("json.parse_us_per_frame", "us", "lower"),
    ("json.serialize_us_per_reply", "us", "lower"),
    ("json.frame_bytes_per_op", "bytes", "lower"),
    ("json.reply_bytes_per_op", "bytes", "lower"),
    ("json.snapshot_serialize_s", "s", "lower"),
    ("json.snapshot_parse_s", "s", "lower"),
    ("protocol.parse_self_us_per_frame", "us", "lower"),
    ("protocol.error_replies", "count", "lower"),
    ("shard.hop_self_us_per_op", "us", "lower"),
    ("shard.handle_self_us_per_op", "us", "lower"),
    ("shard.busiest_share", "ratio", "lower"),
    ("shard.snapshot_document_s", "s", "lower"),
    ("shard.restore_document_s", "s", "lower"),
    ("engine.wrap_self_us_per_op", "us", "lower"),
    ("rgraph.append_send_us", "us", "lower"),
    ("rgraph.append_send_p99_us", "us", "lower"),
    ("rgraph.append_deliver_us", "us", "lower"),
    ("rgraph.append_deliver_p99_us", "us", "lower"),
    ("rgraph.append_checkpoint_us", "us", "lower"),
    ("rgraph.append_checkpoint_p99_us", "us", "lower"),
    ("rgraph.query_untrackable_us", "us", "lower"),
    ("rgraph.query_untrackable_p99_us", "us", "lower"),
    ("rgraph.query_recovery_line_us", "us", "lower"),
    ("rgraph.query_recovery_line_p99_us", "us", "lower"),
    ("rgraph.query_min_us", "us", "lower"),
    ("rgraph.query_min_p99_us", "us", "lower"),
    ("rgraph.query_max_us", "us", "lower"),
    ("rgraph.query_max_p99_us", "us", "lower"),
    ("rgraph.resident_nodes_peak", "count", "lower"),
    ("rgraph.untrackable_final", "count", "lower"),
    ("rgraph.compact_us_per_call", "us", "lower"),
    ("rgraph.reclaimed_rows_per_call", "count", "higher"),
    ("rgraph.snapshot_json_s", "s", "lower"),
    ("rgraph.restore_s", "s", "lower"),
    ("rgraph.snapshot_bytes_per_stream", "bytes", "lower"),
    ("server.wire_self_us_per_op", "us", "lower"),
    ("server.window_stall_share", "ratio", "lower"),
    ("server.connect_us", "us", "lower"),
    ("server.snapshot_write_s", "s", "lower"),
    ("server.restart_s", "s", "lower"),
    ("daemon.cpu_user_s", "s", "lower"),
    ("daemon.cpu_sys_s", "s", "lower"),
    ("daemon.ctx_switches_per_op", "count", "lower"),
    ("daemon.threads", "count", "lower"),
    ("gen.cpu_share", "ratio", "lower"),
    ("gen.frames_sent", "count", "higher"),
    ("gen.mismatches", "count", "lower"),
    ("rtt.p50_us", "us", "lower"),
    ("rtt.p99_us", "us", "lower"),
    ("rtt.samples", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.r0_us_per_op", "us", "lower"),
    ("share.json", "ratio", "lower"),
    ("share.protocol", "ratio", "lower"),
    ("share.shard", "ratio", "lower"),
    ("share.engine", "ratio", "lower"),
    ("share.rgraph", "ratio", "lower"),
    ("share.server", "ratio", "lower"),
    ("share.snapshot_of_sat", "ratio", "lower"),
    ("trace.frames", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("rgraph.compact_calls", "count", "lower"),
    ("rgraph.streams_final", "count", "lower"),
];

fn metric(name: &str, value: f64) -> Metric {
    crate::run::metric(&PER_LAYER, name, value)
}

/// The span buffer. Disabled while the twins replay the preload, whose
/// calls are not part of any metric.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// Runs `f` as one span under `parent`; returns its result and the
    /// span's index for use as a parent.
    fn time<R>(
        &mut self,
        name: &'static str,
        frame: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.enabled {
            return (f(), NO_PARENT);
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            frame,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (out, self.spans.len() as u32 - 1)
    }
}

struct Stream {
    analysis: IncrementalAnalysis,
    resident: usize,
}

/// Rungs R1–R4 and the counters taken at their boundaries.
struct Ladder {
    tracer: Tracer,
    pool: EnginePool,
    handle: PoolHandle,
    shard: BTreeMap<String, StreamEngine>,
    engines: BTreeMap<String, StreamEngine>,
    analyses: BTreeMap<String, Stream>,
    mismatches: u64,
    error_replies: u64,
    frame_bytes: u64,
    reply_bytes: u64,
    shard_ns: [i64; WORKERS],
    resident: usize,
    resident_peak: usize,
    untrackable_closed: u64,
    reclaimed_rows: u64,
    compact_calls: u64,
    /// Text and stream count of the latest snapshot document of R1.
    snapshot: (String, usize),
}

fn recovery_line(analysis: &IncrementalAnalysis) -> Vec<u32> {
    let n = analysis.num_processes();
    let caps: Vec<u32> = (0..n)
        .map(|p| analysis.last_checkpoint_index(ProcessId::new(p)))
        .collect();
    let mut line = vec![0; n];
    analysis.max_consistent_dominated_into(&caps, &mut line);
    line
}

fn member_ids(members: &[(usize, u32)]) -> Vec<CheckpointId> {
    members
        .iter()
        .map(|&(p, index)| CheckpointId::new(ProcessId::new(p), index))
        .collect()
}

impl Ladder {
    fn new(span_capacity: usize) -> Ladder {
        let pool = EnginePool::new(WORKERS);
        Ladder {
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::with_capacity(span_capacity),
                enabled: false,
            },
            handle: pool.handle(),
            pool,
            shard: BTreeMap::new(),
            engines: BTreeMap::new(),
            analyses: BTreeMap::new(),
            mismatches: 0,
            error_replies: 0,
            frame_bytes: 0,
            reply_bytes: 0,
            shard_ns: [0; WORKERS],
            resident: 0,
            resident_peak: 0,
            untrackable_closed: 0,
            reclaimed_rows: 0,
            compact_calls: 0,
            snapshot: (String::new(), 0),
        }
    }

    /// One frame through R1–R4. `top` is the frame's R0 span and
    /// `daemon_reply` what the daemon answered; both are absent while the
    /// twins replay the preload.
    fn step(&mut self, frame: u32, line: &str, top: u32, daemon_reply: Option<&[u8]>) {
        let bytes = line.as_bytes();
        let t = &mut self.tracer;
        let (parsed, parse_span) = t.time("r1.parse_request", frame, top, || parse_request(bytes));
        t.time("r4.parse_bytes", frame, parse_span, || {
            black_box(Json::parse_bytes(black_box(bytes)).is_ok())
        });
        let Ok(request) = parsed else {
            self.error_replies += 1;
            return;
        };
        if request == Request::Snapshot {
            return self.snapshot_step(frame, top);
        }
        let twin_request = request.clone();
        let handle = &self.handle;
        let (reply1, request_span) =
            t.time("r1.pool_request", frame, top, || handle.request(request));
        let (text1, _) = t.time("r1.reply_to_string", frame, top, || reply1.to_string());
        let shard = &mut self.shard;
        let (reply2, handle_span) = t.time("r2.handle_request", frame, request_span, || {
            handle_request(shard, &twin_request)
        });
        let text2 = reply2.to_string();
        if t.enabled {
            let stream = twin_request.stream().unwrap_or("");
            self.shard_ns[shard_of(stream, WORKERS)] += t.spans[handle_span as usize].duration_ns();
        }
        if let Some(reply0) = daemon_reply {
            self.frame_bytes += bytes.len() as u64 + 1;
            self.reply_bytes += reply0.len() as u64 + 1;
            self.mismatches += u64::from(reply0 != text1.as_bytes() || text1 != text2);
        }
        if reply2.get("ok") != Some(&Json::Bool(true)) {
            // The twins below would reject it too; `min`/`max` would panic.
            self.error_replies += 1;
            return;
        }
        self.engine_rungs(frame, handle_span, &twin_request);
    }

    /// R3 and R4 for a request R2 accepted.
    fn engine_rungs(&mut self, frame: u32, handle_span: u32, request: &Request) {
        let t = &mut self.tracer;
        let (engine, twin) = match request {
            Request::Open { stream, processes } => {
                self.engines
                    .insert(stream.clone(), StreamEngine::new(*processes));
                let analysis = IncrementalAnalysis::new(*processes);
                let resident = analysis.resident_closure_nodes();
                self.resident += resident;
                self.analyses
                    .insert(stream.clone(), Stream { analysis, resident });
                return;
            }
            Request::Close { stream } => {
                self.engines.remove(stream);
                if let Some(closed) = self.analyses.remove(stream) {
                    self.resident -= closed.resident;
                    self.untrackable_closed += closed.analysis.untrackable_pairs();
                }
                return;
            }
            Request::Event { stream, .. }
            | Request::Query { stream, .. }
            | Request::Compact { stream } => {
                match (self.engines.get_mut(stream), self.analyses.get_mut(stream)) {
                    (Some(engine), Some(twin)) => (engine, twin),
                    _ => return,
                }
            }
            Request::Streams | Request::Snapshot | Request::Ping | Request::Shutdown => return,
        };
        let a = &mut twin.analysis;
        match request {
            Request::Event { event, .. } => {
                let (_, up) = t.time("r3.ingest_event", frame, handle_span, || {
                    black_box(engine.ingest_event(event).is_ok())
                });
                match *event {
                    EventKind::Checkpoint { process } => {
                        t.time("r4.append_checkpoint", frame, up, || {
                            black_box(a.try_append_checkpoint(ProcessId::new(process)).is_ok())
                        })
                    }
                    EventKind::Send { from, to } => t.time("r4.append_send", frame, up, || {
                        black_box(
                            a.try_append_send(ProcessId::new(from), ProcessId::new(to))
                                .is_ok(),
                        )
                    }),
                    EventKind::Deliver { message } => {
                        t.time("r4.append_deliver", frame, up, || {
                            black_box(a.try_append_deliver(message).is_ok())
                        })
                    }
                    EventKind::Crash { .. } => t.time("r4.query_recovery_line", frame, up, || {
                        black_box(recovery_line(a)).is_empty()
                    }),
                };
            }
            Request::Query { query, .. } => {
                let (_, up) = t.time("r3.answer_query", frame, handle_span, || {
                    black_box(engine.answer_query(query).is_ok())
                });
                match query {
                    QueryKind::Untrackable => t.time("r4.query_untrackable", frame, up, || {
                        black_box(a.untrackable_pairs()) == 0
                    }),
                    QueryKind::RecoveryLine => t.time("r4.query_recovery_line", frame, up, || {
                        black_box(recovery_line(a)).is_empty()
                    }),
                    QueryKind::MinConsistent(members) => {
                        let ids = member_ids(members);
                        t.time("r4.query_min", frame, up, || {
                            black_box(a.min_consistent_containing(&ids)).is_some()
                        })
                    }
                    QueryKind::MaxConsistent(members) => {
                        let ids = member_ids(members);
                        t.time("r4.query_max", frame, up, || {
                            black_box(a.max_consistent_containing(&ids)).is_some()
                        })
                    }
                };
            }
            Request::Compact { .. } => {
                let (_, up) = t.time("r3.compact", frame, handle_span, || {
                    black_box(engine.compact()).len()
                });
                let before = a.reclaimed_rows();
                t.time("r4.compact", frame, up, || {
                    black_box(a.compact_to_recovery_line()).dropped_nodes()
                });
                if t.enabled {
                    self.reclaimed_rows += a.reclaimed_rows() - before;
                    self.compact_calls += 1;
                }
            }
            _ => {}
        }
        let resident = a.resident_closure_nodes();
        self.resident = self.resident - twin.resident + resident;
        twin.resident = resident;
        self.resident_peak = self.resident_peak.max(self.resident);
    }

    /// The twins' side of a `snapshot` op: what `persist_snapshot` calls
    /// before it writes the file.
    fn snapshot_step(&mut self, frame: u32, top: u32) {
        let t = &mut self.tracer;
        let handle = &self.handle;
        let (document, document_span) = t.time("r1.snapshot_document", frame, top, || {
            handle.snapshot_document()
        });
        let Ok(document) = document else {
            self.error_replies += 1;
            return;
        };
        let (text, _) = t.time("r1.snapshot_to_string", frame, top, || document.to_string());
        let engines = &self.engines;
        t.time("r3.stream_snapshot", frame, document_span, || {
            for (name, engine) in engines {
                black_box(engine.stream_snapshot(name));
            }
        });
        self.snapshot = (text, self.engines.len());
    }
}

/// Depth-1 round trips of the first `count` frames of the workload,
/// alternating over its connections; `each` sees every frame, its
/// connection's reply and the start and end of the round trip in ns
/// since `epoch`.
fn replay(
    session: &mut Session,
    epoch: Instant,
    frames: &[(usize, Frame)],
    mut each: impl FnMut(u32, &Frame, &[u8], u64, u64),
) -> Result<(), String> {
    let mut reply = Vec::new();
    for (id, (conn, frame)) in frames.iter().enumerate() {
        let start = epoch.elapsed();
        session.conns[*conn].roundtrip(&frame.line, &mut reply)?;
        let end = epoch.elapsed();
        each(
            id as u32,
            frame,
            &reply,
            start.as_nanos() as u64,
            end.as_nanos() as u64,
        );
    }
    Ok(())
}

/// The workload's script as one frame sequence: `count` frames taken
/// round-robin over the connections, then the epilogue of connection 0
/// and one `snapshot`.
fn trace_frames(session: &mut Session, count: usize) -> Vec<(usize, Frame)> {
    let conns = session.scripts.len();
    let mut frames: Vec<(usize, Frame)> = (0..count)
        .map(|i| (i % conns, session.scripts[i % conns].next_frame()))
        .collect();
    frames.extend(session.scripts[0].epilogue().into_iter().map(|f| (0, f)));
    frames.push((0, Frame::snapshot()));
    frames
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut out = BufWriter::new(fs::File::create(path).map_err(io)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","frame_id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.frame, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

/// Per span name: durations and self times in µs.
struct Timings {
    duration: BTreeMap<&'static str, Vec<f64>>,
    own: BTreeMap<&'static str, Vec<f64>>,
}

impl Timings {
    fn new(spans: &[Span]) -> Timings {
        let mut timings = Timings {
            duration: BTreeMap::new(),
            own: BTreeMap::new(),
        };
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let us = |ns: i64| ns as f64 / 1e3;
            timings
                .duration
                .entry(span.name)
                .or_default()
                .push(us(span.duration_ns()));
            timings.own.entry(span.name).or_default().push(us(own));
        }
        timings
    }

    fn of<'a>(
        map: &'a BTreeMap<&'static str, Vec<f64>>,
        names: &'a [&str],
    ) -> impl Iterator<Item = f64> + 'a {
        names.iter().filter_map(|n| map.get(n)).flatten().copied()
    }

    fn median_own(&self, names: &[&str]) -> f64 {
        median(&Self::of(&self.own, names).collect::<Vec<_>>())
    }

    fn sum_own(&self, names: &[&str]) -> f64 {
        Self::of(&self.own, names).sum()
    }

    fn median_duration(&self, names: &[&str]) -> f64 {
        median(&Self::of(&self.duration, names).collect::<Vec<_>>())
    }

    fn p99_duration(&self, names: &[&str]) -> f64 {
        percentile(&sorted(Self::of(&self.duration, names).collect()), 0.99)
    }

    fn sum_duration(&self, names: &[&str]) -> f64 {
        Self::of(&self.duration, names).sum()
    }
}

const R4_CALLS: [&str; 8] = [
    "r4.append_send",
    "r4.append_deliver",
    "r4.append_checkpoint",
    "r4.query_untrackable",
    "r4.query_recovery_line",
    "r4.query_min",
    "r4.query_max",
    "r4.compact",
];
const R3_CALLS: [&str; 3] = ["r3.ingest_event", "r3.answer_query", "r3.compact"];

pub fn run_traced(w: &'static Workload, seed: u64, quick: bool) -> Result<Outcome, String> {
    let dir = TempDir::new(&format!("{}-trace", w.name))?;
    let mut outcome = Outcome::default();
    let count = if quick {
        w.trace_frames / 10
    } else {
        w.trace_frames
    };

    // Pass A, untraced: the same frames with no twin and no span.
    let generator_cpu = self_cpu_seconds();
    let generator_wall = Instant::now();
    let (mut reference, attempted, failed) = Session::setup(w, seed, &dir.0)?;
    outcome.count(attempted, failed);
    let frames = trace_frames(&mut reference, count);
    let mut untraced_us = Vec::with_capacity(frames.len());
    let mut failed = 0;
    replay(
        &mut reference,
        Instant::now(),
        &frames,
        |_, frame, reply, start, end| {
            failed += u64::from(!frame.expect.matches(reply));
            untraced_us.push((end - start) as f64 / 1e3);
        },
    )?;
    outcome.count(frames.len() as u64, failed);
    let sat = reference.on_all(|c, s| sat_phase(c, s, Duration::from_secs(1)))?;
    let sat_elapsed: f64 = sat.iter().map(|p| p.elapsed).sum::<f64>() / sat.len() as f64;
    let windows: u64 = sat.iter().map(|p| p.windows).sum();
    let stalled: u64 = sat.iter().map(|p| p.stalled_windows).sum();
    for phase in &sat {
        outcome.count(phase.ops, phase.failed);
    }
    let generator_share = (self_cpu_seconds() - generator_cpu)
        / generator_wall.elapsed().as_secs_f64()
        / w.conns as f64;
    drop(reference);

    // Pass B, traced: the ladder.
    let (mut session, attempted, failed) = Session::setup(w, seed, &dir.0)?;
    outcome.count(attempted, failed);
    let mut connects = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        drop(session.daemon.connect()?);
        connects.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut ladder = Ladder::new(12 * (count + 64));
    for conn in 0..w.conns {
        for frame in Script::new(w, seed, conn).preload() {
            ladder.step(0, &frame.line, NO_PARENT, None);
        }
    }
    ladder.tracer.enabled = true;
    ladder.error_replies = 0;
    ladder.resident_peak = ladder.resident;

    let frames = trace_frames(&mut session, count);
    let (user_before, sys_before) = session.daemon.cpu_seconds();
    let (_, switches_before) = session.daemon.threads_and_switches();
    let mut failed = 0;
    let mut script_spans = 0;
    replay(
        &mut session,
        ladder.tracer.epoch,
        &frames,
        |id, frame, reply, start_ns, end_ns| {
            if id as usize == count {
                script_spans = ladder.tracer.spans.len(); // The epilogue starts here.
            }
            failed += u64::from(!frame.expect.matches(reply));
            let name = if frame.is_snapshot() {
                "r0.snapshot"
            } else {
                "r0.roundtrip"
            };
            ladder.tracer.spans.push(Span {
                name,
                frame: id,
                parent: NO_PARENT,
                start_ns,
                end_ns,
            });
            let top = ladder.tracer.spans.len() as u32 - 1;
            ladder.step(id, &frame.line, top, Some(reply));
        },
    )?;
    outcome.count(frames.len() as u64, failed);
    let (user_after, sys_after) = session.daemon.cpu_seconds();
    let (threads, switches_after) = session.daemon.threads_and_switches();

    // Restart: the daemon against the twins' parse + restore.
    let end_frame = frames.len() as u32;
    let queries = session.scripts[0].query_set();
    let mut reply = Vec::new();
    let mut before = Vec::new();
    for query in &queries {
        session.conns[0].roundtrip(query, &mut reply)?;
        before.push(reply.clone());
    }
    let t = &mut ladder.tracer;
    let (shutdown, _) = t.time("r0.shutdown", end_frame, NO_PARENT, || {
        session.conns[0].roundtrip(r#"{"op":"shutdown"}"#, &mut reply)
    });
    shutdown?;
    session.conns.clear();
    let daemon = &mut session.daemon;
    let (restarted, restart_span) = t.time("r0.restart", end_frame, NO_PARENT, || {
        daemon.wait_exit()?;
        *daemon = Daemon::spawn(w.transport, &dir.0)?;
        let mut conn = daemon.connect()?;
        conn.roundtrip(r#"{"op":"ping"}"#, &mut reply)?;
        Ok::<_, String>(conn)
    });
    let mut conn = restarted?;
    let text = ladder.snapshot.0.as_bytes();
    let (parsed, _) = t.time("r1.snapshot_parse", end_frame, restart_span, || {
        Json::parse_bytes(text)
    });
    let parsed = parsed.map_err(|e| format!("the twins' snapshot does not parse: {e}"))?;
    let restored_pool = EnginePool::new(WORKERS);
    let restored = restored_pool.handle();
    let (installed, restore_span) = t.time("r1.restore_document", end_frame, restart_span, || {
        restored.restore_document(&parsed, WORKERS)
    });
    let entries = parsed
        .get("streams")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    t.time("r3.from_stream_snapshot", end_frame, restore_span, || {
        for entry in entries {
            black_box(StreamEngine::from_stream_snapshot(entry).is_ok());
        }
    });
    let mut failed = u64::from(installed != Ok(ladder.snapshot.1));
    for (query, before) in queries.iter().zip(&before) {
        conn.roundtrip(query, &mut reply)?;
        let request = parse_request(query.as_bytes()).map_err(|e| e.to_string())?;
        let twin = restored.request(request).to_string();
        failed += u64::from(&reply != before || reply != twin.as_bytes());
    }
    outcome.count(2 * queries.len() as u64 + 1, failed);
    ladder.mismatches += failed;
    restored_pool.join();
    drop(session);

    let Ladder {
        tracer,
        pool,
        analyses,
        ..
    } = ladder;
    pool.join();
    fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("creating {RESULTS_DIR}: {e}"))?;
    let trace_path = Path::new(RESULTS_DIR).join(format!("trace-{}.jsonl", w.name));
    write_spans(&trace_path, &tracer.spans)?;
    outcome.failed += ladder.mismatches + ladder.error_replies;

    // Layers from spans.
    //
    // The ladder's own R0 pays for the twins: they run on the daemon's
    // CPU between two of its requests and evict its working set from the
    // caches, so the traced round trip is slower than the untraced one
    // (`trace.overhead_share`). The top rung of the
    // accounts is therefore pass A's round trip of the same frame: shares
    // are of Σ untraced R0 and the wire residual is untraced R0 − Σ R1,
    // both over the script's frames without its `snapshot` ops, which
    // have rungs and metrics of their own.
    let spans = &tracer.spans;
    let script = Timings::new(&spans[..script_spans]);
    let ops = frames.len() as f64;
    let script_ops = |us: &[f64]| -> Vec<f64> {
        let plain = |&(_, (_, frame)): &(&f64, &(usize, Frame))| !frame.is_snapshot();
        us.iter()
            .zip(&frames)
            .take(count)
            .filter(plain)
            .map(|(us, _)| *us)
            .collect()
    };
    let mut wire_us = untraced_us.clone();
    let untraced_us = script_ops(&untraced_us);
    let r0_total: f64 = untraced_us.iter().sum();
    let share = |names: &[&str]| script.sum_own(names) / r0_total;
    let mut traced_r0 = Vec::with_capacity(count);
    for span in &spans[..script_spans] {
        let us = span.duration_ns() as f64 / 1e3;
        match span.name {
            "r0.roundtrip" => traced_r0.push(us),
            "r1.parse_request" | "r1.pool_request" | "r1.reply_to_string" => {
                wire_us[span.frame as usize] -= us
            }
            _ => {}
        }
    }
    let wire_us = script_ops(&wire_us);
    let timings = Timings::new(spans);
    let untraced_p50 = median(&untraced_us);
    let seconds = |names: &[&str]| timings.median_duration(names) / 1e6;
    let snapshot_s = seconds(&["r0.snapshot"]);
    let document_s = seconds(&["r1.snapshot_document"]);
    let serialize_s = seconds(&["r1.snapshot_to_string"]);
    let parse_s = seconds(&["r1.snapshot_parse"]);
    let restore_s = seconds(&["r1.restore_document"]);
    let untrackable: u64 = analyses
        .values()
        .map(|s| s.analysis.untrackable_pairs())
        .sum();
    let mut metrics: Vec<Metric> = vec![
        metric(
            "json.parse_us_per_frame",
            timings.median_duration(&["r4.parse_bytes"]),
        ),
        metric(
            "json.serialize_us_per_reply",
            timings.median_duration(&["r1.reply_to_string"]),
        ),
        metric("json.frame_bytes_per_op", ladder.frame_bytes as f64 / ops),
        metric("json.reply_bytes_per_op", ladder.reply_bytes as f64 / ops),
        metric("json.snapshot_serialize_s", serialize_s),
        metric("json.snapshot_parse_s", parse_s),
        metric(
            "protocol.parse_self_us_per_frame",
            timings.median_own(&["r1.parse_request"]),
        ),
        metric("protocol.error_replies", ladder.error_replies as f64),
        metric(
            "shard.hop_self_us_per_op",
            timings.median_own(&["r1.pool_request"]),
        ),
        metric(
            "shard.handle_self_us_per_op",
            timings.median_own(&["r2.handle_request"]),
        ),
        metric(
            "shard.busiest_share",
            *ladder.shard_ns.iter().max().expect("WORKERS > 0") as f64
                / ladder.shard_ns.iter().sum::<i64>().max(1) as f64,
        ),
        metric("shard.snapshot_document_s", document_s),
        metric("shard.restore_document_s", restore_s),
        metric("engine.wrap_self_us_per_op", timings.median_own(&R3_CALLS)),
    ];
    for (name, p99, span) in [
        (
            "rgraph.append_send_us",
            "rgraph.append_send_p99_us",
            "r4.append_send",
        ),
        (
            "rgraph.append_deliver_us",
            "rgraph.append_deliver_p99_us",
            "r4.append_deliver",
        ),
        (
            "rgraph.append_checkpoint_us",
            "rgraph.append_checkpoint_p99_us",
            "r4.append_checkpoint",
        ),
        (
            "rgraph.query_untrackable_us",
            "rgraph.query_untrackable_p99_us",
            "r4.query_untrackable",
        ),
        (
            "rgraph.query_recovery_line_us",
            "rgraph.query_recovery_line_p99_us",
            "r4.query_recovery_line",
        ),
        (
            "rgraph.query_min_us",
            "rgraph.query_min_p99_us",
            "r4.query_min",
        ),
        (
            "rgraph.query_max_us",
            "rgraph.query_max_p99_us",
            "r4.query_max",
        ),
    ] {
        metrics.push(metric(name, timings.median_duration(&[span])));
        metrics.push(metric(p99, timings.p99_duration(&[span])));
    }
    metrics.extend([
        metric("rgraph.resident_nodes_peak", ladder.resident_peak as f64),
        metric(
            "rgraph.untrackable_final",
            (untrackable + ladder.untrackable_closed) as f64,
        ),
        metric(
            "rgraph.compact_us_per_call",
            timings.sum_duration(&["r4.compact"]) / ladder.compact_calls.max(1) as f64,
        ),
        metric(
            "rgraph.reclaimed_rows_per_call",
            ladder.reclaimed_rows as f64 / ladder.compact_calls.max(1) as f64,
        ),
        metric("rgraph.snapshot_json_s", seconds(&["r3.stream_snapshot"])),
        metric("rgraph.restore_s", seconds(&["r3.from_stream_snapshot"])),
        metric(
            "rgraph.snapshot_bytes_per_stream",
            ladder.snapshot.0.len() as f64 / ladder.snapshot.1.max(1) as f64,
        ),
        metric("server.wire_self_us_per_op", median(&wire_us)),
        metric(
            "server.window_stall_share",
            stalled as f64 / windows.max(1) as f64,
        ),
        metric("server.connect_us", median(&connects)),
        metric(
            "server.snapshot_write_s",
            snapshot_s - document_s - serialize_s,
        ),
        metric(
            "server.restart_s",
            seconds(&["r0.restart"]) - parse_s - restore_s,
        ),
        metric("daemon.cpu_user_s", user_after - user_before),
        metric("daemon.cpu_sys_s", sys_after - sys_before),
        metric(
            "daemon.ctx_switches_per_op",
            switches_after.saturating_sub(switches_before) as f64 / ops,
        ),
        metric("daemon.threads", threads as f64),
        metric("gen.cpu_share", generator_share),
        metric("gen.frames_sent", outcome.attempted as f64),
        metric("gen.mismatches", ladder.mismatches as f64),
        metric("rtt.p50_us", untraced_p50),
        metric("rtt.p99_us", percentile(&sorted(untraced_us.clone()), 0.99)),
        metric("rtt.samples", untraced_us.len() as f64),
        metric(
            "trace.overhead_share",
            (median(&traced_r0) - untraced_p50) / untraced_p50,
        ),
        metric("trace.r0_us_per_op", median(&traced_r0)),
        metric(
            "share.json",
            share(&["r4.parse_bytes", "r1.reply_to_string"]),
        ),
        metric("share.protocol", share(&["r1.parse_request"])),
        metric(
            "share.shard",
            share(&["r1.pool_request", "r2.handle_request"]),
        ),
        metric("share.engine", share(&R3_CALLS)),
        metric("share.rgraph", share(&R4_CALLS)),
        metric("share.server", wire_us.iter().sum::<f64>() / r0_total),
        // Pass A's sat phase is the denominator: the snapshot ops it
        // contains cost what the ladder's cost, as many as it had.
        metric(
            "share.snapshot_of_sat",
            w.snapshot_every.map_or(0.0, |every| {
                let in_sat = sat.iter().map(|p| p.ops).sum::<u64>() / every;
                in_sat as f64 * snapshot_s / sat_elapsed
            }),
        ),
        metric("trace.frames", ops),
        metric("trace.spans", spans.len() as f64),
        metric("rgraph.compact_calls", ladder.compact_calls as f64),
        metric("rgraph.streams_final", analyses.len() as f64),
    ]);
    println!(
        "{}: seed {seed}, traced ladder over {count} frames + epilogue, {} spans in {}",
        w.name,
        spans.len(),
        trace_path.display()
    );
    if generator_share > 0.6 {
        println!("  note: gen.cpu_share {generator_share:.2} > 0.6 of a core per connection: this run measures the generator");
    }
    assert_eq!(
        metrics.len(),
        PER_LAYER.len(),
        "every declared per-layer metric is reported"
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        for (i, (name, ..)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[i + 1..].iter().all(|(other, ..)| other != name),
                "{name}"
            );
        }
    }
}
