//! The traced run: the same seeded op stream replayed at each layer's
//! public entry point, every leg on a fresh copy of the set-up store with
//! the same policy, two closed-loop clients per leg.
//!
//! | leg        | entry point                                      |
//! |------------|--------------------------------------------------|
//! | tcp        | client round trip to the live `TcpServer`        |
//! | dispatch   | `Dispatcher::handle_frame` on the decoded frames |
//! | store      | the same ops as `GdprStore` calls                |
//! | engine     | data reads and writes only, `KvStore::execute`   |
//! | unmodified | the same data ops on an in-memory engine         |
//!
//! Every leg's time is normalised by the number of ops in the stream, so
//! layer self times are differences between legs and sum exactly to the
//! tcp leg. Spans are recorded in memory around each call into a layer
//! and written to `.bench_out/` when the run ends. Counts come from the
//! program's public stats and a timing wrapper around the audit sink.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_server::dispatch::{Dispatcher, Session};
use kvstore::commands::Command;
use kvstore::config::StoreConfig;
use kvstore::stats::EngineStats;
use kvstore::store::KvStore;
use kvstore::ttl_wheel::DeadlineIndexKind;
use resp::command::GdprRequest;
use resp::decode::decode_one;
use resp::encode::encode_frame;
use resp::Frame;

use crate::drive::{closed_loop, Plan, Source, Tally};
use crate::gen::make_value;
use crate::ops::{Call, Class, Op, WriteLog, YCSB_RECORDS};
use crate::stack::{copy_dir, kv_config, open_store, serve, SinkCells, Workload};
use crate::{generators, metric, set_up, Metric, Report};

/// Rounds per client per leg for a 15-second run (scaled by `--seconds`).
fn rounds_per_leg(w: Workload, seconds: u64) -> usize {
    let base = match w {
        Workload::YcsbAStrict => 300,
        Workload::ProcessorEventual => 3000,
        Workload::CustomerStrict => 40,
    };
    (base * seconds as usize / 15).max(1)
}

/// Writes and rights calls made by the probes on workloads whose stream
/// has none, so every layer reports a cost on every workload.
const PROBE_WRITES: usize = 400;
const PROBE_SUBJECTS: usize = 20;
const PROBE_ERASES: usize = 4;

/// One span: a call into a layer. Spans of one request share `req`
/// (client << 32 | index in its stream) across legs.
struct Span {
    req: u64,
    leg: &'static str,
    name: &'static str,
    parent: &'static str,
    start: u64,
    end: u64,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn push(
        &mut self,
        req: u64,
        leg: &'static str,
        name: &'static str,
        parent: &'static str,
        start: u64,
        end: u64,
    ) {
        self.0.push(Span {
            req,
            leg,
            name,
            parent,
            start,
            end,
        });
    }
}

fn req_id(conn: usize, idx: usize) -> u64 {
    ((conn as u64) << 32) | idx as u64
}

/// Per-leg accumulation: total time per named part, plus per-class time
/// and items for the rights calls.
#[derive(Default)]
struct LegAcc {
    parts: BTreeMap<&'static str, u64>,
    class_ns: BTreeMap<Class, u64>,
    class_calls: BTreeMap<Class, u64>,
    class_items: BTreeMap<Class, u64>,
    class_bytes: BTreeMap<Class, u64>,
    spans: Spans,
    tally: Tally,
}

impl LegAcc {
    fn add(&mut self, part: &'static str, ns: u64) {
        *self.parts.entry(part).or_default() += ns;
    }

    fn part(&self, part: &str) -> u64 {
        self.parts.get(part).copied().unwrap_or(0)
    }

    fn merge(&mut self, other: LegAcc) {
        for (k, v) in other.parts {
            *self.parts.entry(k).or_default() += v;
        }
        for (map, theirs) in [
            (&mut self.class_ns, other.class_ns),
            (&mut self.class_calls, other.class_calls),
            (&mut self.class_items, other.class_items),
            (&mut self.class_bytes, other.class_bytes),
        ] {
            for (k, v) in theirs {
                *map.entry(k).or_default() += v;
            }
        }
        self.spans.0.extend(other.spans.0);
        self.tally.merge(&other.tally);
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run `exec` over each client's stream on its own thread.
fn in_process_leg<E>(streams: &[Vec<Op>], make: impl Fn(usize) -> E + Sync) -> LegAcc
where
    E: FnMut(usize, &Op, &mut LegAcc),
{
    let accs: Vec<LegAcc> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, ops)| {
                let make = &make;
                scope.spawn(move || {
                    let mut exec = make(conn);
                    let mut acc = LegAcc::default();
                    for (idx, op) in ops.iter().enumerate() {
                        exec(idx, op, &mut acc);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("leg thread panicked"))
            .collect()
    });
    let mut total = LegAcc::default();
    for acc in accs {
        total.merge(acc);
    }
    total
}

/// The store-level equivalent of each call, with the reply rendered as
/// the frame the dispatcher would send (enough for the model's checks).
fn store_call(store: &GdprStore, ctx: &AccessContext, call: &Call) -> (Frame, u64) {
    fn err(e: impl std::fmt::Display) -> Frame {
        Frame::Error(e.to_string())
    }
    let ok = || Frame::Simple("OK".to_string());
    let list = |items: Vec<String>| Frame::Array(items.into_iter().map(Frame::bulk).collect());
    match call {
        Call::Get(key) => match store.get(ctx, key) {
            Ok(Some(v)) => (Frame::Bulk(v), 0),
            Ok(None) => (Frame::Null, 0),
            Err(e) => (err(e), 0),
        },
        Call::Set(key, value) => {
            let meta = PersonalMetadata::new(key).with_purpose(&ctx.purpose);
            match store.put(ctx, key, value.clone(), meta) {
                Ok(()) => (ok(), 0),
                Err(e) => (err(e), 0),
            }
        }
        Call::Put {
            key,
            subject,
            purposes,
            value,
            ttl_ms,
        } => {
            let mut meta = PersonalMetadata::new(subject);
            for p in purposes {
                meta.purposes.insert(p.clone());
            }
            if let Some(ttl) = ttl_ms {
                meta = meta.with_ttl_millis(*ttl);
            }
            match store.put(ctx, key, value.clone(), meta) {
                Ok(()) => (ok(), 0),
                Err(e) => (err(e), 0),
            }
        }
        Call::GetMeta(key) => match store.metadata(ctx, key) {
            Ok(Some(meta)) => {
                let join = |s: &std::collections::BTreeSet<String>| {
                    s.iter().cloned().collect::<Vec<_>>().join(",")
                };
                (
                    list(vec![
                        format!("subject={}", meta.subject),
                        format!("purposes={}", join(&meta.purposes)),
                        format!("objections={}", join(&meta.objections)),
                    ]),
                    0,
                )
            }
            Ok(None) => (Frame::Null, 0),
            Err(e) => (err(e), 0),
        },
        Call::KeysOf(subject) => match store.keys_of_subject(subject) {
            Ok(keys) => {
                let n = keys.len() as u64;
                (list(keys), n)
            }
            Err(e) => (err(e), 0),
        },
        Call::Export(subject) => match store.right_to_portability(ctx, subject) {
            Ok(json) => (Frame::Bulk(json.into_bytes()), 0),
            Err(e) => (err(e), 0),
        },
        Call::Object(subject, purpose) => match store.right_to_object(ctx, subject, purpose) {
            Ok(report) => (Frame::Integer(report.updated_keys.len() as i64), 0),
            Err(e) => (err(e), 0),
        },
        Call::Erase(subject) => match store.right_to_erasure(ctx, subject) {
            Ok(report) => {
                let n = report.erased_keys.len() as u64;
                (Frame::Integer(n as i64), n)
            }
            Err(e) => (err(e), 0),
        },
        Call::Stats => (
            list(vec![format!(
                "erased_by_retention={}",
                store.stats().erased_by_retention
            )]),
            0,
        ),
    }
}

/// The engine-level data command of a call, if it has one. (Stream
/// writes carry no retention; only the set-up's lapsed records do.)
fn engine_command(call: &Call) -> Option<Command> {
    match call {
        Call::Get(key) => Some(Command::Get { key: key.clone() }),
        Call::Set(key, value) | Call::Put { key, value, .. } => Some(Command::Set {
            key: key.clone(),
            value: value.clone(),
        }),
        _ => None,
    }
}

fn engine_leg(kv: &KvStore, streams: &[Vec<Op>], leg: &'static str, epoch: Instant) -> LegAcc {
    in_process_leg(streams, |conn| {
        move |idx: usize, op: &Op, acc: &mut LegAcc| {
            let Some(cmd) = engine_command(&op.call) else {
                return;
            };
            let start = ns_since(epoch);
            let _ = std::hint::black_box(kv.execute(cmd));
            let end = ns_since(epoch);
            acc.add(leg, end - start);
            acc.spans.push(req_id(conn, idx), leg, leg, "", start, end);
        }
    })
}

/// A snapshot of every counter the trace reads from the program.
struct Counters {
    gdpr: gdpr_core::store::GdprStats,
    engine: EngineStats,
    sink: [u64; 5],
    lock_hold_us: u128,
    commit_wait_us: u128,
}

fn counters(store: &GdprStore, sink: &SinkCells) -> Counters {
    let stages = store.engine().stage_latencies();
    let sum = |name: &str| {
        stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, h)| h.sum_micros())
    };
    Counters {
        gdpr: store.stats(),
        engine: store.engine().stats(),
        sink: sink.snapshot(),
        lock_hold_us: sum("shard_lock_hold"),
        commit_wait_us: sum("aof_commit_wait"),
    }
}

/// Counter differences over a stretch of work.
struct Delta {
    denied: f64,
    cache_hits: f64,
    cache_misses: f64,
    cache_admissions: f64,
    cache_invalidations: f64,
    commands: f64,
    aof_records: f64,
    aof_bytes: f64,
    fsyncs: f64,
    rewrites: f64,
    device_logical: f64,
    device_physical: f64,
    sink: [f64; 5],
    lock_hold_us: f64,
    commit_wait_us: f64,
}

fn delta(a: &Counters, b: &Counters) -> Delta {
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    Delta {
        denied: d(a.gdpr.denied_ops, b.gdpr.denied_ops),
        cache_hits: d(a.gdpr.cache_hits, b.gdpr.cache_hits),
        cache_misses: d(a.gdpr.cache_misses, b.gdpr.cache_misses),
        cache_admissions: d(a.gdpr.cache_admissions, b.gdpr.cache_admissions),
        cache_invalidations: d(a.gdpr.cache_invalidations, b.gdpr.cache_invalidations),
        commands: d(a.engine.commands_processed, b.engine.commands_processed),
        aof_records: d(a.engine.aof.records_appended, b.engine.aof.records_appended),
        aof_bytes: d(a.engine.aof.bytes_appended, b.engine.aof.bytes_appended),
        fsyncs: d(a.engine.aof.fsyncs, b.engine.aof.fsyncs),
        rewrites: d(a.engine.aof.rewrites, b.engine.aof.rewrites),
        device_logical: d(a.engine.device.bytes_written, b.engine.device.bytes_written),
        device_physical: d(
            a.engine.device.bytes_on_device,
            b.engine.device.bytes_on_device,
        ),
        sink: std::array::from_fn(|i| d(a.sink[i], b.sink[i])),
        lock_hold_us: (b.lock_hold_us.saturating_sub(a.lock_hold_us)) as f64,
        commit_wait_us: (b.commit_wait_us.saturating_sub(a.commit_wait_us)) as f64,
    }
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// Subjects the rights probes use on workloads whose stream has none.
fn probe_subjects(w: Workload) -> Vec<String> {
    (0..PROBE_SUBJECTS)
        .map(|i| match w {
            Workload::YcsbAStrict => crate::ops::ycsb_key(i * 997 % YCSB_RECORDS),
            _ => format!("ps{}", i * 331),
        })
        .collect()
}

/// The cost of recording one span, measured on this host.
fn span_cost_ns() -> f64 {
    let mut spans = Spans::default();
    let epoch = Instant::now();
    let n = 200_000;
    let started = Instant::now();
    for i in 0..n {
        let start = ns_since(epoch);
        let end = ns_since(epoch);
        spans.push(i, "x", "y", "", start, end);
    }
    std::hint::black_box(&spans.0);
    started.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(w: Workload, seed: u64, seconds: u64, root: &Path) -> Result<Report, String> {
    let setup = set_up(w, seed, root, false)?;
    let template = setup.dir.clone();
    let epoch = Instant::now();

    // The stream: the first rounds each client of the timed run sends.
    let (mut gens, _) = generators(w, seed);
    let rounds = rounds_per_leg(w, seconds);
    let streams: Vec<Vec<Op>> = gens
        .iter_mut()
        .map(|g| (0..rounds).flat_map(|_| g.next_round()).collect())
        .collect();
    let ops = streams.iter().map(Vec::len).sum::<usize>() as f64;
    let writes = streams
        .iter()
        .flatten()
        .filter(|op| op.class.is_write())
        .count() as f64;
    let erases = streams
        .iter()
        .flatten()
        .filter(|op| op.class == Class::Erase)
        .count() as f64;
    let fresh_log = || (w == Workload::YcsbAStrict).then(|| Arc::new(WriteLog::new(YCSB_RECORDS)));
    let wait_for_lapsed = || {
        let ready = setup.load_started + Duration::from_millis(crate::ops::LAPSED_TTL_MS + 1000);
        if let Some(wait) = ready.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    };

    // ---- tcp leg -------------------------------------------------------
    let dir = root.join("leg-tcp");
    copy_dir(&template, &dir);
    let (store, sink) = open_store(w, &dir, "audit.log");
    let store = Arc::new(store);
    let server = serve(Arc::clone(&store));
    wait_for_lapsed();
    let before = counters(&store, &sink);
    let plan = Plan {
        addr: server.local_addr(),
        auth: w.client_auth(),
        epoch,
    };
    let tcp = closed_loop(
        &plan,
        streams.iter().cloned().map(Source::Fixed).collect(),
        0.0,
        fresh_log(),
    )
    .tally;
    let after = counters(&store, &sink);
    let tcp_delta = delta(&before, &after);
    let engine_keys = store.engine().len() as f64;
    let records = store.len() as f64;
    let mem_bytes = after.engine.db.mem_bytes as f64;
    server.shutdown();
    let t = Instant::now();
    store
        .rebuild_index()
        .map_err(|e| format!("rebuild index: {e}"))?;
    let index_rebuild_s = t.elapsed().as_secs_f64();
    crate::close(store);
    let mut spans = Spans::default();
    let mut tcp_ns = 0u64;
    for &(conn, idx, start, end, client) in &tcp.op_spans {
        tcp_ns += end - start;
        spans.push(req_id(conn, idx), "tcp", "tcp.roundtrip", "", start, end);
        spans.push(
            req_id(conn, idx),
            "tcp",
            "client",
            "tcp.roundtrip",
            start,
            start + client,
        );
    }

    // ---- dispatch leg --------------------------------------------------
    let dir = root.join("leg-dispatch");
    copy_dir(&template, &dir);
    let (store, _) = open_store(w, &dir, "audit.log");
    let dispatcher = Dispatcher::gdpr(Arc::new(store));
    let (actor, purpose) = w.client_auth();
    let log = fresh_log();
    let mut dispatch = in_process_leg(&streams, |conn| {
        let mut session = Session::new();
        let auth = GdprRequest::Auth {
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
        .to_frame();
        let _ = dispatcher.handle_frame(&auth, &mut session);
        let dispatcher = &dispatcher;
        let log = log.clone();
        move |idx: usize, op: &Op, acc: &mut LegAcc| {
            let request = encode_frame(&op.call.frame());
            let req = req_id(conn, idx);
            if let (Some(log), Some((key, version))) = (&log, op.logged) {
                log.sent(key, version, ns_since(epoch));
            }
            let t0 = ns_since(epoch);
            let frame = decode_one(&request).expect("request frames decode");
            let t1 = ns_since(epoch);
            let reply = dispatcher.handle_frame(&frame, &mut session);
            let t2 = ns_since(epoch);
            let bytes = encode_frame(&reply);
            let t3 = ns_since(epoch);
            if let (Some(log), Some((key, version)), Frame::Simple(_)) = (&log, op.logged, &reply) {
                log.acked(key, version, t3);
            }
            std::hint::black_box(&bytes);
            acc.add("resp.decode", t1 - t0);
            acc.add("dispatch", t2 - t1);
            acc.add("resp.encode", t3 - t2);
            acc.add("wire_bytes", (request.len() + bytes.len()) as u64);
            acc.spans.push(req, "dispatch", "resp.decode", "", t0, t1);
            acc.spans.push(req, "dispatch", "dispatch", "", t1, t2);
            acc.spans.push(req, "dispatch", "resp.encode", "", t2, t3);
            acc.tally.judge(op, Ok(&reply), t0, t2 - t1, log.as_deref());
        }
    });
    drop(dispatcher);

    // ---- store leg -----------------------------------------------------
    let dir = root.join("leg-store");
    copy_dir(&template, &dir);
    let (store, sink) = open_store(w, &dir, "audit.log");
    let ctx = AccessContext::new(actor, purpose);
    let log = fresh_log();
    let mut store_acc = in_process_leg(&streams, |conn| {
        let (store, ctx, log) = (&store, &ctx, log.clone());
        move |idx: usize, op: &Op, acc: &mut LegAcc| {
            if let (Some(log), Some((key, version))) = (&log, op.logged) {
                log.sent(key, version, ns_since(epoch));
            }
            let t0 = ns_since(epoch);
            let (reply, items) = store_call(store, ctx, &op.call);
            let t1 = ns_since(epoch);
            if let (Some(log), Some((key, version)), Frame::Simple(_)) = (&log, op.logged, &reply) {
                log.acked(key, version, t1);
            }
            if op.class == Class::Export {
                if let Frame::Bulk(json) = &reply {
                    let n = crate::ops::export_items(&String::from_utf8_lossy(json))
                        .map_or(0, |v| v.len());
                    *acc.class_items.entry(Class::Export).or_default() += n as u64;
                    *acc.class_bytes.entry(Class::Export).or_default() += json.len() as u64;
                }
            } else {
                *acc.class_items.entry(op.class).or_default() += items;
            }
            *acc.class_ns.entry(op.class).or_default() += t1 - t0;
            *acc.class_calls.entry(op.class).or_default() += 1;
            acc.add("store", t1 - t0);
            acc.spans
                .push(req_id(conn, idx), "store", "store", "", t0, t1);
            acc.tally.judge(op, Ok(&reply), t0, t1 - t0, log.as_deref());
        }
    });
    // Rights and write probes where the stream has none.
    let probe_before = counters(&store, &sink);
    if writes == 0.0 {
        for i in 0..PROBE_WRITES {
            let key = format!("probe{i}");
            let call = Call::Put {
                value: make_value(&key, 0, crate::ops::PROC_VALUE_BYTES),
                subject: "probe".to_string(),
                purposes: vec!["analytics".to_string(), "billing".to_string()],
                key,
                ttl_ms: None,
            };
            let (reply, _) = store_call(&store, &ctx, &call);
            if !matches!(reply, Frame::Simple(_)) {
                return Err(format!("probe write refused: {reply:?}"));
            }
        }
    }
    let probe_mid = counters(&store, &sink);
    if !store_acc.class_calls.contains_key(&Class::KeysOf) {
        let subjects = probe_subjects(w);
        for (n, s) in subjects.iter().enumerate() {
            for call in [Call::KeysOf(s.clone()), Call::Export(s.clone())] {
                let class = if matches!(call, Call::KeysOf(_)) {
                    Class::KeysOf
                } else {
                    Class::Export
                };
                let t0 = Instant::now();
                let (reply, items) = store_call(&store, &ctx, &call);
                let ns = t0.elapsed().as_nanos() as u64;
                let (items, bytes) = match (&reply, class) {
                    (Frame::Bulk(json), Class::Export) => (
                        crate::ops::export_items(&String::from_utf8_lossy(json))
                            .map_or(0, |v| v.len() as u64),
                        json.len() as u64,
                    ),
                    _ => (items, 0),
                };
                *store_acc.class_ns.entry(class).or_default() += ns;
                *store_acc.class_calls.entry(class).or_default() += 1;
                *store_acc.class_items.entry(class).or_default() += items;
                *store_acc.class_bytes.entry(class).or_default() += bytes;
            }
            if n < PROBE_ERASES {
                let t0 = Instant::now();
                let (_, items) = store_call(&store, &ctx, &Call::Erase(s.clone()));
                *store_acc.class_ns.entry(Class::Erase).or_default() +=
                    t0.elapsed().as_nanos() as u64;
                *store_acc.class_calls.entry(Class::Erase).or_default() += 1;
                *store_acc.class_items.entry(Class::Erase).or_default() += items;
            }
        }
    }
    let probe_after = counters(&store, &sink);
    let probe_writes = delta(&probe_before, &probe_mid);
    let probe_rights = delta(&probe_mid, &probe_after);
    drop(store);

    // ---- engine and unmodified legs ------------------------------------
    let dir = root.join("leg-engine");
    copy_dir(&template, &dir);
    let policy = w.policy();
    let t = Instant::now();
    let kv = KvStore::open(kv_config(&policy, &dir)).map_err(|e| format!("reopen engine: {e}"))?;
    let replay_s = t.elapsed().as_secs_f64();
    let snapshot = kv.snapshot();
    let unmodified = KvStore::open(
        StoreConfig::in_memory()
            .shards(crate::stack::SHARDS)
            .deadline_index(DeadlineIndexKind::Wheel),
    )
    .map_err(|e| format!("open in-memory engine: {e}"))?;
    unmodified
        .restore_snapshot(&snapshot)
        .map_err(|e| format!("restore snapshot: {e}"))?;
    drop(snapshot);
    let engine = engine_leg(&kv, &streams, "engine", epoch);
    let unmod = engine_leg(&unmodified, &streams, "unmodified", epoch);
    // Per-write journal cost where the stream has no writes.
    let mut probe_engine_ns = [0u64; 2];
    if writes == 0.0 {
        for (slot, store) in [&kv, &unmodified].into_iter().enumerate() {
            for i in 0..PROBE_WRITES {
                let key = format!("probe{i}");
                let value = make_value(&key, 0, crate::ops::PROC_VALUE_BYTES);
                let t0 = Instant::now();
                let _ = std::hint::black_box(store.execute(Command::Set { key, value }));
                probe_engine_ns[slot] += t0.elapsed().as_nanos() as u64;
            }
        }
    }
    let t = Instant::now();
    kv.rewrite_aof()
        .map_err(|e| format!("rewrite journal: {e}"))?;
    let rewrite_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(kv);
    drop(unmodified);

    // ---- report ----------------------------------------------------------
    let mut tally = tcp.clone();
    tally.op_spans.clear();
    let mut check = Tally::default();
    check.merge(&dispatch.tally);
    check.merge(&store_acc.tally);
    for note in tally.notes.iter().chain(&check.notes).take(8) {
        println!("{note}");
    }

    let leg_tcp = tcp_ns as f64 / ops;
    let client = tally.client_ns as f64 / ops;
    let decode = dispatch.part("resp.decode") as f64 / ops;
    let encode = dispatch.part("resp.encode") as f64 / ops;
    let leg_dispatch = dispatch.part("dispatch") as f64 / ops;
    let leg_store = store_acc.part("store") as f64 / ops;
    let leg_engine = engine.part("engine") as f64 / ops;
    let leg_unmod = unmod.part("unmodified") as f64 / ops;
    let tcp_self = leg_tcp - leg_dispatch - decode - encode - client;
    let dispatch_self = leg_dispatch - leg_store;
    let core_self = leg_store - leg_engine;
    let aof_self_op = leg_engine - leg_unmod;
    for leg in [&mut dispatch, &mut store_acc] {
        spans.0.append(&mut leg.spans.0);
    }
    spans.0.extend(engine.spans.0);
    spans.0.extend(unmod.spans.0);
    let selfsum =
        tcp_self + client + decode + encode + dispatch_self + core_self + aof_self_op + leg_unmod;
    let spans_per_op = spans.0.len() as f64 / ops;
    let overhead = span_cost_ns() * spans_per_op;
    println!(
        "trace: {ops} ops per leg; self times sum to {selfsum:.1} ns/op, tcp leg {leg_tcp:.1} ns/op; \
         {spans_per_op:.1} spans/op, tracing overhead {overhead:.1} ns/op"
    );
    let tcp_mean = tally.all_latencies().mean_us().unwrap_or(0.0);
    println!(
        "trace: tcp leg mean latency {tcp_mean:.1} us over {} ops",
        tally.completed()
    );

    // Journal counts: from the tcp leg when the stream writes, else from
    // the write probe on the store leg.
    let (aof, aof_writes, aof_self_write) = if writes > 0.0 {
        (&tcp_delta, writes, aof_self_op * ops / writes)
    } else {
        let n = PROBE_WRITES as f64;
        (
            &probe_writes,
            n,
            (probe_engine_ns[0] as f64 - probe_engine_ns[1] as f64) / n,
        )
    };
    let (rewrites, erase_calls) = if erases > 0.0 {
        (tcp_delta.rewrites, erases)
    } else {
        (probe_rights.rewrites, PROBE_ERASES as f64)
    };
    let class_per = |c: Class, num: &BTreeMap<Class, u64>, den: &BTreeMap<Class, u64>| {
        per(
            num.get(&c).copied().unwrap_or(0) as f64,
            den.get(&c).copied().unwrap_or(0) as f64,
        )
    };
    let d = &tcp_delta;
    let lookups = d.cache_hits + d.cache_misses;

    write_spans(w, seed, &spans);

    let metrics: Vec<Metric> = vec![
        metric("leg.tcp_ns_per_op", leg_tcp, "ns"),
        metric("leg.dispatch_ns_per_op", leg_dispatch, "ns"),
        metric("leg.store_ns_per_op", leg_store, "ns"),
        metric("leg.engine_ns_per_op", leg_engine, "ns"),
        metric("kvstore.unmodified_ns_per_op", leg_unmod, "ns"),
        metric("client.ns_per_op", client, "ns"),
        metric("tcp.self_ns_per_op", tcp_self, "ns"),
        metric("resp.decode_ns_per_op", decode, "ns"),
        metric("resp.encode_ns_per_op", encode, "ns"),
        metric(
            "resp.wire_bytes_per_op",
            dispatch.part("wire_bytes") as f64 / ops,
            "bytes",
        ),
        metric("dispatch.self_ns_per_op", dispatch_self, "ns"),
        metric("core.self_ns_per_op", core_self, "ns"),
        metric("core.compliance_overhead_x", per(leg_store, leg_unmod), "x"),
        metric("core.denied_per_op", per(d.denied, ops), "count"),
        metric("hot_cache.hit_ratio", per(d.cache_hits, lookups), "ratio"),
        metric(
            "hot_cache.admissions_per_op",
            per(d.cache_admissions, ops),
            "count",
        ),
        metric(
            "hot_cache.invalidations_per_op",
            per(d.cache_invalidations, ops),
            "count",
        ),
        metric(
            "rights.keysof_ns_per_call",
            class_per(Class::KeysOf, &store_acc.class_ns, &store_acc.class_calls),
            "ns",
        ),
        metric(
            "rights.keysof_keys_per_call",
            class_per(
                Class::KeysOf,
                &store_acc.class_items,
                &store_acc.class_calls,
            ),
            "count",
        ),
        metric(
            "rights.export_ns_per_key",
            class_per(Class::Export, &store_acc.class_ns, &store_acc.class_items),
            "ns",
        ),
        metric(
            "rights.export_bytes_per_key",
            class_per(
                Class::Export,
                &store_acc.class_bytes,
                &store_acc.class_items,
            ),
            "bytes",
        ),
        metric(
            "rights.erase_ns_per_key",
            class_per(Class::Erase, &store_acc.class_ns, &store_acc.class_items),
            "ns",
        ),
        metric(
            "rights.erase_keys_per_call",
            class_per(Class::Erase, &store_acc.class_items, &store_acc.class_calls),
            "count",
        ),
        metric("audit.records_per_op", per(d.sink[0], ops), "count"),
        metric("audit.bytes_per_op", per(d.sink[1], ops), "bytes"),
        metric("audit.syncs_per_op", per(d.sink[2], ops), "count"),
        metric("audit.sink_write_ns_per_op", per(d.sink[3], ops), "ns"),
        metric("audit.sink_sync_ns_per_op", per(d.sink[4], ops), "ns"),
        metric("kvstore.commands_per_op", per(d.commands, ops), "count"),
        metric(
            "kvstore.keys_per_record",
            per(engine_keys, records),
            "count",
        ),
        metric(
            "kvstore.mem_bytes_per_record",
            per(mem_bytes, records),
            "bytes",
        ),
        metric(
            "kvstore.shard_lock_hold_us_per_op",
            per(d.lock_hold_us, ops),
            "us",
        ),
        metric("aof.self_ns_per_write", aof_self_write, "ns"),
        metric(
            "aof.records_per_write",
            per(aof.aof_records, aof_writes),
            "count",
        ),
        metric(
            "aof.bytes_per_write",
            per(aof.aof_bytes, aof_writes),
            "bytes",
        ),
        metric("aof.fsyncs_per_write", per(aof.fsyncs, aof_writes), "count"),
        metric(
            "aof.records_per_fsync",
            per(aof.aof_records, aof.fsyncs),
            "count",
        ),
        metric(
            "aof.commit_wait_us_per_write",
            per(aof.commit_wait_us, aof_writes),
            "us",
        ),
        metric(
            "aof.device_bytes_per_logical_byte",
            per(aof.device_physical, aof.device_logical),
            "bytes/byte",
        ),
        metric(
            "aof.rewrites_per_erase",
            per(rewrites, erase_calls),
            "count",
        ),
        metric("aof.rewrite_ms", rewrite_ms, "ms"),
        metric("recovery.replay_s", replay_s, "s"),
        metric("recovery.index_rebuild_s", index_rebuild_s, "s"),
        metric(
            "recovery.records_replayed_per_s",
            per(setup.journal_records as f64, replay_s),
            "1/s",
        ),
        metric("trace.overhead_ns_per_op", overhead, "ns"),
    ];
    Ok(Report {
        correct: tally.wrong == 0 && check.wrong == 0,
        attempted: tally.total_attempted(),
        failed: tally.total_failed(),
        metrics,
    })
}

/// Write the spans as tab-separated lines:
/// `req leg name parent start_ns end_ns`.
fn write_spans(w: Workload, seed: u64, spans: &Spans) {
    let dir = std::env::current_dir()
        .expect("working directory")
        .join(".bench_out");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("spans-{}.tsv", w.name()));
    let Ok(file) = std::fs::File::create(&path) else {
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    let _ = writeln!(
        out,
        "# seed={seed}\treq\tleg\tname\tparent\tstart_ns\tend_ns"
    );
    for s in &spans.0 {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.leg, s.name, s.parent, s.start, s.end
        );
    }
    let _ = out.flush();
    println!(
        "trace: {} spans written to {}",
        spans.0.len(),
        path.display()
    );
}
