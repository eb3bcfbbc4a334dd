//! Compliance-spectrum benchmark.
//!
//! Starts the real server stack in this process — `TcpServer` (threads
//! transport) over a two-shard `GdprStore` with a file-backed journal and
//! a file audit trail — loads a seeded dataset through it, and drives it
//! over loopback TCP with two closed-loop clients whose every reply is
//! checked against the benchmark's own model. With `--trace 1` it instead
//! replays the same op stream at each layer's entry point and reports
//! per-layer costs (see `trace.rs`).
//!
//! ```text
//! cargo run --release --manifest-path specbench/Cargo.toml -- \
//!     --workload ycsb-a-strict|processor-eventual|customer-strict \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod drive;
mod gen;
mod lat;
mod ops;
mod stack;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdpr_core::store::GdprStore;

use crate::drive::{closed_loop, Plan, Source, Tally};
use crate::gen::parse_value;
use crate::lat::Samples;
use crate::ops::{
    ycsb_key, Class, CustGen, Generator, ProcGen, ProcShape, WriteLog, YcsbGen, YcsbShape, CLASSES,
    LAPSED_TTL_MS, PROC_RECORDS, PROC_VALUE_BYTES, YCSB_RECORDS,
};
use crate::stack::{dataset, disk_bytes, load, open_store, serve, Workload, CLIENTS};

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// under `SETUP_BUDGET`, at most `MAX_SETUPS`; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 6;
const SETUP_BUDGET: Duration = Duration::from_secs(8);
/// Reopens of each set-up's files: at least two, more while they have
/// taken under a second, at most ten; `recovery_s` is the median of all.
const MIN_REOPENS: usize = 2;
const MAX_REOPENS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn print_environment(args: &Args) {
    println!(
        "specbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host cores={} commit={} compiler={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("SPECBENCH_COMMIT"),
        env!("SPECBENCH_RUSTC")
    );
    let policy = args.workload.policy();
    println!(
        "settings policy={} shards={} transport=threads clients={} hot_cache=default(on) \
         deadline_index=wheel fsync={:?} group_commit=on encrypt_at_rest={} audit_flush={}",
        policy.name,
        stack::SHARDS,
        CLIENTS,
        policy.journal_fsync,
        policy.encrypt_at_rest,
        policy.audit_flush.label()
    );
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("GDPR_"))
        .collect();
    vars.sort();
    for (k, v) in vars {
        println!("env {k}={v} (set; every setting it could change is pinned above)");
    }
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The generators of a workload, one per client connection.
pub fn generators(w: Workload, seed: u64) -> (Vec<Box<dyn Generator>>, Option<Arc<WriteLog>>) {
    match w {
        Workload::YcsbAStrict => {
            let shape = Arc::new(YcsbShape::new(seed));
            let gens = (0..CLIENTS)
                .map(|c| Box::new(YcsbGen::new(Arc::clone(&shape), seed, c)) as Box<dyn Generator>)
                .collect();
            (gens, Some(Arc::new(WriteLog::new(YCSB_RECORDS))))
        }
        Workload::ProcessorEventual => {
            let shape = Arc::new(ProcShape::new(seed));
            let gens = (0..CLIENTS)
                .map(|c| Box::new(ProcGen::new(Arc::clone(&shape), seed, c)) as Box<dyn Generator>)
                .collect();
            (gens, None)
        }
        Workload::CustomerStrict => {
            let gens = (0..CLIENTS)
                .map(|c| Box::new(CustGen::new(seed, c)) as Box<dyn Generator>)
                .collect();
            (gens, None)
        }
    }
}

/// Close a store whose server has stopped: wait for the last reference to
/// go, then drop it so the journal and audit trail are flushed.
pub fn close(store: Arc<GdprStore>) {
    let mut store = store;
    for _ in 0..200 {
        match Arc::try_unwrap(store) {
            Ok(inner) => {
                drop(inner);
                return;
            }
            Err(shared) => {
                store = shared;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    panic!("store still referenced after the server stopped");
}

pub struct SetUp {
    pub dir: PathBuf,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub disk_per_user_byte: f64,
    pub user_bytes: u64,
    pub journal_records: u64,
    pub load_started: Instant,
}

/// Open the store and load the dataset through the server in a fresh
/// directory, close it cleanly and time reopening it (recovery of the
/// same dataset). With `repeat`, do so several times (see [`MIN_SETUPS`]);
/// the last directory is kept.
pub fn set_up(w: Workload, seed: u64, root: &Path, repeat: bool) -> Result<SetUp, String> {
    let shape = (w == Workload::ProcessorEventual).then(|| ProcShape::new(seed));
    let calls = dataset(w, seed, shape.as_ref());
    let user_bytes: u64 = calls.iter().map(|c| c.user_bytes() as u64).sum();
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut disk = Vec::new();
    let mut journal_records = 0;
    let mut load_started = Instant::now();
    let mut dir = PathBuf::new();
    let started_all = Instant::now();
    let (min, max) = if repeat {
        (MIN_SETUPS, MAX_SETUPS)
    } else {
        (1, 1)
    };
    for rep in 0..max {
        if rep >= min && started_all.elapsed() >= SETUP_BUDGET {
            break;
        }
        if rep > 0 {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove set-up: {e}"))?;
        }
        dir = root.join(format!("setup{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let started = Instant::now();
        let (store, _) = open_store(w, &dir, "audit.log");
        let store = Arc::new(store);
        let server = serve(Arc::clone(&store));
        load_started = Instant::now();
        load(w, server.local_addr(), &calls)?;
        setup_s.push(started.elapsed().as_secs_f64());
        journal_records = store.engine().stats().aof.records_appended;
        server.shutdown();
        close(store);
        disk.push(disk_bytes(&dir) as f64 / user_bytes as f64);
        let reopening = Instant::now();
        for n in 0..MAX_REOPENS {
            if !repeat || (n >= MIN_REOPENS && reopening.elapsed() >= Duration::from_secs(1)) {
                break;
            }
            let started = Instant::now();
            let reopened = open_store(w, &dir, "audit-reopen.log");
            recovery_s.push(started.elapsed().as_secs_f64());
            drop(reopened);
        }
    }
    Ok(SetUp {
        dir,
        setup_s,
        recovery_s,
        disk_per_user_byte: median(&mut disk),
        user_bytes,
        journal_records,
        load_started,
    })
}

/// After a reopen: every acknowledged write is present and no erased
/// record is. Returns the number of violations, with a note on the first.
fn check_reopened(
    w: Workload,
    store: &GdprStore,
    sources: &[Source],
    log: Option<&WriteLog>,
) -> (u64, Option<String>) {
    let kv = store.engine();
    let mut bad = 0;
    let mut first = None;
    let mut flag = |msg: String| {
        bad += 1;
        first.get_or_insert(msg);
    };
    match w {
        Workload::YcsbAStrict => {
            let log = log.expect("YCSB keeps a write log");
            for id in 0..YCSB_RECORDS {
                let key = ycsb_key(id);
                match kv.get(&key).ok().flatten() {
                    Some(v) => match parse_value(&v) {
                        Some((k, ver)) if k == key => {
                            if let Err(e) = log.fresh(id, ver, u64::MAX) {
                                flag(format!("after reopen: {e}"));
                            }
                        }
                        _ => flag(format!("after reopen: {key} holds a damaged value")),
                    },
                    None => flag(format!("after reopen: {key} is missing")),
                }
            }
        }
        Workload::ProcessorEventual => {
            for id in 0..PROC_RECORDS {
                let key = ops::proc_key(id);
                let want = gen::make_value(&key, 0, PROC_VALUE_BYTES);
                if kv.get(&key).ok().flatten().as_deref() != Some(want.as_slice()) {
                    flag(format!("after reopen: {key} is missing or changed"));
                }
            }
        }
        Workload::CustomerStrict => {
            for source in sources {
                if let Source::Timed(g) = source {
                    for (key, want) in g.final_state() {
                        let got = kv.get(&key).ok().flatten();
                        if got != want {
                            flag(format!(
                                "after reopen: {key} is {} but the model has it {}",
                                if got.is_some() { "present" } else { "absent" },
                                if want.is_some() { "present" } else { "erased" }
                            ));
                        }
                    }
                }
            }
        }
    }
    (bad, first)
}

/// Attempted and failed ops of every class the workload sends.
fn print_classes(tally: &Tally) {
    for class in CLASSES {
        let i = class.index();
        if tally.attempted[i] > 0 {
            println!(
                "class {:<16} attempted={:<7} failed={}",
                class.label(),
                tally.attempted[i],
                tally.failed[i]
            );
        }
    }
}

/// Per-class latency metrics, each with its sample count: the median
/// and, where given, one tail.
fn print_class_metrics(tally: &Tally) {
    const GROUPS: [(&str, &[Class], Option<f64>); 6] = [
        ("read", &[Class::Get], Some(0.99)),
        ("write", &[Class::Set, Class::Put], Some(0.99)),
        ("meta", &[Class::GetMeta], Some(0.99)),
        ("keysof", &[Class::KeysOf], None),
        ("export", &[Class::Export], None),
        ("erase", &[Class::Erase], Some(0.95)),
    ];
    for (name, classes, tail) in GROUPS {
        let mut s = Samples::default();
        for c in classes {
            s.merge(&tally.lat[c.index()]);
        }
        let n = s.len();
        if n == 0 {
            continue;
        }
        if let Some(p50) = s.quantile_us(0.5) {
            println!("metric {name}_p50_us = {p50:.1} us (n={n})");
        }
        let Some(p) = tail else { continue };
        let label = format!("{name}_p{:.0}_us", p * 100.0);
        match s.tail_us(p) {
            Some((level, v)) if (level - p).abs() < 1e-9 => {
                println!("metric {label} = {v:.1} us (n={n})");
            }
            Some((level, v)) => println!(
                "metric {label} unsupported: n={n} allows p{:.1} = {v:.1} us",
                level * 100.0
            ),
            None => println!("metric {label} unsupported: n={n}"),
        }
    }
}

fn untraced(args: &Args, root: &Path) -> Result<Report, String> {
    let w = args.workload;
    let setup = set_up(w, args.seed, root, true)?;
    let epoch = Instant::now();

    // Timed phase on the set-up store, reopened.
    let (store, _) = open_store(w, &setup.dir, "audit.log");
    let store = Arc::new(store);
    let server = serve(Arc::clone(&store));
    // Retention checks ask about records whose deadline passed over a
    // second ago.
    let ready = setup.load_started + Duration::from_millis(LAPSED_TTL_MS + 1000);
    if let Some(wait) = ready.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let (gens, log) = generators(w, args.seed);
    let sources = gens.into_iter().map(Source::Timed).collect();
    let plan = Plan {
        addr: server.local_addr(),
        auth: w.client_auth(),
        epoch,
    };
    let run = closed_loop(&plan, sources, args.seconds as f64, log.clone());
    let (tally, wall, sources) = (run.tally, run.wall, run.sources);
    // Throughput and CPU per op are medians over one-second windows, so a
    // transient stall of the host moves one window, not the result.
    let mut window_rate = Vec::new();
    let mut window_cpu = Vec::new();
    for pair in run.samples.windows(2) {
        let ((t0, c0, n0), (t1, c1, n1)) = (pair[0], pair[1]);
        let ops = (n1 - n0) as f64;
        window_rate.push(ops / (t1 - t0));
        window_cpu.push((c1 - c0) * 1e6 / ops.max(1.0));
    }
    server.shutdown();
    close(store);

    // Reopen after the run: every acknowledged write must be there.
    let started = Instant::now();
    let (store, _) = open_store(w, &setup.dir, "audit-reopen.log");
    let reopen_s = started.elapsed().as_secs_f64();
    let (reopen_bad, first) = check_reopened(w, &store, &sources, log.as_deref());
    if let Some(msg) = first {
        println!("wrong: {msg} ({reopen_bad} records)");
    }
    drop(store);

    print_classes(&tally);
    print_class_metrics(&tally);
    for note in &tally.notes {
        println!("{note}");
    }
    let completed = tally.completed();
    let all = tally.all_latencies();
    println!(
        "timed phase: {completed} ops in {:.3} s, mean latency {:.1} us",
        wall.as_secs_f64(),
        all.mean_us().unwrap_or(0.0),
    );
    println!(
        "set-up samples {:?} s; recovery samples {:?} s; reopen after the run {reopen_s:.3} s",
        setup.setup_s, setup.recovery_s
    );
    let mut setup_s = setup.setup_s.clone();
    let mut recovery = setup.recovery_s.clone();
    println!(
        "throughput windows: {:?} ops/s",
        window_rate.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    Ok(Report {
        correct: tally.wrong == 0 && reopen_bad == 0,
        attempted: tally.total_attempted(),
        failed: tally.total_failed(),
        metrics: vec![
            metric("setup_s", median(&mut setup_s), "s"),
            metric("throughput_ops_s", median(&mut window_rate), "ops/s"),
            metric("cpu_us_per_op", median(&mut window_cpu), "us"),
            metric("recovery_s", median(&mut recovery), "s"),
            metric(
                "disk_bytes_per_user_byte",
                setup.disk_per_user_byte,
                "bytes/byte",
            ),
        ],
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("specbench: {e}");
            eprintln!(
                "usage: specbench --workload <ycsb-a-strict|processor-eventual|customer-strict> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    print_environment(&args);
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".bench_work")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, &root)
    } else {
        untraced(&args, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("specbench: {e}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
