//! The server stack under test, with every setting pinned: policy, two
//! engine shards, file-backed journal with group commit, timer-wheel
//! deadline index, hot cache, file audit trail, and the
//! thread-per-connection transport.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use audit::sink::{AuditSink, FileSink, SinkStats};
use gdpr_core::acl::Grant;
use gdpr_core::hot_cache::HotCacheConfig;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::GdprStore;
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, Transport};
use kvstore::config::StoreConfig;
use kvstore::ttl_wheel::DeadlineIndexKind;
use resp::command::GdprRequest;
use resp::Frame;

use crate::gen::make_value;
use crate::ops::{
    lapsed_calls, proc_key, proc_subject, ycsb_key, Call, CustGen, ProcShape, PROC_RECORDS,
    PROC_VALUE_BYTES, YCSB_RECORDS, YCSB_VALUE_BYTES,
};
use crate::wire::Conn;

pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;
pub const LOADERS: usize = 8;
pub const LOAD_BATCH: usize = 32;
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
const PASSPHRASE: &[u8] = b"specbench-at-rest-key";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    YcsbAStrict,
    ProcessorEventual,
    CustomerStrict,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ycsb-a-strict" => Some(Workload::YcsbAStrict),
            "processor-eventual" => Some(Workload::ProcessorEventual),
            "customer-strict" => Some(Workload::CustomerStrict),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbAStrict => "ycsb-a-strict",
            Workload::ProcessorEventual => "processor-eventual",
            Workload::CustomerStrict => "customer-strict",
        }
    }

    pub fn policy(self) -> CompliancePolicy {
        match self {
            Workload::ProcessorEventual => CompliancePolicy::eventual(),
            _ => CompliancePolicy::strict(),
        }
    }

    /// `(actor, purpose)` the timed clients authenticate as.
    pub fn client_auth(self) -> (&'static str, &'static str) {
        match self {
            Workload::YcsbAStrict => ("ycsb", "bench"),
            Workload::ProcessorEventual => ("processor", "analytics"),
            Workload::CustomerStrict => ("customer", "service"),
        }
    }

    /// `(actor, purpose)` the loaders authenticate as.
    pub fn loader_auth(self) -> (&'static str, &'static str) {
        match self {
            Workload::ProcessorEventual => ("controller", "billing"),
            other => other.client_auth(),
        }
    }
}

/// Counters of the audit sink boundary: every line and sync the
/// compliance layer hands to the trail, and the time each took.
#[derive(Debug, Default)]
pub struct SinkCells {
    pub lines: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub write_ns: AtomicU64,
    pub sync_ns: AtomicU64,
}

impl SinkCells {
    /// `[lines, bytes, syncs, write_ns, sync_ns]`.
    pub fn snapshot(&self) -> [u64; 5] {
        [
            &self.lines,
            &self.bytes,
            &self.syncs,
            &self.write_ns,
            &self.sync_ns,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

/// A [`FileSink`] wrapper that times the sink calls.
#[derive(Debug)]
pub struct TimedSink {
    inner: FileSink,
    cells: Arc<SinkCells>,
}

impl AuditSink for TimedSink {
    fn write_line(&mut self, line: &str) -> audit::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_line(line);
        self.cells
            .write_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cells.lines.fetch_add(1, Ordering::Relaxed);
        self.cells
            .bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        r
    }

    fn sync(&mut self) -> audit::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.cells
            .sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cells.syncs.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

pub fn kv_config(policy: &CompliancePolicy, dir: &Path) -> StoreConfig {
    let mut config = StoreConfig::with_aof(dir.join("journal.aof"))
        .shards(SHARDS)
        .fsync(policy.journal_fsync)
        .expiry_mode(policy.expiry_mode)
        .deadline_index(DeadlineIndexKind::Wheel)
        .group_commit(true);
    if policy.encrypt_at_rest {
        config = config.encrypted(PASSPHRASE);
    }
    config
}

/// Open the compliance store over `dir`, with grants for the workload's
/// actors and the hot cache pinned to its default configuration.
pub fn open_store(w: Workload, dir: &Path, audit_name: &str) -> (GdprStore, Arc<SinkCells>) {
    let policy = w.policy();
    let cells = Arc::new(SinkCells::default());
    let sink = TimedSink {
        inner: FileSink::open(dir.join(audit_name)).expect("open audit trail"),
        cells: Arc::clone(&cells),
    };
    let mut store = GdprStore::open(policy.clone(), kv_config(&policy, dir), Box::new(sink))
        .expect("open store");
    store.set_hot_cache(HotCacheConfig::default().enabled(true));
    for (actor, purpose) in [w.client_auth(), w.loader_auth()] {
        store.grant(Grant::new(actor, purpose));
    }
    (store, cells)
}

pub fn serve(store: Arc<GdprStore>) -> TcpServer {
    let config = ServerConfig {
        transport: Transport::Threads,
        max_connections: 64,
        ..ServerConfig::default()
    };
    TcpServer::bind(Dispatcher::gdpr(store), "127.0.0.1:0", config).expect("bind server")
}

pub fn connect_authed(addr: SocketAddr, (actor, purpose): (&str, &str)) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let reply = conn.call(
        &GdprRequest::Auth {
            actor: actor.to_string(),
            purpose: purpose.to_string(),
        }
        .to_frame(),
    )?;
    match reply {
        Frame::Simple(_) => Ok(conn),
        other => Err(format!("GDPR.AUTH refused: {other:?}")),
    }
}

/// The writes that build a workload's dataset, lapsed records first.
pub fn dataset(w: Workload, seed: u64, proc_shape: Option<&ProcShape>) -> Vec<Call> {
    match w {
        Workload::YcsbAStrict => (0..YCSB_RECORDS)
            .map(|id| {
                let key = ycsb_key(id);
                let value = make_value(&key, 0, YCSB_VALUE_BYTES);
                Call::Set(key, value)
            })
            .collect(),
        Workload::ProcessorEventual => {
            let shape = proc_shape.expect("processor dataset needs its shape");
            (0..PROC_RECORDS)
                .map(|id| {
                    let key = proc_key(id);
                    Call::Put {
                        value: make_value(&key, 0, PROC_VALUE_BYTES),
                        subject: proc_subject(id),
                        purposes: shape.purposes(id).split(',').map(str::to_string).collect(),
                        key,
                        ttl_ms: None,
                    }
                })
                .collect()
        }
        Workload::CustomerStrict => {
            let mut calls = lapsed_calls();
            for conn in 0..CLIENTS {
                calls.extend(CustGen::new(seed, conn).load_calls());
            }
            calls
        }
    }
}

/// Load `calls` through the server over [`LOADERS`] pipelined
/// connections; every reply must be `+OK`.
pub fn load(w: Workload, addr: SocketAddr, calls: &[Call]) -> Result<(), String> {
    let chunk = calls.len().div_ceil(LOADERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = calls
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = connect_authed(addr, w.loader_auth())?;
                    for batch in part.chunks(LOAD_BATCH) {
                        let frames: Vec<Frame> = batch.iter().map(Call::frame).collect();
                        for reply in conn.pipeline(&frames)? {
                            if reply != Frame::Simple("OK".to_string()) {
                                return Err(format!("load write refused: {reply:?}"));
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("loader thread panicked"))
    })
}

/// Bytes on disk under `dir`: journal segments, manifest and audit trail.
pub fn disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copy the files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create leg directory");
    for entry in std::fs::read_dir(from).expect("read template").flatten() {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy template file");
        }
    }
}
