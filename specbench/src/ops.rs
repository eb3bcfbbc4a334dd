//! The three workloads as seeded, model-driven op streams, and the check
//! of every reply against the model.
//!
//! Each client connection owns one generator. A generator emits whole
//! *rounds*: a fixed multiset of op classes in a seeded order, so every
//! run attempts the same mix whatever its length. Expected replies are
//! computed by the model when an op is generated; the customer model is
//! exact because each connection serves a disjoint set of data subjects.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use resp::command::GdprRequest;
use resp::Frame;

use crate::gen::{make_value, parse_value, permutation, Rng, Zipf};

pub const YCSB_RECORDS: usize = 20_000;
pub const YCSB_VALUE_BYTES: usize = 1000;
pub const PROC_RECORDS: usize = 80_000;
pub const PROC_VALUE_BYTES: usize = 512;
pub const PROC_KEYS_PER_SUBJECT: usize = 8;
pub const ZIPF_THETA: f64 = 0.99;
pub const CUST_SUBJECTS_PER_CONN: usize = 200;
pub const CUST_MIN_KEYS: usize = 2;
pub const CUST_MAX_KEYS: usize = 300;
pub const CUST_VALUE_BYTES: usize = 160;
pub const LAPSED_SUBJECTS: usize = 32;
pub const LAPSED_KEYS_PER_SUBJECT: usize = 4;
pub const LAPSED_TTL_MS: u64 = 250;

pub const CUST_PURPOSES: &str = "marketing,service";
pub const OBJECT_PURPOSE: &str = "marketing";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Get,
    Set,
    Put,
    GetMeta,
    KeysOf,
    Export,
    Object,
    Erase,
    RetentionCheck,
}

pub const CLASSES: [Class; 9] = [
    Class::Get,
    Class::Set,
    Class::Put,
    Class::GetMeta,
    Class::KeysOf,
    Class::Export,
    Class::Object,
    Class::Erase,
    Class::RetentionCheck,
];

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Get => "GET",
            Class::Set => "SET",
            Class::Put => "GDPR.PUT",
            Class::GetMeta => "GDPR.GETMETA",
            Class::KeysOf => "GDPR.KEYSOF",
            Class::Export => "GDPR.EXPORT",
            Class::Object => "GDPR.OBJECT",
            Class::Erase => "GDPR.ERASE",
            Class::RetentionCheck => "retention-check",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Single-record data writes.
    pub fn is_write(self) -> bool {
        matches!(self, Class::Set | Class::Put)
    }
}

/// One request, in a form every layer can be driven with.
#[derive(Debug, Clone)]
pub enum Call {
    Get(String),
    Set(String, Vec<u8>),
    Put {
        key: String,
        subject: String,
        purposes: Vec<String>,
        value: Vec<u8>,
        ttl_ms: Option<u64>,
    },
    GetMeta(String),
    KeysOf(String),
    Export(String),
    Object(String, String),
    Erase(String),
    Stats,
}

impl Call {
    pub fn frame(&self) -> Frame {
        match self {
            Call::Get(key) => Frame::command(["GET", key.as_str()]),
            Call::Set(key, value) => Frame::Array(vec![
                Frame::bulk("SET"),
                Frame::bulk(key.as_str()),
                Frame::bulk(value.clone()),
            ]),
            Call::Put {
                key,
                subject,
                purposes,
                value,
                ttl_ms,
            } => GdprRequest::Put {
                key: key.clone(),
                subject: subject.clone(),
                purposes: purposes.clone(),
                value: value.clone(),
                ttl_ms: *ttl_ms,
            }
            .to_frame(),
            Call::GetMeta(key) => GdprRequest::GetMeta { key: key.clone() }.to_frame(),
            Call::KeysOf(subject) => GdprRequest::KeysOf {
                subject: subject.clone(),
            }
            .to_frame(),
            Call::Export(subject) => GdprRequest::Export {
                subject: subject.clone(),
                cursor: None,
                count: None,
            }
            .to_frame(),
            Call::Object(subject, purpose) => GdprRequest::Object {
                subject: subject.clone(),
                purpose: purpose.clone(),
            }
            .to_frame(),
            Call::Erase(subject) => GdprRequest::Erase {
                subject: subject.clone(),
            }
            .to_frame(),
            Call::Stats => GdprRequest::Stats.to_frame(),
        }
    }

    pub fn user_bytes(&self) -> usize {
        match self {
            Call::Set(_, value) | Call::Put { value, .. } => value.len(),
            _ => 0,
        }
    }
}

/// What the model predicts for a reply.
#[derive(Debug, Clone)]
pub enum Expect {
    Ok,
    /// A YCSB read: some write of this key that no completed later write
    /// had replaced when the read was sent.
    Fresh(usize),
    Value(Vec<u8>),
    Denied,
    Meta {
        subject: String,
        purposes: String,
        /// `Some(true)`: an objection was acknowledged after the last
        /// write; `Some(false)`: none was; `None`: a write replaced the
        /// metadata of an objected key, which the model does not predict.
        objected: Option<bool>,
    },
    Absent,
    Keys(Vec<String>),
    Export(Vec<(String, Vec<u8>)>),
    Count(i64),
    Retention(u64),
}

#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    pub call: Call,
    pub expect: Expect,
    /// YCSB writes: `(key id, version)`, logged for the freshness check.
    pub logged: Option<(usize, u64)>,
}

pub enum Verdict {
    Pass,
    /// The operation did not succeed (error reply, timeout, or a
    /// retention deadline the server did not enforce).
    Failed(String),
    /// The operation succeeded with a reply the model rules out.
    Wrong(String),
}

/// Per-key write history of the YCSB workload, shared by its connections:
/// `(version, sent_ns, acked_ns)`, `acked_ns == u64::MAX` while in flight.
#[derive(Debug)]
pub struct WriteLog {
    keys: Vec<Mutex<Vec<(u64, u64, u64)>>>,
}

impl WriteLog {
    pub fn new(n: usize) -> Self {
        WriteLog {
            keys: (0..n).map(|_| Mutex::new(vec![(0, 0, 0)])).collect(),
        }
    }

    pub fn sent(&self, key: usize, version: u64, at: u64) {
        self.keys[key]
            .lock()
            .expect("write log poisoned")
            .push((version, at, u64::MAX));
    }

    pub fn acked(&self, key: usize, version: u64, at: u64) {
        let mut log = self.keys[key].lock().expect("write log poisoned");
        if let Some(entry) = log.iter_mut().rev().find(|e| e.0 == version) {
            entry.2 = at;
        }
    }

    /// Whether `version` may be returned by a read sent at `read_sent`: it
    /// was written, and no write that began after it was acknowledged had
    /// itself been acknowledged before the read was sent.
    pub fn fresh(&self, key: usize, version: u64, read_sent: u64) -> Result<(), String> {
        let log = self.keys[key].lock().expect("write log poisoned");
        let Some(&(_, _, acked)) = log.iter().find(|e| e.0 == version) else {
            return Err(format!("key {key}: version {version} was never written"));
        };
        if let Some(newer) = log.iter().find(|w| w.1 > acked && w.2 < read_sent) {
            return Err(format!(
                "key {key}: read returned version {version}, replaced by acknowledged version {}",
                newer.0
            ));
        }
        Ok(())
    }
}

pub fn ycsb_key(id: usize) -> String {
    format!("y{id:06}")
}

pub fn proc_key(id: usize) -> String {
    format!("p{id:06}")
}

pub fn proc_subject(id: usize) -> String {
    format!("ps{}", id / PROC_KEYS_PER_SUBJECT)
}

fn bulk_strings(frame: &Frame) -> Option<Vec<String>> {
    match frame {
        Frame::Array(items) => items
            .iter()
            .map(|f| match f {
                Frame::Bulk(b) => String::from_utf8(b.clone()).ok(),
                Frame::Simple(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// Pull `(key, value)` pairs out of a portability export. Keys and values
/// written by this benchmark hold no characters JSON must escape.
pub fn export_items(json: &str) -> Option<Vec<(String, Vec<u8>)>> {
    let mut items = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("{\"key\":\"") {
        rest = &rest[at + 8..];
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        let vat = rest.find(",\"value\":\"")?;
        let vrest = &rest[vat + 10..];
        let vend = vrest.find('"')?;
        items.push((key, vrest.as_bytes()[..vend].to_vec()));
        rest = &vrest[vend..];
    }
    items.sort();
    Some(items)
}

/// Judge one reply. `sent` is when the request left the client, on the
/// clock the write log uses.
pub fn check(op: &Op, reply: &Frame, sent: u64, log: Option<&WriteLog>) -> Verdict {
    if let (Frame::Error(e), false) = (reply, matches!(op.expect, Expect::Denied)) {
        return Verdict::Failed(format!("{}: {e}", op.class.label()));
    }
    let wrong = |what: &str| Verdict::Wrong(format!("{}: {what}: {reply:?}", op.class.label()));
    match &op.expect {
        Expect::Ok => match reply {
            Frame::Simple(s) if s == "OK" => Verdict::Pass,
            _ => wrong("expected OK"),
        },
        Expect::Fresh(key) => {
            let Frame::Bulk(bytes) = reply else {
                return wrong("expected a value");
            };
            match parse_value(bytes) {
                Some((k, version)) if k == ycsb_key(*key) => {
                    match log
                        .expect("YCSB reads need the write log")
                        .fresh(*key, version, sent)
                    {
                        Ok(()) => Verdict::Pass,
                        Err(e) => Verdict::Wrong(e),
                    }
                }
                _ => wrong("value fails its checksum or names another key"),
            }
        }
        Expect::Value(value) => match reply {
            Frame::Bulk(bytes) if bytes == value => Verdict::Pass,
            _ => wrong("expected the stored value"),
        },
        Expect::Denied => match reply {
            Frame::Error(e) if e.contains("not permitted") => Verdict::Pass,
            Frame::Error(e) => Verdict::Failed(format!("{}: {e}", op.class.label())),
            _ => wrong("expected a purpose denial"),
        },
        Expect::Meta {
            subject,
            purposes,
            objected,
        } => {
            let Some(fields) = bulk_strings(reply) else {
                return wrong("expected metadata");
            };
            let field = |name: &str| {
                fields
                    .iter()
                    .find_map(|f| f.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
                    .unwrap_or("")
                    .to_string()
            };
            let has_objection = field("objections").split(',').any(|p| p == OBJECT_PURPOSE);
            if field("subject") != *subject || field("purposes") != *purposes {
                wrong("metadata differs from the model")
            } else if objected.is_some_and(|o| o != has_objection) {
                wrong("objection state differs from the model")
            } else {
                Verdict::Pass
            }
        }
        Expect::Absent => match reply {
            Frame::Null => Verdict::Pass,
            _ => wrong("expected no record"),
        },
        Expect::Keys(keys) => match bulk_strings(reply) {
            Some(mut got) => {
                got.sort();
                if got == *keys {
                    Verdict::Pass
                } else {
                    wrong(&format!("expected keys {keys:?}"))
                }
            }
            None => wrong("expected a key list"),
        },
        Expect::Export(items) => match reply {
            Frame::Bulk(json) => match std::str::from_utf8(json).ok().and_then(export_items) {
                Some(got) if got == *items => Verdict::Pass,
                Some(got) => Verdict::Wrong(format!(
                    "GDPR.EXPORT: {} items, model has {}",
                    got.len(),
                    items.len()
                )),
                None => wrong("unparsable export"),
            },
            _ => wrong("expected an export document"),
        },
        Expect::Count(n) => match reply {
            Frame::Integer(got) if got == n => Verdict::Pass,
            _ => wrong(&format!("expected {n}")),
        },
        Expect::Retention(lapsed) => {
            let erased = bulk_strings(reply).and_then(|lines| {
                lines.iter().find_map(|l| {
                    l.strip_prefix("erased_by_retention=")
                        .and_then(|v| v.parse::<u64>().ok())
                })
            });
            match erased {
                Some(n) if n >= *lapsed => Verdict::Pass,
                Some(n) => Verdict::Failed(format!(
                    "retention-check: {lapsed} records are past their deadline by over 1 s, \
                     erased_by_retention={n}"
                )),
                None => wrong("GDPR.STATS has no erased_by_retention"),
            }
        }
    }
}

/// A connection's op source.
pub trait Generator: Send {
    fn next_round(&mut self) -> Vec<Op>;

    /// Records whose final state the model knows exactly: `(key,
    /// Some(value))` must be present after a reopen, `(key, None)` absent.
    fn final_state(&self) -> Vec<(String, Option<Vec<u8>>)> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// ycsb-a-strict
// ---------------------------------------------------------------------------

pub struct YcsbShape {
    pub zipf: Zipf,
    pub perm: Vec<u32>,
}

impl YcsbShape {
    pub fn new(seed: u64) -> Self {
        YcsbShape {
            zipf: Zipf::new(YCSB_RECORDS, ZIPF_THETA),
            perm: permutation(YCSB_RECORDS, &mut Rng::derive(seed, 11)),
        }
    }
}

pub struct YcsbGen {
    shape: Arc<YcsbShape>,
    rng: Rng,
    conn: u64,
    seq: u64,
}

impl YcsbGen {
    pub fn new(shape: Arc<YcsbShape>, seed: u64, conn: usize) -> Self {
        YcsbGen {
            shape,
            rng: Rng::derive(seed, 100 + conn as u64),
            conn: conn as u64,
            seq: 0,
        }
    }
}

/// YCSB-A: 10 GET and 10 SET per round, keys zipfian.
impl Generator for YcsbGen {
    fn next_round(&mut self) -> Vec<Op> {
        let mut classes = [[Class::Get; 10], [Class::Set; 10]].concat();
        self.rng.shuffle(&mut classes);
        classes
            .into_iter()
            .map(|class| {
                let id = self.shape.perm[self.shape.zipf.sample(&mut self.rng)] as usize;
                let key = ycsb_key(id);
                if class == Class::Get {
                    Op {
                        class,
                        call: Call::Get(key),
                        expect: Expect::Fresh(id),
                        logged: None,
                    }
                } else {
                    self.seq += 1;
                    // Versions are unique across connections; 0 is the load.
                    let version = self.seq * 2 + self.conn;
                    let value = make_value(&key, version, YCSB_VALUE_BYTES);
                    Op {
                        class,
                        call: Call::Set(key, value),
                        expect: Expect::Ok,
                        logged: Some((id, version)),
                    }
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// processor-eventual
// ---------------------------------------------------------------------------

pub struct ProcShape {
    pub zipf: Zipf,
    pub perm: Vec<u32>,
    /// Per key id: whether its purposes whitelist [`PROC_PURPOSE`].
    pub allowed: Vec<bool>,
}

impl ProcShape {
    pub fn new(seed: u64) -> Self {
        let perm = permutation(PROC_RECORDS, &mut Rng::derive(seed, 12));
        let mut allowed = vec![true; PROC_RECORDS];
        // Every seventh popularity rank (3, 10, 17, …) is a record whose
        // purposes exclude the processors' purpose: about 14% of reads are
        // denials whatever the seed.
        for (rank, &id) in perm.iter().enumerate() {
            allowed[id as usize] = rank % 7 != 3;
        }
        ProcShape {
            zipf: Zipf::new(PROC_RECORDS, ZIPF_THETA),
            perm,
            allowed,
        }
    }

    pub fn purposes(&self, id: usize) -> &'static str {
        if self.allowed[id] {
            "analytics,billing"
        } else {
            "billing"
        }
    }
}

pub struct ProcGen {
    shape: Arc<ProcShape>,
    rng: Rng,
}

impl ProcGen {
    pub fn new(shape: Arc<ProcShape>, seed: u64, conn: usize) -> Self {
        ProcGen {
            shape,
            rng: Rng::derive(seed, 200 + conn as u64),
        }
    }
}

/// GDPRbench processor: 18 purpose-checked GET and 2 GDPR.GETMETA per round.
impl Generator for ProcGen {
    fn next_round(&mut self) -> Vec<Op> {
        let mut classes = [[Class::Get; 18].as_slice(), &[Class::GetMeta; 2]].concat();
        self.rng.shuffle(&mut classes);
        classes
            .into_iter()
            .map(|class| {
                let id = self.shape.perm[self.shape.zipf.sample(&mut self.rng)] as usize;
                let key = proc_key(id);
                if class == Class::Get {
                    let expect = if self.shape.allowed[id] {
                        Expect::Value(make_value(&key, 0, PROC_VALUE_BYTES))
                    } else {
                        Expect::Denied
                    };
                    Op {
                        class,
                        call: Call::Get(key),
                        expect,
                        logged: None,
                    }
                } else {
                    Op {
                        class,
                        call: Call::GetMeta(key),
                        expect: Expect::Meta {
                            subject: proc_subject(id),
                            purposes: self.shape.purposes(id).to_string(),
                            objected: Some(false),
                        },
                        logged: None,
                    }
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// customer-strict
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Record {
    key: String,
    version: u64,
    present: bool,
    objected: Option<bool>,
}

#[derive(Debug, Clone)]
struct Subject {
    name: String,
    records: Vec<Record>,
}

impl Subject {
    fn present(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.present)
    }
}

/// Visits every subject once, in a seeded order, before any twice: a run
/// then meets nearly the same mix of subject sizes whatever its seed.
#[derive(Debug, Clone)]
struct Cycle {
    order: Vec<usize>,
    at: usize,
}

impl Cycle {
    fn new(n: usize, rng: &mut Rng) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        Cycle { order, at: 0 }
    }

    /// The next subject in the order that satisfies `ok`, or the next one
    /// if a whole pass finds none.
    fn next(&mut self, rng: &mut Rng, ok: impl Fn(usize) -> bool) -> usize {
        let n = self.order.len();
        for step in 0..=n {
            if self.at == n {
                rng.shuffle(&mut self.order);
                self.at = 0;
            }
            let s = self.order[self.at];
            self.at += 1;
            if step == n || ok(s) {
                return s;
            }
        }
        unreachable!("the loop returns on its last step")
    }
}

/// The customer model of one connection: its subjects, their records,
/// and the queue of erased records awaiting re-registration.
#[derive(Debug, Clone)]
pub struct CustGen {
    rng: Rng,
    subjects: Vec<Subject>,
    pending: VecDeque<(usize, usize)>,
    lapsed_total: u64,
    /// Target order per rights class (KEYSOF, EXPORT, OBJECT, ERASE).
    cycles: [Cycle; 4],
}

/// Key counts of `n` subjects, drawn from `P(k) ∝ k^-2` on
/// `[CUST_MIN_KEYS, CUST_MAX_KEYS]` — most subjects own a few records, a
/// few own hundreds. The counts are the distribution's quantiles at
/// evenly spaced levels, so every seed has the same multiset of sizes (and
/// the same total); the seed only decides which subject gets which.
fn subject_sizes(n: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (CUST_MIN_KEYS..=CUST_MAX_KEYS)
        .map(|k| 1.0 / (k * k) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let mut u = (i as f64 + 0.5) / n as f64 * total;
            for (j, w) in weights.iter().enumerate() {
                if u < *w {
                    return CUST_MIN_KEYS + j;
                }
                u -= w;
            }
            CUST_MAX_KEYS
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

pub fn cust_put(key: &str, subject: &str, version: u64, ttl_ms: Option<u64>) -> Call {
    Call::Put {
        key: key.to_string(),
        subject: subject.to_string(),
        purposes: CUST_PURPOSES.split(',').map(str::to_string).collect(),
        value: make_value(key, version, CUST_VALUE_BYTES),
        ttl_ms,
    }
}

impl CustGen {
    pub fn new(seed: u64, conn: usize) -> Self {
        let sizes = subject_sizes(
            CUST_SUBJECTS_PER_CONN,
            &mut Rng::derive(seed, 300 + conn as u64),
        );
        let subjects = sizes
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                let name = format!("c{conn}s{i}");
                Subject {
                    records: (0..n)
                        .map(|j| Record {
                            key: format!("{name}k{j}"),
                            version: 0,
                            present: true,
                            objected: Some(false),
                        })
                        .collect(),
                    name,
                }
            })
            .collect();
        let mut rng = Rng::derive(seed, 400 + conn as u64);
        let cycles = std::array::from_fn(|_| Cycle::new(CUST_SUBJECTS_PER_CONN, &mut rng));
        CustGen {
            rng,
            cycles,
            subjects,
            pending: VecDeque::new(),
            lapsed_total: (LAPSED_SUBJECTS * LAPSED_KEYS_PER_SUBJECT) as u64,
        }
    }

    /// The writes that load this connection's subjects.
    pub fn load_calls(&self) -> Vec<Call> {
        self.subjects
            .iter()
            .flat_map(|s| {
                s.records
                    .iter()
                    .map(move |r| cust_put(&r.key, &s.name, r.version, None))
            })
            .collect()
    }

    fn any_subject(&mut self) -> usize {
        self.rng.below(self.subjects.len())
    }

    fn cycled(&mut self, which: usize) -> usize {
        self.cycles[which].next(&mut self.rng, |_| true)
    }

    fn op(&mut self, class: Class) -> Op {
        let (call, expect) = match class {
            Class::KeysOf => {
                let si = self.cycled(0);
                let s = &self.subjects[si];
                let mut keys: Vec<String> = s.present().map(|r| r.key.clone()).collect();
                keys.sort();
                (Call::KeysOf(s.name.clone()), Expect::Keys(keys))
            }
            Class::Export => {
                let si = self.cycled(1);
                let s = &self.subjects[si];
                let mut items: Vec<(String, Vec<u8>)> = s
                    .present()
                    .map(|r| {
                        (
                            r.key.clone(),
                            make_value(&r.key, r.version, CUST_VALUE_BYTES),
                        )
                    })
                    .collect();
                items.sort();
                (Call::Export(s.name.clone()), Expect::Export(items))
            }
            Class::GetMeta => {
                let si = self.any_subject();
                let ri = self.rng.below(self.subjects[si].records.len());
                let s = &self.subjects[si];
                let r = &s.records[ri];
                let expect = if r.present {
                    Expect::Meta {
                        subject: s.name.clone(),
                        purposes: CUST_PURPOSES.to_string(),
                        objected: r.objected,
                    }
                } else {
                    Expect::Absent
                };
                (Call::GetMeta(r.key.clone()), expect)
            }
            Class::Object => {
                let si = self.cycled(2);
                let s = &mut self.subjects[si];
                let mut n = 0;
                for r in s.records.iter_mut().filter(|r| r.present) {
                    r.objected = Some(true);
                    n += 1;
                }
                (
                    Call::Object(s.name.clone(), OBJECT_PURPOSE.to_string()),
                    Expect::Count(n),
                )
            }
            Class::Erase => {
                // Erase a fully registered subject when there is one, so
                // the keyspace stays near its loaded size.
                let subjects = &self.subjects;
                let si = self.cycles[3].next(&mut self.rng, |i| {
                    subjects[i].records.iter().all(|r| r.present)
                });
                let s = &mut self.subjects[si];
                let mut n = 0;
                for (ri, r) in s.records.iter_mut().enumerate() {
                    if r.present {
                        r.present = false;
                        r.objected = Some(false);
                        self.pending.push_back((si, ri));
                        n += 1;
                    }
                }
                (Call::Erase(s.name.clone()), Expect::Count(n))
            }
            Class::Put => {
                // Re-register erased records first; otherwise update a
                // present record of some subject.
                let (si, ri) = match self.pending.pop_front() {
                    Some(at) => at,
                    None => loop {
                        let si = self.any_subject();
                        let present: Vec<usize> = (0..self.subjects[si].records.len())
                            .filter(|&ri| self.subjects[si].records[ri].present)
                            .collect();
                        if !present.is_empty() {
                            break (si, present[self.rng.below(present.len())]);
                        }
                    },
                };
                let s = &mut self.subjects[si];
                let r = &mut s.records[ri];
                r.version += 1;
                r.objected = match (r.present, r.objected) {
                    (true, Some(false)) | (false, _) => Some(false),
                    _ => None,
                };
                r.present = true;
                (cust_put(&r.key, &s.name, r.version, None), Expect::Ok)
            }
            Class::RetentionCheck => (Call::Stats, Expect::Retention(self.lapsed_total)),
            Class::Get | Class::Set => unreachable!("customers make no plain reads or writes"),
        };
        Op {
            class,
            call,
            expect,
            logged: None,
        }
    }
}

/// The GDPRbench customer mix per round: KEYSOF 12, EXPORT 10, GETMETA 10,
/// OBJECT 6, ERASE 2 (30/25/25/15/5), plus 24 GDPR.PUT that re-register
/// erased records, and one retention check.
pub const CUST_ROUND: [(Class, usize); 7] = [
    (Class::KeysOf, 12),
    (Class::Export, 10),
    (Class::GetMeta, 10),
    (Class::Object, 6),
    (Class::Erase, 2),
    (Class::Put, 24),
    (Class::RetentionCheck, 1),
];

impl Generator for CustGen {
    fn next_round(&mut self) -> Vec<Op> {
        let mut classes: Vec<Class> = CUST_ROUND
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        self.rng.shuffle(&mut classes);
        classes.into_iter().map(|c| self.op(c)).collect()
    }

    fn final_state(&self) -> Vec<(String, Option<Vec<u8>>)> {
        self.subjects
            .iter()
            .flat_map(|s| s.records.iter())
            .map(|r| {
                let value = r
                    .present
                    .then(|| make_value(&r.key, r.version, CUST_VALUE_BYTES));
                (r.key.clone(), value)
            })
            .collect()
    }
}

/// The lapsed subjects' records: short retention, never touched again.
pub fn lapsed_calls() -> Vec<Call> {
    (0..LAPSED_SUBJECTS)
        .flat_map(|s| {
            (0..LAPSED_KEYS_PER_SUBJECT).map(move |j| {
                let subject = format!("lapsed{s}");
                cust_put(&format!("{subject}k{j}"), &subject, 0, Some(LAPSED_TTL_MS))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_rounds_are_whole_and_seeded() {
        let mut a = CustGen::new(9, 0);
        let mut b = CustGen::new(9, 0);
        for _ in 0..20 {
            let ra = a.next_round();
            let rb = b.next_round();
            assert_eq!(ra.len(), 65);
            let fa: Vec<Frame> = ra.iter().map(|o| o.call.frame()).collect();
            let fb: Vec<Frame> = rb.iter().map(|o| o.call.frame()).collect();
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn export_parser_reads_items() {
        let json = r#"{"format":"x","items":[{"key":"a","subject":"s","purposes":[],"recipients":[],"origin":"o","location":"eu","expires_at_ms":null,"automated_decisions":false,"value":"v1"},{"key":"b","subject":"s","value":"v2"}],"item_count":2}"#;
        assert_eq!(
            export_items(json),
            Some(vec![
                ("a".to_string(), b"v1".to_vec()),
                ("b".to_string(), b"v2".to_vec())
            ])
        );
    }

    #[test]
    fn write_log_flags_stale_reads() {
        let log = WriteLog::new(1);
        log.sent(0, 2, 10);
        log.acked(0, 2, 20);
        assert!(log.fresh(0, 0, 15).is_ok(), "write still in flight");
        assert!(
            log.fresh(0, 0, 25).is_err(),
            "acknowledged write replaced it"
        );
        assert!(log.fresh(0, 2, 25).is_ok());
        assert!(log.fresh(0, 5, 25).is_err(), "never written");
    }
}
