//! Closed-loop clients: each waits for its reply before sending
//! its next request, and every reply is judged against the model.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use resp::Frame;

use crate::lat::Samples;
use crate::ops::{check, Generator, Op, Verdict, WriteLog, CLASSES};
use crate::stack::connect_authed;
use crate::wire::Conn;

/// Outcome counts and latencies of one or more clients.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub lat: [Samples; CLASSES.len()],
    pub attempted: [u64; CLASSES.len()],
    pub failed: [u64; CLASSES.len()],
    pub wrong: u64,
    pub notes: Vec<String>,
    pub client_ns: u64,
    /// Fixed sources only: `(conn, op index, sent_ns, done_ns, client_ns)`
    /// of every op, for the trace.
    pub op_spans: Vec<(usize, usize, u64, u64, u64)>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        for i in 0..CLASSES.len() {
            self.lat[i].merge(&other.lat[i]);
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
        }
        self.wrong += other.wrong;
        self.notes.extend(other.notes.iter().take(8).cloned());
        self.client_ns += other.client_ns;
        self.op_spans.extend_from_slice(&other.op_spans);
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Ops answered, failed or not.
    pub fn completed(&self) -> u64 {
        self.lat.iter().map(|s| s.len() as u64).sum()
    }

    pub fn all_latencies(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.lat {
            all.merge(s);
        }
        all
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Account one reply (or transport failure) to `op`.
    pub fn judge(
        &mut self,
        op: &Op,
        reply: Result<&Frame, &str>,
        sent: u64,
        took_ns: u64,
        log: Option<&WriteLog>,
    ) {
        let i = op.class.index();
        self.attempted[i] += 1;
        let verdict = match reply {
            Ok(frame) => {
                self.lat[i].record(took_ns);
                check(op, frame, sent, log)
            }
            Err(e) => Verdict::Failed(format!("{}: {e}", op.class.label())),
        };
        match verdict {
            Verdict::Pass => {}
            Verdict::Failed(msg) => {
                self.failed[i] += 1;
                self.note(format!("failed: {msg}"));
            }
            Verdict::Wrong(msg) => {
                self.wrong += 1;
                self.note(format!("wrong: {msg}"));
            }
        }
    }
}

/// Where ops come from: a generator producing whole rounds until the
/// run's time is up, or a fixed list replayed once.
pub enum Source {
    Timed(Box<dyn Generator>),
    Fixed(Vec<Op>),
}

/// What the clients of one run share.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub auth: (&'a str, &'a str),
    /// The clock the write log uses.
    pub epoch: Instant,
}

/// Drive one client over TCP. Rounds are only started before `until`;
/// a started round always runs to its end, except that after `hard_stop`
/// its remaining ops are counted failed without being sent.
fn tcp_client(
    conn_index: usize,
    plan: &Plan,
    source: Source,
    (until, hard_stop): (Instant, Instant),
    log: Option<Arc<WriteLog>>,
    progress: &AtomicU64,
) -> (Tally, Source) {
    let Plan { addr, auth, epoch } = *plan;
    let mut tally = Tally::default();
    let mut conn: Option<Conn> = None;
    let run_ops = |tally: &mut Tally, conn: &mut Option<Conn>, ops: &[Op], spans: bool| {
        for (idx, op) in ops.iter().enumerate() {
            if Instant::now() >= hard_stop {
                tally.judge(op, Err("run deadline passed"), 0, 0, None);
                continue;
            }
            if conn.is_none() {
                match connect_authed(addr, auth) {
                    Ok(c) => *conn = Some(c),
                    Err(e) => {
                        tally.judge(op, Err(&e), 0, 0, None);
                        continue;
                    }
                }
            }
            let c = conn.as_mut().expect("connected above");
            let client_before = c.client_ns;
            let frame = op.call.frame();
            let sent_at = Instant::now();
            let sent = sent_at.duration_since(epoch).as_nanos() as u64;
            if let (Some(log), Some((key, version))) = (&log, op.logged) {
                log.sent(key, version, sent);
            }
            let reply = c.call(&frame);
            let done = Instant::now();
            let took = done.duration_since(sent_at).as_nanos() as u64;
            if spans {
                tally.op_spans.push((
                    conn_index,
                    idx,
                    sent,
                    sent + took,
                    c.client_ns - client_before,
                ));
            }
            if let (Some(log), Some((key, version)), Ok(Frame::Simple(_))) =
                (&log, op.logged, &reply)
            {
                log.acked(key, version, done.duration_since(epoch).as_nanos() as u64);
            }
            progress.fetch_add(1, Ordering::Relaxed);
            match &reply {
                Ok(frame) => tally.judge(op, Ok(frame), sent, took, log.as_deref()),
                Err(e) => {
                    tally.judge(op, Err(e), sent, took, None);
                    // The stream may be out of step with its replies.
                    *conn = None;
                }
            }
        }
    };
    let source = match source {
        Source::Timed(mut gen) => {
            while Instant::now() < until {
                let round = gen.next_round();
                run_ops(&mut tally, &mut conn, &round, false);
            }
            Source::Timed(gen)
        }
        Source::Fixed(ops) => {
            run_ops(&mut tally, &mut conn, &ops, true);
            Source::Fixed(ops)
        }
    };
    if let Some(c) = conn {
        tally.client_ns += c.client_ns;
    }
    (tally, source)
}

/// A progress sample taken once a second during a run: seconds since its
/// start, process CPU seconds, ops answered so far.
pub type Sample = (f64, f64, u64);

/// Results of one closed-loop run.
pub struct RunOutcome {
    pub tally: Tally,
    /// From start until the last client finished its last round.
    pub wall: Duration,
    /// The sources back, whose models hold the state the run left.
    pub sources: Vec<Source>,
    /// One-second progress samples covering the timed window.
    pub samples: Vec<Sample>,
}

/// Run one client per source concurrently.
pub fn closed_loop(
    plan: &Plan,
    sources: Vec<Source>,
    seconds: f64,
    log: Option<Arc<WriteLog>>,
) -> RunOutcome {
    let first: Sample = (0.0, crate::cpu_seconds(), 0);
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let hard_stop = until + Duration::from_secs(40);
    let progress = AtomicU64::new(0);
    let finished = AtomicBool::new(false);
    let mut samples = Vec::new();
    let results: Vec<(Tally, Source)> = std::thread::scope(|scope| {
        let progress = &progress;
        let handles: Vec<_> = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| {
                let log = log.clone();
                scope.spawn(move || tcp_client(i, plan, source, (until, hard_stop), log, progress))
            })
            .collect();
        let monitor = scope.spawn(|| {
            let mut samples = vec![first];
            let mut next = started + Duration::from_secs(1);
            while next <= until && !finished.load(Ordering::Relaxed) {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                samples.push((
                    started.elapsed().as_secs_f64(),
                    crate::cpu_seconds(),
                    progress.load(Ordering::Relaxed),
                ));
                next += Duration::from_secs(1);
            }
            samples
        });
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        finished.store(true, Ordering::Relaxed);
        samples = monitor.join().expect("monitor thread panicked");
        results
    });
    let wall = started.elapsed();
    let mut total = Tally::default();
    let mut sources = Vec::new();
    for (t, source) in results {
        total.merge(&t);
        sources.push(source);
    }
    RunOutcome {
        tally: total,
        wall,
        sources,
        samples,
    }
}
