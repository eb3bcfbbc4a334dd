//! A blocking RESP client that waits for each reply only up to a
//! deadline, so a stalled server yields failed ops and a finished run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use resp::decode::Decoder;
use resp::encode::encode_frame;
use resp::Frame;

pub struct Conn {
    stream: TcpStream,
    decoder: Decoder,
    buf: Vec<u8>,
    timeout: Duration,
    /// Nanoseconds this client spent encoding requests and decoding
    /// replies (the client's own share of each round trip).
    pub client_ns: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            decoder: Decoder::new(),
            buf: vec![0; 64 * 1024],
            timeout,
            client_ns: 0,
        })
    }

    /// Send `frames` as one pipelined batch and read one reply per frame.
    pub fn pipeline(&mut self, frames: &[Frame]) -> Result<Vec<Frame>, String> {
        let started = Instant::now();
        let mut out = Vec::new();
        for frame in frames {
            out.extend_from_slice(&encode_frame(frame));
        }
        self.client_ns += started.elapsed().as_nanos() as u64;
        self.stream
            .write_all(&out)
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + self.timeout;
        let mut replies = Vec::with_capacity(frames.len());
        while replies.len() < frames.len() {
            let t = Instant::now();
            let next = self.decoder.next_frame();
            self.client_ns += t.elapsed().as_nanos() as u64;
            match next {
                Ok(Some(frame)) => {
                    replies.push(frame);
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(format!("protocol: {e}")),
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("no reply within {:?}", self.timeout));
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| format!("socket: {e}"))?;
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(n) => {
                    let t = Instant::now();
                    self.decoder.feed(&self.buf[..n]);
                    self.client_ns += t.elapsed().as_nanos() as u64;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(format!("no reply within {:?}", self.timeout));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        Ok(replies)
    }

    pub fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.pipeline(std::slice::from_ref(frame))
            .map(|mut r| r.pop().expect("one reply per request"))
    }
}
