//! One loopback connection of the load generator: a nonblocking
//! `TcpStream` with its own write and read buffers. Std-only on purpose —
//! the generator must not borrow the transport layer of the program it
//! measures.

use std::ffi::c_int;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A phase that makes no progress for this long is reported as a timeout
/// failure instead of hanging the run.
pub const STALL_LIMIT: Duration = Duration::from_secs(60);

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to one CPU. Returns whether the kernel accepted it (a host with fewer
/// CPUs refuses, and the run goes on unpinned).
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte CPU set and the size passed is its
    // size; pid 0 names the calling thread; the call writes nothing.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// One connection; see the module docs.
pub struct Link {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inp: Vec<u8>,
    in_start: usize,
    in_end: usize,
}

impl Link {
    pub fn connect(addr: SocketAddr) -> io::Result<Link> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Link {
            stream,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            inp: vec![0; 1 << 17],
            in_start: 0,
            in_end: 0,
        })
    }

    /// The request buffer; append whole request lines, then [`flush`].
    ///
    /// [`flush`]: Link::flush
    pub fn out(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    pub fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Writes as much buffered output as the socket takes right now.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Reads whatever the socket holds right now; returns the byte count
    /// (0 = nothing available). A closed connection is an error: no phase
    /// of the benchmark expects the peer to hang up.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.in_start > 0 && self.in_end == self.inp.len() {
            self.inp.copy_within(self.in_start..self.in_end, 0);
            self.in_end -= self.in_start;
            self.in_start = 0;
        }
        if self.in_end == self.inp.len() {
            // One reply line longer than the whole buffer: grow it.
            self.inp.resize(self.inp.len() * 2, 0);
        }
        loop {
            match self.stream.read(&mut self.inp[self.in_end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.in_end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Hands each complete buffered reply line (without its newline) to
    /// `on_line`, in arrival order.
    pub fn drain_lines(&mut self, mut on_line: impl FnMut(&[u8])) {
        while let Some(rel) = self.inp[self.in_start..self.in_end].iter().position(|&b| b == b'\n')
        {
            let end = self.in_start + rel;
            on_line(&self.inp[self.in_start..end]);
            self.in_start = end + 1;
        }
        if self.in_start == self.in_end {
            self.in_start = 0;
            self.in_end = 0;
        }
    }

    /// Depth-1 exchange: sends one request line and blocks for its one
    /// reply line (the control operations this serves take milliseconds
    /// to seconds, so the generator sleeps instead of spinning).
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_read_timeout(Some(STALL_LIMIT))?;
        let exchange = (|| {
            self.stream.write_all(request.as_bytes())?;
            self.stream.write_all(b"\n")?;
            let mut reply = None;
            while reply.is_none() {
                // In blocking mode a read that returns nothing timed out.
                if self.fill()? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no reply to {request:?} within {STALL_LIMIT:?}"),
                    ));
                }
                self.drain_lines(|line| {
                    reply.get_or_insert_with(|| String::from_utf8_lossy(line).into_owned());
                });
            }
            Ok(reply.expect("loop ends on a reply"))
        })();
        self.stream.set_nonblocking(true)?;
        exchange
    }
}

/// Appends `v` in decimal without going through `fmt`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Parses one distance token of a reply (`INF` = unreachable).
pub fn parse_distance(tok: &[u8]) -> Option<Option<u32>> {
    if tok == b"INF" {
        return Some(None);
    }
    if tok.is_empty() || tok.len() > 10 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + (b - b'0') as u64;
    }
    u32::try_from(v).ok().map(Some)
}
