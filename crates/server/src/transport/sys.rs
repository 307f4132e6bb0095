//! Minimal Linux `epoll` / `eventfd` / socket bindings, declared by hand
//! so the workspace stays std-only (std already links libc; these few
//! syscalls are the only thing the reactors need beyond what std
//! exposes).
//!
//! Everything is wrapped in two tiny RAII types — [`Epoll`] and
//! [`EventFd`] — plus two free functions for the one socket operation std
//! hides: starting a TCP connect *without blocking*
//! ([`connect_nonblocking`]) and collecting its verdict once epoll
//! reports the socket writable ([`socket_error`]). The rest of the crate
//! never touches a raw fd except to register sockets it already owns.

use hcl_core::fault;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never registered).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported, never registered).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_ERROR: c_int = 4;
const EINPROGRESS: i32 = 115;

/// `struct sockaddr_in` (Linux layout; port and address in network byte
/// order).
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6` (Linux layout).
#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port_be: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// One readiness event. The kernel ABI packs this struct on x86_64 and
/// uses natural alignment everywhere else — mirror that exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The token registered with the fd (connection id, listener, wake).
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
    fn getsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut c_uint,
    ) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Starts a TCP connect to `addr` without blocking.
///
/// Returns the (nonblocking, close-on-exec) socket plus `true` when the
/// handshake is still in flight (`EINPROGRESS`): register the fd for
/// `EPOLLOUT`, and when it fires call [`socket_error`] for the verdict.
/// `false` means the connect completed synchronously (common on
/// loopback). Address-family mismatches and synchronous refusals report
/// as `Err`.
///
/// std has no equivalent — `TcpStream::connect_timeout` parks the calling
/// thread in `poll(2)`, which is exactly the reactor stall this function
/// exists to avoid.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
    use std::os::fd::{AsRawFd, FromRawFd};

    match fault::check(fault::Op::Connect) {
        fault::Verdict::Proceed => {}
        // An injected failure behaves like a synchronous refusal: no
        // socket is created and the caller's error path runs unchanged.
        fault::Verdict::Fail(e) => return Err(e),
        fault::Verdict::Short(_) | fault::Verdict::Eof => {
            return Err(io::Error::from(io::ErrorKind::ConnectionRefused));
        }
    }
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    let fd = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // Owned from here on: any error path below closes the fd on drop.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port_be: v4.port().to_be(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            unsafe {
                connect(
                    stream.as_raw_fd(),
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as c_uint,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6 as u16,
                port_be: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            unsafe {
                connect(
                    stream.as_raw_fd(),
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as c_uint,
                )
            }
        }
    };
    if rc == 0 {
        return Ok((stream, false));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        Ok((stream, true))
    } else {
        Err(err)
    }
}

/// Collects and clears the pending error on a socket (`SO_ERROR`) — the
/// verdict of an in-progress [`connect_nonblocking`] once epoll reports
/// the fd writable. `Ok(())` means the connection is established.
pub fn socket_error(fd: RawFd) -> io::Result<()> {
    let mut err: c_int = 0;
    let mut len = std::mem::size_of::<c_int>() as c_uint;
    cvt(unsafe {
        getsockopt(fd, SOL_SOCKET, SO_ERROR, (&mut err as *mut c_int).cast(), &mut len)
    })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

/// An owned epoll instance (level-triggered use only in this crate).
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` for `events`, tagging readiness with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set for `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for readiness, at most `timeout_ms` milliseconds (−1 =
    /// forever), filling `events` from the front. Returns how many fired;
    /// a signal interruption simply reports zero so the caller's loop
    /// re-evaluates its deadlines.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // Injection happens at the syscall-result level so a scripted
        // `EINTR` exercises the same interrupted-wait mapping below.
        let raw = match fault::check(fault::Op::EpollWait) {
            fault::Verdict::Proceed => {
                let n = unsafe {
                    epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
                };
                if n < 0 {
                    Err(io::Error::last_os_error())
                } else {
                    Ok(n as usize)
                }
            }
            fault::Verdict::Fail(e) => Err(e),
            fault::Verdict::Short(_) | fault::Verdict::Eof => Ok(0),
        };
        match raw {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            other => other,
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used as the reactor's wakeup: worker threads
/// [`signal`](Self::signal) it after a push that found the completion
/// queue empty (and shutdown signals it after flipping the flag); the
/// reactor holds it in its epoll
/// set and [`drain`](Self::drain)s it when it fires. This replaces the old
/// connect-to-self "poke" — waking the event loop is one 8-byte write on an
/// fd the process already owns.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter zero.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The fd to register with an [`Epoll`].
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds one to the counter, waking any epoll waiting on it, retrying
    /// an interrupted write — an `EINTR` swallowed here would be a lost
    /// wakeup and a reactor that sleeps on queued completions. A full
    /// counter (`EAGAIN`) already guarantees a pending wakeup, so every
    /// non-interrupted outcome is a successful wake.
    pub fn signal(&self) {
        let one: u64 = 1;
        loop {
            match fault::check(fault::Op::EventFdWrite) {
                fault::Verdict::Proceed => {}
                fault::Verdict::Fail(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                fault::Verdict::Fail(_) | fault::Verdict::Short(_) | fault::Verdict::Eof => return,
            }
            let rc = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
            if rc < 0 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return;
        }
    }

    /// Zeroes the counter so the (level-triggered) fd stops reporting
    /// readable, retrying an interrupted read — leaving the counter
    /// nonzero would spin the level-triggered reactor until a later drain
    /// succeeds.
    pub fn drain(&self) {
        let mut value: u64 = 0;
        loop {
            match fault::check(fault::Op::EventFdRead) {
                fault::Verdict::Proceed => {}
                fault::Verdict::Fail(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                fault::Verdict::Fail(_) | fault::Verdict::Short(_) | fault::Verdict::Eof => return,
            }
            let rc = unsafe { read(self.fd, (&mut value as *mut u64).cast(), 8) };
            if rc < 0 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return;
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signals_and_drains() {
        let efd = EventFd::new().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::default(); 4];
        // Nothing signalled: a zero-timeout wait reports nothing.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        efd.signal();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let (fired, token) = (events[0].events, events[0].data);
        assert_ne!(fired & EPOLLIN, 0);
        assert_eq!(token, 7);

        // Level-triggered: still readable until drained, then quiet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn signal_from_another_thread_wakes_a_blocking_wait() {
        let efd = std::sync::Arc::new(EventFd::new().unwrap());
        let epoll = Epoll::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 1).unwrap();

        let signaller = std::sync::Arc::clone(&efd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            signaller.signal();
        });
        let mut events = [EpollEvent::default(); 1];
        // Blocks until the other thread signals (bounded for test safety).
        assert_eq!(epoll.wait(&mut events, 10_000).unwrap(), 1);
        t.join().unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_via_epollout() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let (stream, in_progress) = connect_nonblocking(&addr).unwrap();
        if in_progress {
            let epoll = Epoll::new().unwrap();
            epoll.add(stream.as_raw_fd(), EPOLLOUT, 9).unwrap();
            let mut events = [EpollEvent::default(); 1];
            assert_eq!(epoll.wait(&mut events, 5_000).unwrap(), 1);
        }
        socket_error(stream.as_raw_fd()).unwrap();
        // The handshake really happened: the listener sees the peer.
        let (_peer, peer_addr) = listener.accept().unwrap();
        assert_eq!(peer_addr, stream.local_addr().unwrap());
    }

    #[test]
    fn nonblocking_connect_to_closed_port_reports_the_refusal() {
        use std::os::fd::AsRawFd;
        // Bind-then-drop: the port is free, so nothing is listening.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            // Loopback refusals usually surface synchronously.
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok((stream, true)) => {
                let epoll = Epoll::new().unwrap();
                epoll.add(stream.as_raw_fd(), EPOLLOUT, 0).unwrap();
                let mut events = [EpollEvent::default(); 1];
                assert_eq!(epoll.wait(&mut events, 5_000).unwrap(), 1);
                socket_error(stream.as_raw_fd()).unwrap_err();
            }
            Ok((_, false)) => panic!("connect to a closed port cannot succeed"),
        }
    }

    #[test]
    fn modify_and_delete_change_the_interest_set() {
        let efd = EventFd::new().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(efd.raw(), 0, 3).unwrap();
        efd.signal();
        // Registered with an empty interest set: no events.
        let mut events = [EpollEvent::default(); 1];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        epoll.modify(efd.raw(), EPOLLIN, 3).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        epoll.delete(efd.raw()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
