//! Deterministic syscall-level fault injection for chaos tests.
//!
//! The serving stack (server reactor, router, store) funnels every raw
//! syscall-ish operation — stream reads/writes, `accept`, `epoll_wait`,
//! non-blocking `connect`, eventfd wakeups, `mmap` — through a single
//! [`check`] hook keyed by [`Op`]. Tests install a `Script` (the type
//! exists only under the `fault-injection` feature): an ordered rule table
//! saying "on the N-th `Read`, return `EINTR`", "every other
//! `Write` is short", "the first `Mmap` fails with `ENOMEM`". The faulted
//! call *does not happen*; the injected outcome flows through the exact
//! error-handling arm the real syscall result would have taken, so retry
//! loops, backoff paths, and fallbacks are exercised byte-for-byte.
//!
//! Determinism: each installed script owns one atomic call counter **per
//! op**, and rules trigger on that per-op count. As long as a given op is
//! only issued from one thread (true for every reactor-owned fd), the same
//! script always produces the same failure sequence — chaos tests are
//! replayable, not flaky.
//!
//! # Cost when disabled
//!
//! Without the `fault-injection` cargo feature, [`check`] is an
//! `#[inline(always)]` constant returning [`Verdict::Proceed`]; every
//! call site folds to nothing. The feature is never enabled by default
//! builds or tier-1 tests — only the dedicated chaos CI job turns it on.
//!
//! # Writing a chaos test
//!
//! ```ignore
//! use hcl_core::fault::{self, Fault, Op, Script, Trigger};
//!
//! let _serial = fault::exclusive(); // one global script at a time
//! let guard = fault::install_global(
//!     Script::new()
//!         .on(Op::Read, Trigger::At(2), Fault::Errno(fault::ECONNRESET))
//!         .on(Op::Read, Trigger::Always, Fault::Short(1)),
//! );
//! // ... drive the server; the 3rd read resets, every other read is 1 byte
//! assert!(guard.calls(Op::Read) > 2);
//! // dropping `guard` uninstalls the script
//! ```

use std::io;

/// The faultable operation classes. Server-side connection I/O and
/// router-side upstream I/O are distinct lanes so a router chaos test can
/// break the client leg and the upstream leg independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// A connection-stream `read` in the server/router accept path.
    Read = 0,
    /// A connection-stream `write` in the server/router accept path.
    Write = 1,
    /// `accept` on the listening socket.
    Accept = 2,
    /// `epoll_wait` in a reactor loop.
    EpollWait = 3,
    /// Non-blocking `connect` initiation (router → upstream).
    Connect = 4,
    /// `read` on a router upstream wire.
    UpstreamRead = 5,
    /// `write` on a router upstream wire.
    UpstreamWrite = 6,
    /// `mmap` of a packed index file.
    Mmap = 7,
    /// The raw `read` draining an eventfd wakeup.
    EventFdRead = 8,
    /// The raw `write` signalling an eventfd wakeup.
    EventFdWrite = 9,
}

/// Number of [`Op`] lanes (length of the per-script counter array).
pub const NUM_OPS: usize = 10;

/// `EINTR`: interrupted by signal (kind [`io::ErrorKind::Interrupted`]).
pub const EINTR: i32 = 4;
/// `EAGAIN`/`EWOULDBLOCK` (kind [`io::ErrorKind::WouldBlock`]).
pub const EAGAIN: i32 = 11;
/// `ENOMEM`: out of memory — the classic `mmap` failure.
pub const ENOMEM: i32 = 12;
/// `EMFILE`: fd table full — the classic `accept` failure.
pub const EMFILE: i32 = 24;
/// `ECONNRESET` (kind [`io::ErrorKind::ConnectionReset`]).
pub const ECONNRESET: i32 = 104;

/// What an injected fault does to the intercepted call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The call fails with this OS errno (the hook surfaces it as
    /// `io::Error::from_raw_os_error`, so `.kind()` matching in the real
    /// error arms applies unchanged).
    Errno(i32),
    /// A read/write/mmap succeeds but only for the first `n` bytes.
    Short(usize),
    /// A read observes end-of-stream (returns 0 bytes).
    Eof,
}

/// When a rule fires, in terms of the per-op call count (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Exactly the `n`-th call.
    At(u64),
    /// Calls in `[start, end)`.
    Range(u64, u64),
    /// Every `k`-th call (`count % k == 0`); `Every(1)` ≡ `Always`.
    Every(u64),
    /// Every call.
    Always,
}

impl Trigger {
    /// Whether this trigger fires on the given 0-based per-op call count.
    pub fn matches(&self, count: u64) -> bool {
        match *self {
            Trigger::At(n) => count == n,
            Trigger::Range(start, end) => count >= start && count < end,
            Trigger::Every(k) => k != 0 && count.is_multiple_of(k),
            Trigger::Always => true,
        }
    }
}

/// One scripted fault: `fault` fires whenever `trigger` matches the
/// per-`op` call count. Rules are consulted in insertion order; the first
/// match wins.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub op: Op,
    pub trigger: Trigger,
    pub fault: Fault,
}

/// The outcome of [`check`]: what the call site should do.
#[derive(Debug)]
pub enum Verdict {
    /// No fault — perform the real operation.
    Proceed,
    /// Perform the operation, but clamped to at most this many bytes.
    Short(usize),
    /// Skip the operation and fail with this error.
    Fail(io::Error),
    /// Skip the operation and report end-of-stream (0 bytes).
    Eof,
}

#[cfg(feature = "fault-injection")]
pub use imp::{exclusive, install, install_global, Script, ScriptGuard};

#[cfg(feature = "fault-injection")]
mod imp {
    use super::{Fault, Op, Rule, Trigger, Verdict, NUM_OPS};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// An installed fault script: an ordered rule table plus one call
    /// counter per [`Op`] lane. Build with [`Script::new`] + [`Script::on`],
    /// then activate with [`install`] (this thread only) or
    /// [`install_global`] (all threads, e.g. a spawned reactor).
    #[derive(Debug, Default)]
    pub struct Script {
        rules: Vec<Rule>,
        counters: [AtomicU64; NUM_OPS],
    }

    impl Script {
        pub fn new() -> Script {
            Script { rules: Vec::new(), counters: std::array::from_fn(|_| AtomicU64::new(0)) }
        }

        /// Appends a rule (first matching rule wins).
        pub fn on(mut self, op: Op, trigger: Trigger, fault: Fault) -> Script {
            self.rules.push(Rule { op, trigger, fault });
            self
        }

        /// Consumes one call on `op`'s counter and returns the verdict.
        fn apply(&self, op: Op) -> Verdict {
            let count = self.counters[op as usize].fetch_add(1, Ordering::SeqCst);
            for rule in &self.rules {
                if rule.op == op && rule.trigger.matches(count) {
                    return match rule.fault {
                        Fault::Errno(errno) => {
                            Verdict::Fail(std::io::Error::from_raw_os_error(errno))
                        }
                        Fault::Short(n) => Verdict::Short(n),
                        Fault::Eof => Verdict::Eof,
                    };
                }
            }
            Verdict::Proceed
        }

        /// How many times `op` has been checked against this script.
        pub fn calls(&self, op: Op) -> u64 {
            self.counters[op as usize].load(Ordering::SeqCst)
        }
    }

    thread_local! {
        static TLS_SCRIPT: RefCell<Option<Arc<Script>>> = const { RefCell::new(None) };
    }

    static GLOBAL_SCRIPT: Mutex<Option<Arc<Script>>> = Mutex::new(None);

    /// Serialises tests that install global scripts: hold the returned
    /// guard for the whole test so two `#[test]` threads in one binary
    /// never see each other's faults.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub fn exclusive() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Uninstalls its script on drop; exposes the script's call counters
    /// so tests can assert how far the failure sequence ran.
    #[must_use = "dropping the guard uninstalls the script immediately"]
    pub struct ScriptGuard {
        script: Arc<Script>,
        global: bool,
    }

    impl ScriptGuard {
        /// How many times `op` was checked while this script was live.
        pub fn calls(&self, op: Op) -> u64 {
            self.script.calls(op)
        }
    }

    impl Drop for ScriptGuard {
        fn drop(&mut self) {
            if self.global {
                *GLOBAL_SCRIPT.lock().unwrap_or_else(|p| p.into_inner()) = None;
            } else {
                let _ = TLS_SCRIPT.try_with(|slot| slot.borrow_mut().take());
            }
        }
    }

    /// Installs `script` for the **current thread** only. Use for unit
    /// tests that drive the faulted code on the test thread itself.
    pub fn install(script: Script) -> ScriptGuard {
        let script = Arc::new(script);
        TLS_SCRIPT.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&script)));
        ScriptGuard { script, global: false }
    }

    /// Installs `script` for **every thread without a thread-local
    /// script** — the way to fault a spawned reactor. Pair with
    /// [`exclusive`] so concurrent tests in one binary don't interleave.
    pub fn install_global(script: Script) -> ScriptGuard {
        let script = Arc::new(script);
        *GLOBAL_SCRIPT.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&script));
        ScriptGuard { script, global: true }
    }

    pub(super) fn check_installed(op: Op) -> Verdict {
        // A thread-local script shadows the global one; TLS teardown
        // (thread exit) falls through to the global table.
        let tls = TLS_SCRIPT.try_with(|slot| slot.borrow().as_ref().map(Arc::clone)).ok().flatten();
        if let Some(script) = tls {
            return script.apply(op);
        }
        let global = GLOBAL_SCRIPT.lock().unwrap_or_else(|p| p.into_inner()).clone();
        match global {
            Some(script) => script.apply(op),
            None => Verdict::Proceed,
        }
    }

    #[allow(dead_code)]
    fn _rule_fields_are_public(r: Rule) -> (Op, Trigger, Fault) {
        (r.op, r.trigger, r.fault)
    }
}

/// The hot-path hook: every faultable call site asks "what should this
/// call do?". With the `fault-injection` feature off this is a constant
/// [`Verdict::Proceed`] and the whole call-site match folds away.
#[cfg(feature = "fault-injection")]
#[inline]
pub fn check(op: Op) -> Verdict {
    imp::check_installed(op)
}

/// The hot-path hook (disabled build): always [`Verdict::Proceed`].
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check(_op: Op) -> Verdict {
    Verdict::Proceed
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn triggers_match_expected_counts() {
        assert!(Trigger::At(3).matches(3) && !Trigger::At(3).matches(2));
        assert!(Trigger::Range(1, 4).matches(1) && Trigger::Range(1, 4).matches(3));
        assert!(!Trigger::Range(1, 4).matches(4));
        assert!(Trigger::Every(2).matches(0) && Trigger::Every(2).matches(4));
        assert!(!Trigger::Every(2).matches(3));
        assert!(!Trigger::Every(0).matches(0), "Every(0) never fires");
        assert!(Trigger::Always.matches(u64::MAX));
    }

    #[test]
    fn thread_local_script_fires_in_order_and_uninstalls_on_drop() {
        let _serial = exclusive();
        let guard = install(
            Script::new()
                .on(Op::Read, Trigger::At(1), Fault::Errno(EINTR))
                .on(Op::Read, Trigger::At(2), Fault::Short(1))
                .on(Op::Read, Trigger::At(3), Fault::Eof),
        );
        assert!(matches!(check(Op::Read), Verdict::Proceed));
        match check(Op::Read) {
            Verdict::Fail(e) => assert_eq!(e.kind(), io::ErrorKind::Interrupted),
            other => panic!("expected EINTR, got {other:?}"),
        }
        assert!(matches!(check(Op::Read), Verdict::Short(1)));
        assert!(matches!(check(Op::Read), Verdict::Eof));
        assert!(matches!(check(Op::Read), Verdict::Proceed));
        // Ops are independent lanes.
        assert!(matches!(check(Op::Write), Verdict::Proceed));
        assert_eq!(guard.calls(Op::Read), 5);
        assert_eq!(guard.calls(Op::Write), 1);
        drop(guard);
        assert!(matches!(check(Op::Read), Verdict::Proceed));
    }

    #[test]
    fn global_script_reaches_other_threads_and_first_rule_wins() {
        let _serial = exclusive();
        let guard =
            install_global(Script::new().on(Op::Accept, Trigger::At(0), Fault::Errno(EMFILE)).on(
                Op::Accept,
                Trigger::Always,
                Fault::Errno(ECONNRESET),
            ));
        let kinds: Vec<io::ErrorKind> = std::thread::spawn(|| {
            (0..2)
                .map(|_| match check(Op::Accept) {
                    Verdict::Fail(e) => e.kind(),
                    other => panic!("expected Fail, got {other:?}"),
                })
                .collect()
        })
        .join()
        .unwrap();
        // EMFILE has no dedicated stable ErrorKind; match via raw errno
        // semantics: first call EMFILE rule, second the reset catch-all.
        assert_ne!(kinds[0], io::ErrorKind::ConnectionReset);
        assert_eq!(kinds[1], io::ErrorKind::ConnectionReset);
        assert_eq!(guard.calls(Op::Accept), 2);
        drop(guard);
        assert!(matches!(check(Op::Accept), Verdict::Proceed));
    }

    #[test]
    fn thread_local_shadows_global() {
        let _serial = exclusive();
        let _global =
            install_global(Script::new().on(Op::Mmap, Trigger::Always, Fault::Errno(ENOMEM)));
        let tls = install(Script::new());
        assert!(matches!(check(Op::Mmap), Verdict::Proceed), "empty TLS script shadows global");
        drop(tls);
        assert!(matches!(check(Op::Mmap), Verdict::Fail(_)));
    }
}
