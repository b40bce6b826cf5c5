//! The blocking executor: poll the root future, then wait on the sockets it
//! is blocked on, or for a fixed interval when it is blocked on none. A
//! thread that has just had socket work checks its sockets for one interval
//! before it sleeps.

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::future::Future;
use std::io;
use std::os::fd::RawFd;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// The longest the executor waits between two polls of the root future.
/// Socket futures register their fd and wake the executor as soon as it is
/// ready; every other future (`watch`, `oneshot`, `Semaphore`, `JoinHandle`,
/// `sleep`) re-checks its state on poll, so this bounds the added latency
/// of each of their state transitions. It is also how long a thread whose
/// socket just became ready keeps checking for the next readiness before it
/// sleeps.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Readable, as in `poll(2)`.
pub(crate) const POLLIN: i16 = 0x1;
/// Writable, as in `poll(2)`.
pub(crate) const POLLOUT: i16 = 0x4;

/// `struct pollfd` of 64-bit Linux.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
}

thread_local! {
    /// The fds the current poll of this thread's root future is blocked on.
    static INTEREST: RefCell<Vec<PollFd>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread's last wait ended with a registered fd ready.
    static BUSY: Cell<bool> = const { Cell::new(false) };
}

/// Drive a future to completion: poll it, and while it is pending wait for
/// one of the fds it registered to become ready, at most [`POLL_INTERVAL`].
pub(crate) fn block_on_impl<F: Future>(fut: F) -> F::Output {
    // A nested `block_on` (a runtime entered inside a task) keeps its own
    // list, and the enclosing loop gets back exactly the fds it registered.
    let outer = INTEREST.with_borrow_mut(std::mem::take);
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    let out = loop {
        INTEREST.with_borrow_mut(Vec::clear);
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            break v;
        }
        INTEREST.with_borrow_mut(|fds| wait(fds));
    };
    INTEREST.with_borrow_mut(|fds| *fds = outer);
    out
}

/// Wait until one of `fds` is ready or [`POLL_INTERVAL`] passes. A stale
/// fd (its socket dropped after it registered) ends the wait early at most
/// once, since the list is rebuilt on every poll. Should `ppoll` fail, the
/// timed park keeps the bound.
///
/// A thread whose last wait ended ready is likely to be woken again soon, so
/// it checks the fds, yielding the CPU between checks, instead of sleeping.
/// Waking a sleeping thread can cost far more than the work it wakes for: on
/// a virtual machine whose idle CPUs halt, the hypervisor must schedule the
/// CPU again, and under host contention that takes hundreds of µs. The
/// yield lets every other runnable thread, such as the peer about to send
/// the next datagram, go first. A thread that finds nothing for one interval
/// sleeps from its next wait on, so an idle socket costs no CPU.
fn wait(fds: &mut [PollFd]) {
    if fds.is_empty() {
        std::thread::park_timeout(POLL_INTERVAL);
        return;
    }
    let ready = if BUSY.get() {
        spin(fds)
    } else {
        ppoll_for(fds, POLL_INTERVAL)
    };
    let ready = ready.unwrap_or_else(|_| {
        std::thread::park_timeout(POLL_INTERVAL);
        false
    });
    BUSY.set(ready);
}

/// Check `fds` without sleeping, yielding the CPU between checks, for at
/// most [`POLL_INTERVAL`]: whether one became ready.
fn spin(fds: &mut [PollFd]) -> io::Result<bool> {
    let until = Instant::now() + POLL_INTERVAL;
    while !ppoll_for(fds, Duration::ZERO)? {
        if Instant::now() >= until {
            return Ok(false);
        }
        std::thread::yield_now();
    }
    Ok(true)
}

/// `ppoll` on `fds` for at most `timeout`: whether one is ready. A signal
/// that interrupts the wait counts as a wait that found nothing.
fn ppoll_for(fds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is exactly `fds.len()` initialised `pollfd`s, borrowed
    // mutably for the call; `ts` outlives it; a null signal mask leaves the
    // thread's mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(rc > 0)
}

/// Yield `Pending` exactly once, after registering interest in `events` on
/// `fd`, so a `WouldBlock` loop sleeps until the socket can make progress
/// and then retries.
pub(crate) async fn pending_on(fd: RawFd, events: i16) {
    let mut first = true;
    std::future::poll_fn(move |_| {
        if first {
            first = false;
            INTEREST.with_borrow_mut(|fds| {
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                })
            });
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    })
    .await
}

/// Runtime handle. All flavors share the same blocking executor.
#[derive(Debug)]
pub struct Runtime {
    _private: (),
}

impl Runtime {
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        block_on_impl(fut)
    }
}

/// Runtime builder mirroring tokio's fluent API; every configuration
/// produces the same blocking executor.
#[derive(Debug)]
pub struct Builder {
    _private: (),
}

impl Builder {
    pub fn new_current_thread() -> Builder {
        Builder { _private: () }
    }

    pub fn new_multi_thread() -> Builder {
        Builder { _private: () }
    }

    pub fn worker_threads(&mut self, _n: usize) -> &mut Builder {
        self
    }

    pub fn enable_all(&mut self) -> &mut Builder {
        self
    }

    pub fn build(&mut self) -> io::Result<Runtime> {
        Ok(Runtime { _private: () })
    }
}
