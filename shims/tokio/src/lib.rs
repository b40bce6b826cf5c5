//! Offline stand-in for `tokio` (see `shims/README.md`).
//!
//! The workspace's wire-level components (authoritative DNS server, DHCP
//! server, scan gateway) need an async runtime, but the hermetic build
//! container cannot fetch tokio. This shim provides the exact API surface
//! those components use, built on three simple mechanisms:
//!
//! * **Executor** — `block_on` polls the future in a loop. A socket future
//!   that hits `WouldBlock` registers its fd for the current poll; while
//!   the future is pending, the thread waits in `ppoll` on those fds, so it
//!   wakes when a datagram arrives. The wait lasts at most ~500µs, and
//!   with no fd registered it is a plain ~500µs park. A thread whose last
//!   wait ended with a socket ready checks its sockets, yielding between
//!   checks, for up to ~500µs before it sleeps again, so steady traffic
//!   seldom waits for a sleeping thread to be woken. There is no wake
//!   graph: every future in this shim re-checks its state on poll, so the
//!   bounded wait is a complete scheduling strategy for the futures with
//!   no fd behind them (`watch`, `oneshot`, `Semaphore`, `JoinHandle`,
//!   timers).
//! * **Tasks** — `tokio::spawn` runs the future to completion on a
//!   dedicated OS thread; the `JoinHandle` is a future over a shared slot.
//! * **I/O** — sockets are `std::net` sockets in nonblocking mode whose
//!   async methods translate `WouldBlock` into `Poll::Pending`.
//!
//! `select!` polls its arms in declaration order (biased), which is
//! indistinguishable from tokio for the shutdown-or-serve loops used here.

pub mod io;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod task;
pub mod time;

pub use task::spawn;
/// The `#[tokio::test]` attribute macro.
pub use tokio_macros::test;

#[doc(hidden)]
pub mod select_internal {
    /// Result carrier for the two-arm `select!` expansion.
    pub enum Either2<A, B> {
        A(A),
        B(B),
    }
}

/// Biased two-branch select: polls the first branch, then the second, each
/// time the enclosing task is polled. Supports the `pattern = future => block`
/// arm syntax the workspace uses.
#[macro_export]
macro_rules! select {
    ($p1:pat = $f1:expr => $b1:block $p2:pat = $f2:expr => $b2:block) => {{
        // Inner scope: both futures (and their borrows) are dropped before
        // an arm body runs, matching tokio's select! semantics.
        let __sel_out = {
            let __sel_fut1 = $f1;
            let __sel_fut2 = $f2;
            let mut __sel_fut1 = ::std::pin::pin!(__sel_fut1);
            let mut __sel_fut2 = ::std::pin::pin!(__sel_fut2);
            ::std::future::poll_fn(|__cx| {
                if let ::std::task::Poll::Ready(__v) =
                    ::std::future::Future::poll(__sel_fut1.as_mut(), __cx)
                {
                    return ::std::task::Poll::Ready($crate::select_internal::Either2::A(__v));
                }
                if let ::std::task::Poll::Ready(__v) =
                    ::std::future::Future::poll(__sel_fut2.as_mut(), __cx)
                {
                    return ::std::task::Poll::Ready($crate::select_internal::Either2::B(__v));
                }
                ::std::task::Poll::Pending
            })
            .await
        };
        match __sel_out {
            $crate::select_internal::Either2::A($p1) => $b1,
            $crate::select_internal::Either2::B($p2) => $b2,
        }
    }};
}
