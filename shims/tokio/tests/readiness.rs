//! Readiness-driven waits: a task blocked on a socket wakes when the socket
//! becomes ready, while futures with no fd behind them still complete
//! through the executor's bounded timed wait. A thread that just had socket
//! work checks its sockets without sleeping for one interval, and an idle
//! one sleeps.

use std::future::Future;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::task::Poll;
use std::time::{Duration, Instant};
use tokio::net::UdpSocket;
use tokio::runtime::{Builder, Runtime};
use tokio::sync::{oneshot, watch};

/// Anything that does not finish within this is taken to hang.
const HANG: Duration = Duration::from_secs(10);

fn runtime() -> Runtime {
    Builder::new_current_thread().build().expect("runtime")
}

/// Run `f` on its own thread and fail the test if it does not return within
/// [`HANG`]. A test thread stuck forever would otherwise stall the suite.
fn within_hang_bound<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(HANG).expect("the executor hung")
}

/// Poll `fut`, counting its polls in `polls` and calling `on_pending` after
/// the first poll that returns `Pending`.
async fn observed<F: Future>(fut: F, polls: &AtomicU32, on_pending: impl FnOnce()) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let mut on_pending = Some(on_pending);
    std::future::poll_fn(|cx| {
        polls.fetch_add(1, Ordering::Relaxed);
        let out = fut.as_mut().poll(cx);
        if out.is_pending() {
            if let Some(f) = on_pending.take() {
                f();
            }
        }
        out
    })
    .await
}

/// Polls of a 20 ms sleep: about 40 when every wait lasts the full timed
/// interval, thousands when the executor spins.
async fn sleep_polls() -> u32 {
    let polls = AtomicU32::new(0);
    observed(tokio::time::sleep(Duration::from_millis(20)), &polls, || {}).await;
    polls.load(Ordering::Relaxed)
}

/// Far above the ~40 polls a 20 ms sleep takes at 500 µs per wait, far below
/// the count of a spinning loop.
const MAX_SLEEP_POLLS: u32 = 400;

#[test]
fn recv_from_wakes_when_its_datagram_arrives() {
    let rt = runtime();
    let mut latencies: Vec<Duration> = (0..21u64)
        .map(|trial| {
            let socket = rt.block_on(UdpSocket::bind("127.0.0.1:0")).expect("bind");
            let addr = socket.local_addr().expect("addr");
            let (blocked_tx, blocked_rx) = mpsc::channel();
            let sender = std::thread::spawn(move || {
                blocked_rx.recv().expect("receiver blocked");
                // Give the receiver time to enter its wait, so the datagram
                // lands while it sleeps rather than before. The delay steps
                // across 500 µs over the trials, so a loop that only wakes
                // on a fixed period cannot stay in phase with the sends.
                std::thread::sleep(Duration::from_micros(2_000 + trial * 24));
                let tx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender");
                let sent_at = Instant::now();
                tx.send_to(b"ping", addr).expect("send");
                sent_at
            });
            let polls = AtomicU32::new(0);
            let mut buf = [0u8; 16];
            let received_at = rt.block_on(async {
                let (n, _) = observed(socket.recv_from(&mut buf), &polls, || {
                    let _ = blocked_tx.send(());
                })
                .await
                .expect("recv");
                assert_eq!(&buf[..n], b"ping");
                Instant::now()
            });
            received_at.saturating_duration_since(sender.join().expect("sender thread"))
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_micros(200),
        "median wake latency {median:?} over 21 trials; all: {latencies:?}"
    );
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The calling thread's CPU time and its voluntary context switches, which
/// count every time it slept.
fn this_thread_usage() -> (Duration, i64) {
    const RUSAGE_THREAD: i32 = 1;
    let mut r = Rusage::default();
    // SAFETY: `r` is a writable `struct rusage` for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD)");
    let micros = (r.utime[0] + r.stime[0]) * 1_000_000 + r.utime[1] + r.stime[1];
    (Duration::from_micros(micros as u64), r.rest[12])
}

/// Receive one datagram on `socket` that another thread sends `delay` after
/// the receive first returns `Pending`. Returns the CPU time and the
/// voluntary context switches of the receiving thread over the receive.
fn recv_sent_after(rt: &Runtime, socket: &UdpSocket, delay: Duration) -> (Duration, i64) {
    let addr = socket.local_addr().expect("addr");
    let (blocked_tx, blocked_rx) = mpsc::channel();
    let sender = std::thread::spawn(move || {
        let tx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        blocked_rx.recv().expect("receiver blocked");
        std::thread::sleep(delay);
        tx.send_to(b"ping", addr).expect("send");
    });
    let polls = AtomicU32::new(0);
    let mut buf = [0u8; 16];
    let (cpu, switches) = this_thread_usage();
    rt.block_on(observed(socket.recv_from(&mut buf), &polls, || {
        let _ = blocked_tx.send(());
    }))
    .expect("recv");
    let (cpu_after, switches_after) = this_thread_usage();
    sender.join().expect("sender thread");
    (cpu_after - cpu, switches_after - switches)
}

#[test]
fn a_thread_with_recent_socket_work_checks_instead_of_sleeping() {
    let rt = runtime();
    let socket = rt.block_on(UdpSocket::bind("127.0.0.1:0")).expect("bind");
    // This receive sleeps and is woken by its datagram.
    recv_sent_after(&rt, &socket, Duration::from_millis(2));
    // Each next datagram is sent after the receiver began to wait and lands
    // well within one interval, so the receiver finds it without sleeping
    // unless the sender ran late. An executor that always sleeps switches
    // out voluntarily on every receive.
    let mut switches: Vec<i64> = (0..21)
        .map(|_| recv_sent_after(&rt, &socket, Duration::from_micros(50)).1)
        .collect();
    switches.sort();
    assert_eq!(
        switches[0], 0,
        "voluntary context switches per receive: {switches:?}"
    );
}

#[test]
fn an_idle_socket_wait_sleeps() {
    let rt = runtime();
    let socket = rt.block_on(UdpSocket::bind("127.0.0.1:0")).expect("bind");
    recv_sent_after(&rt, &socket, Duration::from_millis(2));
    // One interval of checks, then sleep for the rest of the 100 ms.
    let (cpu, _) = recv_sent_after(&rt, &socket, Duration::from_millis(100));
    assert!(
        cpu < Duration::from_millis(20),
        "an idle receive used {cpu:?} of CPU over 100 ms"
    );
}

#[test]
fn futures_without_an_fd_complete_through_the_timed_wait() {
    within_hang_bound(|| {
        let rt = runtime();

        // watch::changed, alone and beside a socket that never becomes
        // readable: the socket's registration must not make the executor
        // wait for it instead of re-polling the watch.
        let socket = rt.block_on(UdpSocket::bind("127.0.0.1:0")).expect("bind");
        for with_socket in [false, true] {
            let (tx, mut rx) = watch::channel(false);
            let (blocked_tx, blocked_rx) = mpsc::channel();
            let sender = std::thread::spawn(move || {
                blocked_rx.recv().expect("receiver blocked");
                tx.send(true).expect("send");
            });
            let polls = AtomicU32::new(0);
            rt.block_on(async {
                let changed = observed(rx.changed(), &polls, || {
                    let _ = blocked_tx.send(());
                });
                if with_socket {
                    let mut buf = [0u8; 16];
                    tokio::select! {
                        r = changed => { r.expect("watch sender alive") }
                        _ = socket.recv_from(&mut buf) => { panic!("nothing was sent to the socket") }
                    }
                } else {
                    changed.await.expect("watch sender alive");
                }
            });
            assert!(*rx.borrow());
            sender.join().expect("watch sender thread");
        }

        let (tx, rx) = oneshot::channel();
        let (blocked_tx, blocked_rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            blocked_rx.recv().expect("receiver blocked");
            tx.send(7u32).expect("receiver alive");
        });
        let polls = AtomicU32::new(0);
        let got = rt.block_on(observed(rx, &polls, || {
            let _ = blocked_tx.send(());
        }));
        assert_eq!(got, Ok(7));
        sender.join().expect("oneshot sender thread");

        let started = Instant::now();
        let polls = rt.block_on(sleep_polls());
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert!(polls <= MAX_SLEEP_POLLS, "sleep polled {polls} times");
    });
}

#[test]
fn a_dropped_socket_left_registered_neither_spins_nor_hangs() {
    let (in_loop, next_loop) = within_hang_bound(|| {
        let rt = runtime();
        let in_loop = rt.block_on(async {
            let socket = UdpSocket::bind("127.0.0.1:0").await.expect("bind");
            let mut buf = [0u8; 16];
            // Biased select: the socket arm registers its fd, then the
            // second arm wins.
            tokio::select! {
                _ = socket.recv_from(&mut buf) => { panic!("nothing was sent to the socket") }
                _ = std::future::ready(()) => {}
            }
            drop(socket);
            sleep_polls().await
        });
        (in_loop, rt.block_on(sleep_polls()))
    });
    assert!(
        in_loop <= MAX_SLEEP_POLLS,
        "spun on the closed fd: {in_loop} polls"
    );
    assert!(
        next_loop <= MAX_SLEEP_POLLS,
        "spun in the next block_on: {next_loop} polls"
    );
}

#[test]
fn block_on_inside_a_task_keeps_its_registrations_to_itself() {
    let (polls, inner_runs, payload) = within_hang_bound(|| {
        runtime().block_on(async {
            let outer = UdpSocket::bind("127.0.0.1:0").await.expect("bind");
            let addr = outer.local_addr().expect("addr");
            tokio::spawn(async move {
                let inner_rt = runtime();
                let polls = AtomicU32::new(0);
                let inner_runs = AtomicU32::new(0);
                let mut buf = [0u8; 16];
                let (blocked_tx, blocked_rx) = mpsc::channel();
                let sender = std::thread::spawn(move || {
                    blocked_rx.recv().expect("outer blocked");
                    // Long enough for a spinning outer loop to show.
                    std::thread::sleep(Duration::from_millis(50));
                    let tx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender");
                    tx.send_to(b"outer", addr).expect("send");
                });
                // Each poll of the outer task runs a nested runtime whose
                // last poll leaves a registration on a socket it then
                // drops. Were that registration to leak into the outer
                // loop, the outer wait would end at once on the closed fd,
                // every time.
                let nested = std::future::poll_fn(|_| {
                    inner_rt.block_on(async {
                        let inner = UdpSocket::bind("127.0.0.1:0").await.expect("bind inner");
                        let mut inner_buf = [0u8; 16];
                        tokio::select! {
                            _ = inner.recv_from(&mut inner_buf) => {
                                panic!("nothing was sent to the inner socket")
                            }
                            _ = std::future::ready(()) => {}
                        }
                    });
                    inner_runs.fetch_add(1, Ordering::Relaxed);
                    Poll::<()>::Pending
                });
                let received = observed(
                    async {
                        tokio::select! {
                            r = outer.recv_from(&mut buf) => { r.expect("recv") }
                            _ = nested => { unreachable!("the nested arm never completes") }
                        }
                    },
                    &polls,
                    || {
                        let _ = blocked_tx.send(());
                    },
                )
                .await;
                sender.join().expect("sender thread");
                (
                    polls.load(Ordering::Relaxed),
                    inner_runs.load(Ordering::Relaxed),
                    buf[..received.0].to_vec(),
                )
            })
            .await
            .expect("task")
        })
    });
    assert_eq!(payload, b"outer");
    // The last poll finds the datagram before it reaches the nested arm.
    assert_eq!(
        inner_runs + 1,
        polls,
        "the nested runtime ran on every other poll"
    );
    assert!(
        polls <= MAX_SLEEP_POLLS,
        "outer loop spun: {polls} polls over ~50 ms"
    );
}
