//! The measuring instrument: seeded query traffic, an open-loop sender that
//! times every query from the instant it was due, and a windowed closed-loop
//! capacity probe.
//!
//! It lives in the benchmark, not in the program, so that a change claiming
//! a serve-path gain cannot also change how the gain is measured. It shares
//! no code with `rdns-loadgen`: it encodes its own queries, reads only
//! response headers, and waits in `ppoll` so that a response is stamped when
//! it arrives and a dispatch fires when it is due, without spinning a core
//! that the server needs.

use crate::compare::median;
use crate::sys::{tighten_timer_slack, Poller};
use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A dispatch this far behind its due instant counts as late.
const LATE_NS: u64 = 1_000_000;
/// Latency recorded for a query that never got a usable answer.
const FAILED: u64 = u64::MAX;
const VACANT: u32 = u32::MAX;

/// SplitMix64: a small seeded generator, so that the traffic a seed selects
/// never depends on the program's own RNG crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The order in which a workload's queries visit its address universe.
#[derive(Debug)]
pub enum Walk {
    /// Independent uniform draws from the universe. Once every address has
    /// been asked, every answer can come from the server's response cache.
    Hot { universe: Vec<Ipv4Addr>, rng: Rng },
    /// Successive addresses of a seeded shuffle: no address is ever asked
    /// twice, so every query is a first touch.
    Cold { order: Vec<Ipv4Addr>, next: usize },
}

impl Walk {
    /// Draws with replacement from `universe`.
    pub fn hot(universe: Vec<Ipv4Addr>, rng: Rng) -> Walk {
        assert!(!universe.is_empty(), "a hot walk needs addresses");
        Walk::Hot { universe, rng }
    }

    /// The first `needed` addresses of a seeded shuffle of `universe`; a run
    /// never asks more.
    pub fn cold(universe: Vec<Ipv4Addr>, needed: usize, rng: Rng) -> Walk {
        Walk::Cold {
            order: sample(universe, needed, rng),
            next: 0,
        }
    }

    /// Every address, once, in a fixed order: the warm-up pass.
    pub fn universe(&self) -> &[Ipv4Addr] {
        match self {
            Walk::Hot { universe, .. } => universe,
            Walk::Cold { order, .. } => order,
        }
    }

    /// The next address to query.
    pub fn next_target(&mut self) -> Ipv4Addr {
        match self {
            Walk::Hot { universe, rng } => universe[rng.below(universe.len())],
            Walk::Cold { order, next } => {
                let addr = *order
                    .get(*next)
                    .expect("cold walk sized for every query of the run");
                *next += 1;
                addr
            }
        }
    }

    /// The next `n` addresses.
    pub fn take(&mut self, n: usize) -> Vec<Ipv4Addr> {
        (0..n).map(|_| self.next_target()).collect()
    }
}

/// `n` distinct addresses of `universe` in seeded random order: a partial
/// Fisher–Yates shuffle, which costs `n` swaps however large the universe.
pub fn sample(mut universe: Vec<Ipv4Addr>, n: usize, mut rng: Rng) -> Vec<Ipv4Addr> {
    assert!(
        n <= universe.len(),
        "need {n} addresses, universe has {}",
        universe.len()
    );
    for i in 0..n {
        let j = i + rng.below(universe.len() - i);
        universe.swap(i, j);
    }
    universe.truncate(n);
    universe
}

/// One scheduled query: send at `at_ns` after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Due instant, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// Address whose PTR is asked.
    pub target: Ipv4Addr,
}

/// An open-loop Poisson schedule at `rate` queries per second for
/// `duration`: independent clients, so arrivals do not wait for answers.
pub fn poisson(rng: &mut Rng, rate: f64, duration: Duration, walk: &mut Walk) -> Vec<Event> {
    assert!(rate > 0.0, "rate must be positive");
    let horizon = duration.as_nanos() as f64;
    let mean_gap = 1e9 / rate;
    let mut events = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() * mean_gap;
        if t >= horizon {
            return events;
        }
        events.push(Event {
            at_ns: t as u64,
            target: walk.next_target(),
        });
    }
}

/// Encode a recursion-desired PTR query for `addr` into `out`, in the
/// canonical lowercase `d.c.b.a.in-addr.arpa.` form stub resolvers send.
pub fn encode_ptr_query(id: u16, addr: Ipv4Addr, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
    let mut digits = [0u8; 3];
    for octet in addr.octets().iter().rev() {
        let mut n = *octet;
        let mut len = 0;
        loop {
            digits[len] = b'0' + n % 10;
            len += 1;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push(len as u8);
        out.extend(digits[..len].iter().rev());
    }
    out.extend_from_slice(b"\x07in-addr\x04arpa\x00\x00\x0c\x00\x01");
}

/// What a response header says about the query it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// NOERROR with at least one answer record.
    Answered,
    /// NXDOMAIN: the address has no PTR.
    NxDomain,
    /// Anything else (SERVFAIL, REFUSED, an empty NOERROR, a query echo).
    Other,
}

/// Message ID and outcome from a response header; `None` when the datagram
/// is too short to be one.
pub fn read_reply(d: &[u8]) -> Option<(u16, Reply)> {
    let &[id_hi, id_lo, flags_hi, flags_lo, _, _, an_hi, an_lo, ..] = d else {
        return None;
    };
    let id = u16::from_be_bytes([id_hi, id_lo]);
    let reply = match (
        flags_hi & 0x80 != 0,
        flags_lo & 0x0F,
        u16::from_be_bytes([an_hi, an_lo]),
    ) {
        (true, 0, n) if n > 0 => Reply::Answered,
        (true, 3, _) => Reply::NxDomain,
        _ => Reply::Other,
    };
    Some((id, reply))
}

/// Outcome of one open-loop phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Queries scheduled.
    pub scheduled: u64,
    /// Queries put on the wire.
    pub sent: u64,
    /// Answers carrying a PTR.
    pub answered: u64,
    /// NXDOMAIN answers.
    pub nxdomain: u64,
    /// Queries not sent, not answered within the grace period, or answered
    /// with another rcode.
    pub failed: u64,
    /// Responses that matched no query in flight.
    pub unmatched: u64,
    /// Sends beyond the first, after [`RETRY_AFTER`] without an answer.
    pub resent: u64,
    /// Dispatches more than 1 ms behind their due instant.
    pub late: u64,
    /// Most queries awaiting an answer at once.
    pub max_in_flight: u64,
    /// Per-query latency from due instant to answer, nanoseconds, in
    /// schedule order; a failed query is +∞.
    latencies_ns: Vec<u64>,
    /// Due instant of each query, nanoseconds after the phase starts.
    due_ns: Vec<u64>,
}

impl PhaseReport {
    /// Exact latency quantile over the whole phase, in microseconds (nearest
    /// rank); +∞ when the rank falls on a failed query.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        quantile_us(&sorted, q)
    }

    /// The median, over `windows` equal slices of the phase by due instant,
    /// of each slice's exact quantile `q`: the quantile of a typical slice.
    /// A stall of the host that hits one slice moves one sample of the
    /// median, not the whole phase's tail.
    pub fn windowed_quantile_us(&self, q: f64, windows: usize) -> f64 {
        let windows = windows.max(1);
        let span = self.due_ns.iter().max().map_or(1, |d| d + 1);
        let mut slices = vec![Vec::new(); windows];
        for (due, latency) in self.due_ns.iter().zip(&self.latencies_ns) {
            let w = (u128::from(*due) * windows as u128 / u128::from(span)) as usize;
            slices[w].push(*latency);
        }
        let per_slice: Vec<f64> = slices
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|mut s| {
                s.sort_unstable();
                quantile_us(&s, q)
            })
            .collect();
        if per_slice.is_empty() {
            return f64::INFINITY;
        }
        median(&per_slice)
    }
}

/// Nearest-rank quantile of sorted nanosecond latencies, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::INFINITY;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    match sorted_ns[rank - 1] {
        FAILED => f64::INFINITY,
        ns => ns as f64 / 1e3,
    }
}

/// One nonblocking socket per server shard, connected so that the kernel
/// filters out stray datagrams.
fn connect_shards(addrs: &[SocketAddr]) -> io::Result<Vec<UdpSocket>> {
    addrs
        .iter()
        .map(|addr| {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            sock.connect(addr)?;
            sock.set_nonblocking(true)?;
            Ok(sock)
        })
        .collect()
}

fn poller_for(socks: &[UdpSocket]) -> Poller {
    let fds: Vec<_> = socks.iter().map(|s| s.as_raw_fd()).collect();
    Poller::new(&fds)
}

/// Replay `schedule` against the shard sockets at `addrs`: query *i* goes
/// to shard *i* mod shards when it is due, whatever is still in flight.
/// Each latency runs from the due instant, so a stalled generator adds its
/// stall to the latencies instead of hiding it.
///
/// Like a stub resolver, the generator resends a query that has had no
/// answer for [`RETRY_AFTER`], up to [`TRIES`] sends in all: a datagram
/// dropped while the host stalls the server costs that query its retry wait
/// instead of failing the run. Queries still unanswered `grace` after the
/// last dispatch fail.
pub fn open_loop(
    addrs: &[SocketAddr],
    schedule: &[Event],
    grace: Duration,
) -> io::Result<PhaseReport> {
    open_loop_from(addrs, schedule, Instant::now(), grace)
}

/// How long an unanswered query waits before it is sent again.
pub const RETRY_AFTER: Duration = Duration::from_millis(250);
/// Sends per query, the first included.
pub const TRIES: u8 = 4;
/// Slot marker for a query that was answered after being resent: a second
/// answer to it is a duplicate, not a stray.
const ANSWERED: u32 = 1 << 31;

/// [`open_loop`] with due instants counted from `origin`.
fn open_loop_from(
    addrs: &[SocketAddr],
    schedule: &[Event],
    origin: Instant,
    grace: Duration,
) -> io::Result<PhaseReport> {
    assert!(
        schedule.len() < ANSWERED as usize,
        "schedule too long for the slot table"
    );
    tighten_timer_slack();
    let socks = connect_shards(addrs)?;
    let mut poller = poller_for(&socks);
    let shards = socks.len();
    // Per shard, the schedule index of the query in flight under each
    // message ID. IDs are issued in sequence, so a slot is reused only after
    // 65,536 later queries on the same shard.
    let mut slots = vec![vec![VACANT; 1 << 16]; shards];
    let mut next_id = vec![0u16; shards];
    let mut ids = vec![0u16; schedule.len()];
    let mut tries = vec![0u8; schedule.len()];
    // Resend deadlines in send order; RETRY_AFTER is fixed, so they ascend.
    let mut resend: VecDeque<(usize, u64)> = VecDeque::with_capacity(schedule.len());
    let retry_ns = RETRY_AFTER.as_nanos() as u64;
    let mut latencies = vec![FAILED; schedule.len()];
    let mut pkt = Vec::with_capacity(64);
    let mut buf = [0u8; 1500];
    let mut r = PhaseReport {
        scheduled: schedule.len() as u64,
        sent: 0,
        answered: 0,
        nxdomain: 0,
        failed: 0,
        unmatched: 0,
        resent: 0,
        late: 0,
        max_in_flight: 0,
        latencies_ns: Vec::new(),
        due_ns: schedule.iter().map(|e| e.at_ns).collect(),
    };
    let last_due = schedule.last().map_or(0, |e| e.at_ns);
    let grace_ns = grace.as_nanos() as u64;
    let mut in_flight = 0u64;
    let mut next = 0usize;
    let elapsed_ns = || origin.elapsed().as_nanos() as u64;
    loop {
        let now = elapsed_ns();
        while let Some(e) = schedule.get(next).filter(|e| e.at_ns <= now) {
            let shard = next % shards;
            let id = next_id[shard];
            next_id[shard] = id.wrapping_add(1);
            let slot = &mut slots[shard][usize::from(id)];
            if *slot != VACANT && *slot & ANSWERED == 0 {
                // 65,536 queries later and still unanswered: it stays failed.
                in_flight -= 1;
            }
            *slot = next as u32;
            ids[next] = id;
            tries[next] = 1;
            in_flight += 1;
            encode_ptr_query(id, e.target, &mut pkt);
            match socks[shard].send(&pkt) {
                Ok(_) => r.sent += 1,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                Err(err) => return Err(err),
            }
            resend.push_back((next, now + retry_ns));
            if now - e.at_ns > LATE_NS {
                r.late += 1;
            }
            next += 1;
        }
        while let Some(&(i, _)) = resend.front().filter(|(_, d)| *d <= now) {
            resend.pop_front();
            let shard = i % shards;
            let slot = &mut slots[shard][usize::from(ids[i])];
            if *slot != i as u32 {
                continue; // answered, or its ID was reused
            }
            if tries[i] == TRIES {
                *slot = VACANT;
                in_flight -= 1;
                continue;
            }
            tries[i] += 1;
            r.resent += 1;
            encode_ptr_query(ids[i], schedule[i].target, &mut pkt);
            match socks[shard].send(&pkt) {
                Ok(_) => {}
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                Err(err) => return Err(err),
            }
            resend.push_back((i, now + retry_ns));
        }
        r.max_in_flight = r.max_in_flight.max(in_flight);
        for (shard, sock) in socks.iter().enumerate() {
            loop {
                let n = match sock.recv(&mut buf) {
                    Ok(n) => n,
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) => return Err(err),
                };
                let arrived = elapsed_ns();
                let Some((id, reply)) = read_reply(&buf[..n]) else {
                    r.unmatched += 1;
                    continue;
                };
                let slot = &mut slots[shard][usize::from(id)];
                if *slot == VACANT {
                    r.unmatched += 1;
                    continue;
                }
                if *slot & ANSWERED != 0 {
                    continue; // the answer to an earlier send of a resent query
                }
                let index = *slot as usize;
                *slot = if tries[index] > 1 {
                    index as u32 | ANSWERED
                } else {
                    VACANT
                };
                in_flight -= 1;
                match reply {
                    Reply::Answered => r.answered += 1,
                    Reply::NxDomain => r.nxdomain += 1,
                    Reply::Other => continue,
                }
                latencies[index] = arrived.saturating_sub(schedule[index].at_ns);
            }
        }
        let now = elapsed_ns();
        let resend_in = resend
            .front()
            .map_or(u64::MAX, |(_, d)| d.saturating_sub(now));
        let wait_ns = match schedule.get(next) {
            Some(e) => e.at_ns.saturating_sub(now).min(resend_in),
            None if in_flight == 0 || now >= last_due + grace_ns => break,
            None => (last_due + grace_ns - now).min(resend_in).min(1_000_000),
        };
        if wait_ns > 0 {
            poller.wait(Duration::from_nanos(wait_ns))?;
        }
    }
    r.failed = r.scheduled - r.answered - r.nxdomain;
    r.latencies_ns = latencies;
    Ok(r)
}

/// Outcome of a closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct ClosedReport {
    /// Queries put on the wire.
    pub sent: u64,
    /// Answers carrying a PTR.
    pub answered: u64,
    /// NXDOMAIN answers.
    pub nxdomain: u64,
    /// Queries with another outcome, or still unanswered when the run
    /// stalled.
    pub failed: u64,
    /// Wall time from first send to last answer.
    pub elapsed: Duration,
}

impl ClosedReport {
    /// Completions per second.
    pub fn qps(&self) -> f64 {
        (self.answered + self.nxdomain) as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Ask for every address of `targets` keeping at most `window` queries in
/// flight per shard: a caller that waits for each reply before sending more,
/// so the rate it reaches is the server's capacity. Gives up when no answer
/// arrives for `stall`.
pub fn closed_loop(
    addrs: &[SocketAddr],
    targets: &[Ipv4Addr],
    window: u64,
    stall: Duration,
) -> io::Result<ClosedReport> {
    let socks = connect_shards(addrs)?;
    let mut poller = poller_for(&socks);
    let mut in_flight = vec![0u64; socks.len()];
    let mut next_id = 0u16;
    let mut pkt = Vec::with_capacity(64);
    let mut buf = [0u8; 1500];
    let mut r = ClosedReport {
        sent: 0,
        answered: 0,
        nxdomain: 0,
        failed: 0,
        elapsed: Duration::ZERO,
    };
    let mut next = 0usize;
    let start = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        for (shard, sock) in socks.iter().enumerate() {
            while in_flight[shard] < window {
                let Some(&target) = targets.get(next) else {
                    break;
                };
                next_id = next_id.wrapping_add(1);
                encode_ptr_query(next_id, target, &mut pkt);
                match sock.send(&pkt) {
                    Ok(_) => {
                        next += 1;
                        r.sent += 1;
                        in_flight[shard] += 1;
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) => return Err(err),
                }
            }
            loop {
                let n = match sock.recv(&mut buf) {
                    Ok(n) => n,
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) => return Err(err),
                };
                in_flight[shard] = in_flight[shard].saturating_sub(1);
                last_progress = Instant::now();
                match read_reply(&buf[..n]).map(|(_, reply)| reply) {
                    Some(Reply::Answered) => r.answered += 1,
                    Some(Reply::NxDomain) => r.nxdomain += 1,
                    _ => r.failed += 1,
                }
            }
        }
        let outstanding: u64 = in_flight.iter().sum();
        if next == targets.len() && outstanding == 0 {
            break;
        }
        if last_progress.elapsed() > stall {
            r.failed += outstanding + (targets.len() - next) as u64;
            break;
        }
        poller.wait(Duration::from_millis(10))?;
    }
    r.elapsed = start.elapsed();
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_encoding_is_the_canonical_ptr_shape() {
        let mut pkt = Vec::new();
        encode_ptr_query(0xABCD, Ipv4Addr::new(10, 0, 7, 255), &mut pkt);
        let mut want = vec![0xAB, 0xCD, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        want.extend_from_slice(b"\x03255\x017\x010\x0210\x07in-addr\x04arpa\x00\x00\x0c\x00\x01");
        assert_eq!(pkt, want);
    }

    #[test]
    fn quantiles_are_nearest_rank_with_failures_last() {
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(quantile_us(&ns, 0.5), 50.0);
        assert_eq!(quantile_us(&ns, 0.99), 99.0);
        ns[99] = FAILED;
        ns[98] = FAILED;
        ns.sort_unstable();
        assert_eq!(quantile_us(&ns, 0.98), 98.0);
        assert_eq!(quantile_us(&ns, 0.99), f64::INFINITY);
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        // Four 1,000-query windows at 100 µs; the third stalls at 5 ms.
        let due_ns: Vec<u64> = (0..4_000).map(|i| i * 1_000).collect();
        let latencies_ns: Vec<u64> = (0..4_000)
            .map(|i| {
                if (2_000..3_000).contains(&i) {
                    5_000_000
                } else {
                    100_000
                }
            })
            .collect();
        let r = PhaseReport {
            scheduled: 4_000,
            sent: 4_000,
            answered: 0,
            nxdomain: 4_000,
            failed: 0,
            unmatched: 0,
            resent: 0,
            late: 0,
            max_in_flight: 1,
            latencies_ns,
            due_ns,
        };
        assert_eq!(r.quantile_us(0.99), 5_000.0);
        assert_eq!(r.windowed_quantile_us(0.99, 4), 100.0);
        assert_eq!(r.windowed_quantile_us(0.99, 1), 5_000.0);
    }

    #[test]
    fn cold_walk_never_repeats_and_hot_walk_stays_in_universe() {
        let universe: Vec<Ipv4Addr> = (0..1000u32).map(Ipv4Addr::from).collect();
        let mut cold = Walk::cold(universe.clone(), 600, Rng::new(7, 1));
        let mut seen: Vec<Ipv4Addr> = cold.take(600);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 600);
        let mut hot = Walk::hot(universe[..10].to_vec(), Rng::new(7, 2));
        assert!(hot.take(100).iter().all(|a| u32::from(*a) < 10));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_rate() {
        let universe: Vec<Ipv4Addr> = (0..64u32).map(Ipv4Addr::from).collect();
        let run = |seed| {
            let mut walk = Walk::hot(universe.clone(), Rng::new(seed, 1));
            poisson(
                &mut Rng::new(seed, 2),
                10_000.0,
                Duration::from_secs(1),
                &mut walk,
            )
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    /// A server that answers one query with NXDOMAIN at once.
    fn one_shot_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = UdpSocket::bind("127.0.0.1:0").expect("bind test server");
        let addr = server.local_addr().expect("server addr");
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = server.recv_from(&mut buf).expect("query");
            buf[2] |= 0x80;
            buf[3] = 0x03;
            server.send_to(&buf[..n], peer).expect("reply");
        });
        (addr, handle)
    }

    #[test]
    fn a_lost_query_is_resent_and_its_wait_counts() {
        // The server sits on the first send and answers only once the resend
        // arrives — then answers both, so a duplicate reaches the generator.
        let server = UdpSocket::bind("127.0.0.1:0").expect("bind test server");
        let addr = server.local_addr().expect("server addr");
        let handle = std::thread::spawn(move || {
            let mut first = [0u8; 512];
            let mut second = [0u8; 512];
            let (n1, peer) = server.recv_from(&mut first).expect("first send");
            let (n2, _) = server.recv_from(&mut second).expect("resend");
            for d in [&mut first[..n1], &mut second[..n2]] {
                d[2] |= 0x80;
                d[3] = 0x03;
                server.send_to(d, peer).expect("reply");
            }
        });
        let schedule = [Event {
            at_ns: 0,
            target: Ipv4Addr::new(10, 0, 0, 1),
        }];
        let r = open_loop(&[addr], &schedule, Duration::from_secs(2)).expect("phase");
        handle.join().expect("server thread");
        assert_eq!((r.nxdomain, r.failed, r.resent, r.unmatched), (1, 0, 1, 0));
        assert!(r.quantile_us(0.5) >= RETRY_AFTER.as_micros() as f64);
    }

    #[test]
    fn a_late_dispatch_is_charged_to_latency() {
        let schedule = [Event {
            at_ns: 0,
            target: Ipv4Addr::new(10, 0, 0, 1),
        }];
        let grace = Duration::from_secs(1);

        let (addr, server) = one_shot_server();
        let on_time = open_loop_from(&[addr], &schedule, Instant::now(), grace).expect("phase");
        server.join().expect("server thread");
        assert_eq!((on_time.nxdomain, on_time.late), (1, 0));
        let baseline = on_time.quantile_us(0.5);

        // The same query, due 5 ms before the generator gets to send it.
        let (addr, server) = one_shot_server();
        let origin = Instant::now() - Duration::from_millis(5);
        let late = open_loop_from(&[addr], &schedule, origin, grace).expect("phase");
        server.join().expect("server thread");
        assert_eq!((late.nxdomain, late.late), (1, 1));
        assert!(
            late.quantile_us(0.5) >= 5_000.0,
            "latency {} µs must include the 5 ms stall",
            late.quantile_us(0.5)
        );
        assert!(late.quantile_us(0.5) > baseline);
    }
}
