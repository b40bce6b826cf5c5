//! # rdns-scan
//!
//! The measurement tooling of the reproduction — the counterpart of the
//! paper's ZMap + custom dnspython wrapper (§6.1):
//!
//! * [`backoff`] — the exact reactive back-off schedule of Table 2,
//! * [`ratelimit`] — a token-bucket rate limiter (the paper rate-limits both
//!   ICMP scans and queries to authoritative name servers),
//! * [`blocklist`] — opt-out prefix blocking, as required by the paper's
//!   ethics setup (§9),
//! * [`permute`] — ZMap-style pseudo-random probe ordering,
//! * [`probe`] — the prober abstraction: ICMP echo plus direct-to-
//!   authoritative PTR lookups, with outcome classification (answer /
//!   NXDOMAIN / server failure / timeout),
//! * [`reactive`] — the event-driven reactive measurement engine of Fig. 5:
//!   hourly discovery sweeps, per-client high-frequency ICMP with back-off,
//!   and reactive rDNS lookups once a client goes dark,
//! * [`records`] — the CSV-able measurement record types,
//! * [`wire`] — wire-mode probing over real UDP sockets (async resolver from
//!   `rdns-dns`, UDP ping gateway) for end-to-end runs,
//! * [`sweep`] — the full-sweep wire snapshotter: every target's PTR queried
//!   once through the pipelined resolver in permuted, rate-limited order,
//!   emitting a dated `(ip, ptr)` snapshot — the OpenINTEL daily observation
//!   reproduced on the wire.

pub mod backoff;
pub mod blocklist;
pub mod permute;
pub mod probe;
pub mod ratelimit;
pub mod reactive;
pub mod records;
pub mod sweep;
pub mod wire;

pub use backoff::BackoffSchedule;
pub use blocklist::Blocklist;
pub use permute::Permutation;
pub use probe::{FnProber, Prober, RdnsOutcome};
pub use ratelimit::TokenBucket;
pub use reactive::{ReactiveConfig, ReactiveScanner};
pub use records::{IcmpRecord, RdnsRecord, ScanLog};
pub use sweep::{SweepConfig, SweepRate, SweepReport, WireSnapshot, WireSweeper};
pub use wire::{AsyncWireProber, BlockingWireProber};
