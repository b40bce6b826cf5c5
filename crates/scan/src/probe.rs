//! The prober abstraction.
//!
//! The reactive engine doesn't care whether probes travel over real sockets
//! (wire mode) or call straight into the simulated world (fast mode); it
//! talks to a [`Prober`].

use rdns_model::Hostname;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Classified result of one reverse-DNS lookup, matching the paper's Fig. 6
/// categories.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RdnsOutcome {
    /// A PTR record was returned.
    Ptr(Hostname),
    /// Authoritative denial: no record for this address.
    NxDomain,
    /// The authoritative server failed to answer (SERVFAIL etc.).
    NameserverFailure,
    /// No response before the deadline.
    Timeout,
}

impl RdnsOutcome {
    /// Classify a wire-level lookup result into the Fig. 6 taxonomy. The
    /// single classification path shared by the serial prober, the async
    /// prober and the full-sweep snapshotter: an I/O error on the socket is
    /// indistinguishable from silence to the measurement, so it reads as a
    /// timeout.
    pub fn from_lookup(outcome: std::io::Result<rdns_dns::LookupOutcome>) -> RdnsOutcome {
        use rdns_dns::LookupOutcome;
        match outcome {
            Ok(out @ LookupOutcome::Answer(_)) => match out.ptr_target() {
                Some(name) => RdnsOutcome::Ptr(name.to_hostname()),
                None => RdnsOutcome::NameserverFailure,
            },
            Ok(LookupOutcome::NxDomain | LookupOutcome::NoData) => RdnsOutcome::NxDomain,
            Ok(LookupOutcome::ServerFailure(_)) => RdnsOutcome::NameserverFailure,
            Ok(LookupOutcome::Timeout) | Err(_) => RdnsOutcome::Timeout,
        }
    }

    /// Whether this outcome is an error in the Fig. 6 sense. NXDOMAIN is
    /// counted as an error there, with the caveat of §6.2 that for reverse
    /// records it often simply means "the PTR is (already/still) absent".
    pub fn is_error(&self) -> bool {
        !matches!(self, RdnsOutcome::Ptr(_))
    }

    /// The hostname, if any. PTR targets embed owner names, so this is a
    /// PII source for `rdns-lint`.
    // lint:taint(source)
    pub fn hostname(&self) -> Option<&Hostname> {
        match self {
            RdnsOutcome::Ptr(h) => Some(h),
            _ => None,
        }
    }
}

/// Something that can send probes.
pub trait Prober {
    /// ICMP echo: does `addr` answer?
    fn ping(&mut self, addr: Ipv4Addr) -> bool;
    /// Reverse lookup against the authoritative server for `addr`.
    fn rdns(&mut self, addr: Ipv4Addr) -> RdnsOutcome;
}

/// Blanket closures-as-prober adapter.
pub struct FnProber<P, R>
where
    P: FnMut(Ipv4Addr) -> bool,
    R: FnMut(Ipv4Addr) -> RdnsOutcome,
{
    ping_fn: P,
    rdns_fn: R,
}

impl<P, R> FnProber<P, R>
where
    P: FnMut(Ipv4Addr) -> bool,
    R: FnMut(Ipv4Addr) -> RdnsOutcome,
{
    /// Wrap two closures.
    pub fn new(ping_fn: P, rdns_fn: R) -> Self {
        FnProber { ping_fn, rdns_fn }
    }
}

impl<P, R> Prober for FnProber<P, R>
where
    P: FnMut(Ipv4Addr) -> bool,
    R: FnMut(Ipv4Addr) -> RdnsOutcome,
{
    fn ping(&mut self, addr: Ipv4Addr) -> bool {
        (self.ping_fn)(addr)
    }

    fn rdns(&mut self, addr: Ipv4Addr) -> RdnsOutcome {
        (self.rdns_fn)(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_prober(alive: bool, host: &str) -> impl Prober {
        let host = Hostname::new(host);
        FnProber::new(move |_| alive, move |_| RdnsOutcome::Ptr(host.clone()))
    }

    #[test]
    fn outcome_classification() {
        assert!(!RdnsOutcome::Ptr(Hostname::new("x.example")).is_error());
        assert!(RdnsOutcome::NxDomain.is_error());
        assert!(RdnsOutcome::NameserverFailure.is_error());
        assert!(RdnsOutcome::Timeout.is_error());
        assert_eq!(
            RdnsOutcome::Ptr(Hostname::new("x.example")).hostname().unwrap().as_str(),
            "x.example"
        );
        assert!(RdnsOutcome::NxDomain.hostname().is_none());
    }

    #[test]
    fn fn_prober_delegates() {
        let mut p = fixed_prober(true, "a.example.edu");
        assert!(p.ping("10.0.0.1".parse().unwrap()));
        assert_eq!(
            p.rdns("10.0.0.1".parse().unwrap()).hostname().unwrap().as_str(),
            "a.example.edu"
        );
    }
}
