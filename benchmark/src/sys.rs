//! The few Linux facilities the benchmark needs beyond `std`: resource
//! usage of this process and of one child, a readiness wait with
//! sub-millisecond timeouts, per-thread timer slack, and CPU time of the
//! server's threads. The calls are declared `extern "C"` against the C
//! library, so no crate is added. Layouts are those of 64-bit Linux.

use std::ffi::c_void;
use std::io;
use std::os::fd::RawFd;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};
use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two `timeval`s followed by fourteen `long`s, of which
/// only `ru_maxrss` (kilobytes on Linux) is read.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 0x1;
const RUSAGE_SELF: i32 = 0;
const PR_SET_TIMERSLACK: i32 = 29;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// CPU time and peak resident set of a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in MiB.
    pub maxrss_mb: f64,
}

impl From<Rusage> for Usage {
    fn from(r: Rusage) -> Usage {
        let tv =
            |t: Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
        Usage {
            cpu: tv(r.utime) + tv(r.stime),
            maxrss_mb: r.maxrss as f64 / 1024.0,
        }
    }
}

/// Resource usage of this process so far.
pub fn self_usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a writable `struct rusage` for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    r.into()
}

/// Reap `child` with `wait4`, returning its exit status and its own resource
/// usage (not that of other children this process has reaped). The caller
/// must have drained the child's piped output first and must not call
/// `Child::wait` afterwards.
pub fn wait_child(child: &Child) -> io::Result<(ExitStatus, Usage)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    loop {
        let mut status = 0i32;
        let mut r = Rusage::default();
        // SAFETY: `status` and `r` are writable for the duration of the call,
        // and `pid` names a child of this process that has not been reaped.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut r) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), r.into()));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Let this thread's timed waits end within a microsecond of their
/// deadline. The default slack of 50 µs would show up as generator
/// lateness.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no memory.
    // Failure only leaves the default slack in place, so the result is
    // ignored.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// Wait until one of a fixed set of sockets is readable or a timeout ends.
pub struct Poller {
    fds: Vec<PollFd>,
}

impl Poller {
    /// Watch `fds` for readability.
    pub fn new(fds: &[RawFd]) -> Poller {
        Poller {
            fds: fds
                .iter()
                .map(|&fd| PollFd {
                    fd,
                    events: POLLIN,
                    revents: 0,
                })
                .collect(),
        }
    }

    /// Block for at most `timeout`; returns early when a socket is readable.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            sec: timeout.as_secs() as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` holds exactly `fds.len()` initialised `pollfd`s that
        // stay alive and unaliased for the call; `ts` outlives it; a null
        // signal mask leaves the mask unchanged.
        let rc = unsafe {
            ppoll(
                self.fds.as_mut_ptr(),
                self.fds.len() as u64,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

/// Summed user plus system CPU time of this process's threads whose name is
/// `name`, read from `/proc/self/task/*/stat`. Threads that have exited no
/// longer count, so callers difference two readings taken while the threads
/// of interest are alive.
pub fn threads_cpu(name: &str) -> Duration {
    // SAFETY: sysconf only reads a configuration value.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // Format: `tid (comm) state ...`; comm may contain spaces, so split
        // at the last ')'. utime and stime are fields 14 and 15 overall,
        // i.e. the 12th and 13th after the state field.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if stat.get(open + 1..close) != Some(name) {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ticks += field(11) + field(12);
    }
    Duration::from_secs_f64(ticks as f64 / ticks_per_sec)
}

/// A `VmHWM`/`VmRSS`-style line of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process, in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
