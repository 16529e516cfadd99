//! The one libc call the standard library does not expose: `wait4`,
//! which reaps a child *and* returns its resource usage (exact peak
//! RSS, with no sampling thread competing for the two cores).

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads wait4 rusage in Linux units; Linux only");

use std::ffi::{c_int, c_long};
use std::io;

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// timevals (four longs) followed by fourteen longs, of which only
/// `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    _times: [c_long; 4],
    maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

/// How a reaped child ended, and what it used.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reaped {
    /// Exit code, when the child exited normally.
    pub code: Option<i32>,
    /// Terminating signal otherwise.
    pub signal: Option<i32>,
    /// Largest peak resident set among the child and the descendants it
    /// waited for, MiB.
    pub peak_rss_mib: f64,
}

/// Blocks until child `pid` ends, reaps it, and returns its status and
/// resource usage. The caller must not also `wait` on the
/// `std::process::Child` (the pid is gone after this returns).
pub fn wait_with_usage(pid: u32) -> io::Result<Reaped> {
    let mut status: c_int = 0;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable, correctly laid
        // out locals for the duration of the call; wait4 writes at most
        // one int and one `struct rusage` through them.
        let got = unsafe { wait4(pid as c_int, &mut status, 0, &mut ru) };
        if got >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let signal = status & 0x7f;
    Ok(Reaped {
        code: (signal == 0).then_some((status >> 8) & 0xff),
        signal: (signal != 0).then_some(signal),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mib: ru.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    // wait_with_usage reaps by pid; clippy cannot see that.
    #[test]
    #[allow(clippy::zombie_processes)]
    fn reaps_with_status_and_usage() {
        let child = Command::new("sh").args(["-c", "exit 7"]).spawn().unwrap();
        let r = wait_with_usage(child.id()).unwrap();
        assert_eq!((r.code, r.signal), (Some(7), None));
        assert!(r.peak_rss_mib > 0.1);
    }

    #[test]
    #[allow(clippy::zombie_processes)]
    fn reports_a_killing_signal() {
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        child.kill().unwrap();
        let r = wait_with_usage(child.id()).unwrap();
        assert_eq!((r.code, r.signal), (None, Some(9)));
    }
}
