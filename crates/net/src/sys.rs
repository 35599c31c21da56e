//! `poll(2)` — the one system call the readiness loop needs that `std`
//! does not wrap, and the workspace's only `unsafe` block. Declared as
//! Linux declares it (`nfds_t` is `unsigned long` there, not elsewhere).

#[cfg(not(target_os = "linux"))]
compile_error!("openwf-net declares Linux's poll(2); no other target has been built or run");

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// Wake when the descriptor has bytes (or a pending accept) to take.
pub(crate) const POLLIN: c_short = 0x001;
/// Wake when the descriptor's send buffer has room again.
pub(crate) const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

/// One `struct pollfd`: a descriptor, what to wait for, what happened.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Worth a `read` (or `accept`): data, or a hang-up or error that
    /// the `read` will report as the close.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    pub(crate) fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None`: no bound) and returns how many are ready. The kernel counts
/// whole milliseconds; a fraction is rounded up, so a timer fires late
/// rather than the caller spinning towards it. Retries `EINTR`. Any
/// other failure (no memory for the set, say) is returned only after
/// the timeout has been spent on no descriptors at all, so a caller
/// that carries on regardless does not spin either.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
        None => -1,
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // structs laid out as `struct pollfd`, and the length passed is
        // the slice's own, so the kernel reads and writes only memory
        // this call may touch; `poll` keeps no pointer past its return.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            if !fds.is_empty() && ms > 0 {
                let _ = wait(&mut [], timeout);
            }
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The soft `RLIMIT_NOFILE` of this process, unless it is too large
    /// (or unlimited) to build a descriptor set beyond.
    fn descriptor_limit() -> Option<usize> {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
        let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
        let soft: usize = line.split_whitespace().nth(3)?.parse().ok()?;
        (soft <= 1 << 22).then_some(soft)
    }

    #[test]
    fn a_refused_wait_still_takes_its_time() {
        let Some(limit) = descriptor_limit() else {
            return;
        };
        // More entries than the process may have descriptors: `EINVAL`.
        let mut fds: Vec<PollFd> = (0..=limit).map(|_| PollFd::new(-1, POLLIN)).collect();
        let start = Instant::now();
        assert!(wait(&mut fds, Some(Duration::from_millis(40))).is_err());
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(wait(&mut fds, Some(Duration::ZERO)).is_err());
    }
}
