//! The readiness seam: one blocking wait over a set of sockets plus a wake
//! channel other threads use to interrupt it.
//!
//! On Linux the wait is `ppoll(2)`, whose timeout has nanosecond grain; on
//! other unix targets it is `poll(2)`, whose timeout is rounded up to the
//! millisecond. That call is the crate's only foreign call, and the only
//! `unsafe` in it. The wake channel is a
//! [`UnixStream::pair`](std::os::unix::net::UnixStream::pair): a byte
//! written to one end makes the other end readable, so the reactor sleeps
//! in the kernel until there is something to do. The wait is
//! level-triggered: a descriptor registered for an event it will not act
//! on makes every wait return at once, so callers register only what they
//! will service.
//!
//! Other platforms get a stub with the same shape: the wait is a fixed
//! short sleep that reports everything ready, and waking is a no-op. The
//! reactor's handlers are all nonblocking, so a spurious "ready" costs one
//! `WouldBlock`.

pub(crate) use sys::{wait, wake_pair, PollFd, WakeRx, Waker};

#[cfg(unix)]
mod sys {
    use std::io::{self, Read, Write};
    use std::os::raw::c_int;
    #[cfg(target_os = "linux")]
    use std::os::raw::{c_long, c_ulong, c_void};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    type Nfds = c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    /// C's `struct timespec` (`time_t` is a `long` on Linux).
    #[cfg(target_os = "linux")]
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: Nfds,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    #[cfg(not(target_os = "linux"))]
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// One entry of a poll set, laid out as C's `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        /// An entry the wait skips (a negative descriptor is ignored).
        pub(crate) const NONE: PollFd = PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        };

        /// Watches `source` for readability and/or writability. Errors and
        /// hang-ups are reported whatever is asked for.
        pub(crate) fn new(source: &impl AsRawFd, read: bool, write: bool) -> PollFd {
            PollFd {
                fd: source.as_raw_fd(),
                events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                revents: 0,
            }
        }

        /// The same descriptor watched for reading only, if this entry is
        /// watched for reading at all.
        pub(crate) fn for_reading(&self) -> Option<PollFd> {
            (self.events & POLLIN != 0).then_some(PollFd {
                events: POLLIN,
                revents: 0,
                ..*self
            })
        }

        /// The last wait found bytes (or EOF) to read.
        pub(crate) fn readable(&self) -> bool {
            self.revents & POLLIN != 0
        }

        /// The last wait found the descriptor broken: error, both
        /// directions closed, or not open at all.
        pub(crate) fn hung_up(&self) -> bool {
            self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0
        }
    }

    /// Blocks until an entry is ready or `timeout` passes (`None` waits
    /// without bound); readiness is left in each entry. A signal ends the
    /// wait early with nothing ready. The wait never ends before `timeout`
    /// for lack of readiness, so a deadline it was sized for has passed.
    pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        if raw_wait(fds, timeout) >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            for fd in fds {
                fd.revents = 0;
            }
            return Ok(());
        }
        Err(err)
    }

    /// `ppoll` takes the timeout to the nanosecond.
    #[cfg(target_os = "linux")]
    fn raw_wait(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        let timeout = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let timeout = timeout
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // entries with `struct pollfd`'s layout, and the length passed is
        // the slice's own; `timeout` is null or points at a live
        // `struct timespec`, and a null signal mask leaves the mask alone.
        // `ppoll` writes only the `revents` of those entries and keeps no
        // pointer past the call.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as Nfds,
                timeout,
                std::ptr::null(),
            )
        }
    }

    /// `poll` takes whole milliseconds: the timeout is rounded up so a
    /// deadline is never checked before it has passed.
    #[cfg(not(target_os = "linux"))]
    fn raw_wait(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // entries with `struct pollfd`'s layout, and the length passed is
        // the slice's own; `poll` writes only the `revents` of those
        // entries and keeps no pointer past the call.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) }
    }

    /// The sending half of the wake channel; cheap to clone, usable from
    /// any thread.
    #[derive(Debug, Clone)]
    pub(crate) struct Waker(Arc<UnixStream>);

    impl Waker {
        /// Makes the current (or next) wait return. A full pipe means a
        /// wake-up is already pending, so the error is dropped.
        pub(crate) fn wake(&self) {
            let _ = (&*self.0).write(&[1]);
        }
    }

    /// The reactor's half of the wake channel.
    #[derive(Debug)]
    pub(crate) struct WakeRx(UnixStream);

    impl WakeRx {
        /// The poll entry that turns readable on a wake-up.
        pub(crate) fn pollfd(&self) -> PollFd {
            PollFd::new(&self.0, true, false)
        }

        /// Swallows every pending wake-up byte.
        pub(crate) fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.0).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
    }

    /// A connected wake channel, both ends nonblocking.
    pub(crate) fn wake_pair() -> io::Result<(Waker, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker(Arc::new(tx)), WakeRx(rx)))
    }
}

#[cfg(not(unix))]
mod sys {
    use std::io;
    use std::time::Duration;

    /// How long the stub wait sleeps before reporting everything ready.
    const STUB_SLEEP: Duration = Duration::from_millis(1);

    /// One entry of a poll set; the stub only remembers what was asked.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct PollFd {
        read: bool,
        ready: bool,
    }

    impl PollFd {
        /// An entry the wait skips.
        pub(crate) const NONE: PollFd = PollFd {
            read: false,
            ready: false,
        };

        /// Watches `source` for readability and/or writability.
        pub(crate) fn new<T>(_source: &T, read: bool, _write: bool) -> PollFd {
            PollFd { read, ready: false }
        }

        /// The same entry watched for reading only, if it is watched for
        /// reading at all.
        pub(crate) fn for_reading(&self) -> Option<PollFd> {
            self.read.then_some(PollFd {
                ready: false,
                ..*self
            })
        }

        /// The last wait ended; a nonblocking read is worth trying.
        pub(crate) fn readable(&self) -> bool {
            self.read && self.ready
        }

        /// The stub cannot see a broken descriptor; reads and writes
        /// report it instead.
        pub(crate) fn hung_up(&self) -> bool {
            false
        }
    }

    /// Sleeps briefly (never past `timeout`) and reports every entry ready.
    pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        std::thread::sleep(timeout.map_or(STUB_SLEEP, |t| t.min(STUB_SLEEP)));
        for fd in fds {
            fd.ready = true;
        }
        Ok(())
    }

    /// Nothing to interrupt: the stub wait returns by itself.
    #[derive(Debug, Clone)]
    pub(crate) struct Waker;

    impl Waker {
        /// No-op.
        pub(crate) fn wake(&self) {}
    }

    /// The reactor's half of the (absent) wake channel.
    #[derive(Debug)]
    pub(crate) struct WakeRx;

    impl WakeRx {
        /// An entry that is never readable.
        pub(crate) fn pollfd(&self) -> PollFd {
            PollFd::NONE
        }

        /// No-op.
        pub(crate) fn drain(&self) {}
    }

    /// The stub pair.
    pub(crate) fn wake_pair() -> io::Result<(Waker, WakeRx)> {
        Ok((Waker, WakeRx))
    }
}
