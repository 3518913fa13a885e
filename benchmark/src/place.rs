//! Thread placement for the served workloads: the server's threads on one
//! CPU, the callers on another.
//!
//! A served request crosses four threads (caller → reactor → batcher →
//! reactor → caller) that spend most of it asleep, and on this host waking
//! a thread on a halted vCPU costs 50–100 µs more than waking it on the
//! CPU already running. Where the scheduler first puts the threads it
//! leaves them, so unplaced the same request read 240, 310 or 400 µs for a
//! whole run, one value per process, and three runs in ten disagreed with
//! the other seven. Placed, it reads 352–361 µs on every run: reactor and
//! batcher wake each other on their own CPU and the caller is a CPU away,
//! as a client of a server is.
//!
//! A thread inherits the placement of the thread that starts it, so the
//! benchmark places its own thread while it starts the server and while it
//! starts the callers; nothing inside the program is touched.

/// A set of CPUs, as `sched_setaffinity` takes it: 1024 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on; `None` where the platform
    /// does not say.
    pub fn of_this_thread() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut bits = [0u64; 16];
            // SAFETY: `bits` is a writable buffer of the size passed; pid 0
            // is the calling thread.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), bits.as_mut_ptr()) };
            (rc == 0).then_some(CpuSet(bits))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// The set holding only the `n`-th CPU of this set, counted from 0.
    fn nth(&self, n: usize) -> Option<CpuSet> {
        let cpu = (0..1024)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .nth(n)?;
        let mut bits = [0u64; 16];
        bits[cpu / 64] = 1 << (cpu % 64);
        Some(CpuSet(bits))
    }

    /// Moves the calling thread, and every thread it starts from now on,
    /// onto this set; `false` when the host refuses.
    fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the mask is a readable buffer of the size passed; pid
            // 0 is the calling thread.
            let rc =
                unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
            rc == 0
        }
        #[cfg(not(target_os = "linux"))]
        false
    }
}

/// Which of the two CPUs of a [`Split`].
#[derive(Debug, Clone, Copy)]
pub enum Side {
    Server,
    Callers,
}

/// Server on the first allowed CPU, callers on the second.
#[derive(Debug)]
pub struct Split {
    home: CpuSet,
    server: CpuSet,
    callers: CpuSet,
}

impl Split {
    /// `None` when the thread is allowed fewer than two CPUs — one CPU
    /// cannot be split and needs no placing — or may not place itself.
    pub fn new() -> Option<Split> {
        let home = CpuSet::of_this_thread()?;
        let split = Split {
            home,
            server: home.nth(0)?,
            callers: home.nth(1)?,
        };
        (split.callers.apply() && split.home.apply()).then_some(split)
    }

    /// Runs `f` with the calling thread on one side's CPU, so that every
    /// thread `f` starts stays there, then gives the calling thread its own
    /// CPUs back.
    pub fn on<R>(&self, side: Side, f: impl FnOnce() -> R) -> R {
        let placed = match side {
            Side::Server => self.server.apply(),
            Side::Callers => self.callers.apply(),
        };
        let r = f();
        let back = self.home.apply();
        assert!(
            placed && back,
            "the host let `Split::new` place this thread"
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_picks_single_cpus_in_order() {
        let mut bits = [0u64; 16];
        bits[0] = 0b1010;
        bits[1] = 1;
        let set = CpuSet(bits);
        let only = |cpu: usize| {
            let mut b = [0u64; 16];
            b[cpu / 64] = 1 << (cpu % 64);
            Some(CpuSet(b))
        };
        assert_eq!(set.nth(0), only(1));
        assert_eq!(set.nth(1), only(3));
        assert_eq!(set.nth(2), only(64));
        assert_eq!(set.nth(3), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_split_places_the_thread_and_puts_it_back() {
        let before = CpuSet::of_this_thread().expect("linux reports the affinity");
        if let Some(split) = Split::new() {
            let inherited = |side| {
                split.on(side, || {
                    std::thread::spawn(CpuSet::of_this_thread)
                        .join()
                        .expect("the thread reads its affinity")
                })
            };
            assert_eq!(inherited(Side::Server), before.nth(0));
            assert_eq!(inherited(Side::Callers), before.nth(1));
        }
        assert_eq!(CpuSet::of_this_thread(), Some(before));
    }
}
