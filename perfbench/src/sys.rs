//! CPU time and peak resident memory from `getrusage(2)`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// Resource usage of this process or of its waited-for children.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, ms.
    pub cpu_ms: f64,
    /// Peak resident set size, MiB (for children: the largest child's).
    pub maxrss_mib: f64,
}

fn usage(who: c_int) -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `struct timeval`s of two longs, then fourteen longs), `r` is a
    // valid exclusive pointer for the call, and `who` is one of the two
    // constants above.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage with a valid `who` cannot fail");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Usage {
        cpu_ms: ms(&r.utime) + ms(&r.stime),
        maxrss_mib: r.maxrss as f64 / 1024.0,
    }
}

/// This process, all threads.
pub fn own() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child process waited for so far.
pub fn children() -> Usage {
    usage(RUSAGE_CHILDREN)
}
