//! CPU time of this process and of the threads of a child.
//!
//! On a guest whose kernel accounts paravirtual steal time
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), a task's CPU time leaves out
//! the time the host ran another guest on its virtual CPU, which wall
//! time counts. On a shared host that steal comes in bursts of tens of
//! seconds and moves a wall-clock figure, a tail latency most of all,
//! by far more than a code change of interest, so the gated figures
//! are CPU time.
//!
//! CPU time still moves with the host: the other guests on a physical
//! core slow the instructions of this one, by up to a third for minutes
//! at a time. [`slowdown`] measures that with a fixed reference job, so
//! the gated figures can be given at the reference host's speed.

use std::collections::BTreeMap;
use std::fs::File;
use std::os::unix::fs::FileExt;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

fn clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// CPU seconds this process has used, all its threads together.
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Pins the calling thread, and every thread and process it starts from
/// now on, to one CPU: the highest-numbered one it may run on. Returns
/// that CPU, or `None` when the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).rev().find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu_set_t of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// CPU ms this thread spends on `job`.
fn thread_ms(job: impl FnOnce()) -> f64 {
    let start = clock_s(CLOCK_THREAD_CPUTIME_ID);
    job();
    (clock_s(CLOCK_THREAD_CPUTIME_ID) - start) * 1e3
}

/// CPU ms of the two reference jobs on the host this benchmark was
/// built on, in a calm stretch: see [`slowdown`].
const REFERENCE_MS: (f64, f64) = (1.94, 11.1);

/// The argument that makes the benchmark binary run [`probe`], print
/// its result and exit.
pub const PROBE_FLAG: &str = "--probe-host";

/// How much slower than the reference host this host runs now, measured
/// by [`probe`] in a fresh process, so that neither the state this
/// process has built up nor the probe's memory shows in the other. A
/// run calls this between its passes or tenant groups and divides its
/// time figures by the median (README.md, "Host speed").
pub fn slowdown() -> f64 {
    let exe = std::env::current_exe().expect("the benchmark binary");
    let out = std::process::Command::new(exe)
        .arg(PROBE_FLAG)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the host probe");
    assert!(out.status.success(), "the host probe failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the host probe prints a number")
}

/// The mean, over two fixed jobs, of their CPU time as a share of
/// [`REFERENCE_MS`]. One job computes over a table the size of a core's
/// own cache; the other maps fresh memory and faults in every page, the
/// kernel work behind the program's allocations and I/O.
pub fn probe() -> f64 {
    let compute = thread_ms(|| {
        let mut table = vec![0u64; 1 << 15];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..400_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) % table.len();
            table[j] = table[j].wrapping_add(i);
        }
        std::hint::black_box(&table);
    });
    let faults = thread_ms(|| {
        const LEN: usize = 4 << 20;
        for _ in 0..4 {
            // SAFETY: a fresh private anonymous mapping of LEN bytes; every
            // write stays inside it, and it is unmapped before the next.
            unsafe {
                let p = mmap(
                    std::ptr::null_mut(),
                    LEN,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                );
                assert!(!p.is_null() && p as isize != -1, "mmap");
                for offset in (0..LEN).step_by(4096) {
                    p.add(offset).write_volatile(1);
                }
                munmap(p, LEN);
            }
        }
    });
    (compute / REFERENCE_MS.0 + faults / REFERENCE_MS.1) / 2.0
}

/// The CPU time of every thread of a running process, in nanoseconds:
/// the first field of `/proc/<pid>/task/<tid>/schedstat`. Each file
/// stays open and is re-read in place, so a reading costs one `pread`
/// per thread. A thread that has ended keeps its last reading, so the
/// total never goes back.
pub struct Threads {
    pid: u32,
    threads: BTreeMap<u32, (File, u64)>,
    /// The readings of the threads when they were picked up.
    base: u64,
}

impl Threads {
    /// The threads process `pid` runs now.
    pub fn of(pid: u32) -> Threads {
        let mut t = Threads {
            pid,
            threads: BTreeMap::new(),
            base: 0,
        };
        t.refresh();
        t
    }

    /// Picks up threads started since the last call. What they used
    /// before does not count.
    pub fn refresh(&mut self) {
        let Ok(dir) = std::fs::read_dir(format!("/proc/{}/task", self.pid)) else {
            return;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            if self.threads.contains_key(&tid) {
                continue;
            }
            if let Ok(file) = File::open(entry.path().join("schedstat")) {
                let now = read_ns(&file).unwrap_or(0);
                self.base += now;
                self.threads.insert(tid, (file, now));
            }
        }
    }

    /// CPU nanoseconds the known threads have used since they were
    /// picked up, all together.
    pub fn total_ns(&mut self) -> u64 {
        let mut total = 0;
        for (file, last) in self.threads.values_mut() {
            if let Some(now) = read_ns(file) {
                *last = now;
            }
            total += *last;
        }
        total - self.base
    }

    /// How many threads are known.
    pub fn count(&self) -> usize {
        self.threads.len()
    }
}

/// The first field of a `schedstat` file, read from its start.
fn read_ns(file: &File) -> Option<u64> {
    let mut buf = [0u8; 96];
    let n = file.read_at(&mut buf, 0).ok()?;
    std::str::from_utf8(&buf[..n])
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
    }

    #[test]
    fn a_pinned_thread_runs_on_its_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinned");
            let mut mask = [0u64; 16];
            // SAFETY: as in `pin_to_one_cpu`.
            let rc = unsafe {
                sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
            };
            assert_eq!(rc, 0);
            let set: Vec<usize> = (0..1024)
                .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
                .collect();
            assert_eq!(set, vec![cpu]);
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn probe_is_a_positive_share() {
        let s = probe();
        assert!(s.is_finite() && s > 0.0, "{s}");
        // Not a tight range: only that the reference is the right scale.
        assert!(s > 0.05 && s < 20.0, "{s}");
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_s();
        spin();
        assert!(process_s() > before);
    }

    #[test]
    fn thread_totals_count_from_pickup_and_never_go_back() {
        let mut threads = Threads::of(std::process::id());
        let before = threads.total_ns();
        let start = process_s();
        spin();
        let spin_ns = ((process_s() - start) * 1e9) as u64;
        let after = threads.total_ns();
        assert!(after > before);
        // A thread picked up after its work brings none of it along.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            spin();
            done_tx.send(()).expect("main waits");
            let _ = go_rx.recv();
        });
        done_rx.recv().expect("worker spun");
        let known = threads.count();
        threads.refresh();
        assert!(threads.count() > known);
        let picked = threads.total_ns();
        assert!(picked >= after);
        go_tx.send(()).expect("worker waits");
        worker.join().expect("worker");
        let ended = threads.total_ns();
        assert!(ended >= picked);
        assert!(ended - picked < spin_ns / 2, "{ended} - {picked} vs {spin_ns}");
    }
}
