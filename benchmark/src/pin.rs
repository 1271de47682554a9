//! Pin the calling thread, and so every thread it spawns from then on
//! (threads inherit their spawner's mask), to one CPU. Which workloads run
//! pinned, and why `sim_run` does not: `workloads::runs_pinned`. Pin
//! before the workload is set up.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

/// The calling thread is pinned while this lives; dropping it gives every
/// thread of the process the CPUs the caller had before.
pub struct Pinned {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    before: Mask,
}

/// Restrict the calling thread to the highest-numbered CPU it is allowed
/// on (CPU 0 takes most interrupts). `None` when the mask cannot be read
/// or set — the run then proceeds unpinned.
pub fn to_one_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let mut before: Mask = [0; WORDS];
        let size = std::mem::size_of_val(&before);
        // SAFETY: `before` is a live, writable buffer of `size` bytes,
        // which is what the call fills; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, before.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = highest_set_bit(&before)?;
        let mut one: Mask = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(0, &one).then_some(Pinned { before })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Set the mask of thread `tid` (0: the caller).
#[cfg(target_os = "linux")]
fn set(tid: i32, mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of the size given, which the call
    // only reads.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Every thread, not the caller alone: the threads the layers
        // spawned and parked while pinned inherited the one-CPU mask, and
        // whoever runs next reuses them. A thread that cannot be listed or
        // re-masked stays pinned; nothing to do about it here.
        #[cfg(target_os = "linux")]
        for tid in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| entry.file_name().to_str()?.parse().ok())
        {
            set(tid, &self.before);
        }
    }
}

#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_of_a_mask() {
        assert_eq!(highest_set_bit(&[0, 0]), None);
        assert_eq!(highest_set_bit(&[0b11, 0]), Some(1));
        assert_eq!(highest_set_bit(&[1, 1 << 5]), Some(69));
    }

    #[cfg(target_os = "linux")]
    fn allowed() -> Mask {
        let mut now: Mask = [0; WORDS];
        // SAFETY: as in `to_one_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&now), now.as_mut_ptr()) };
        assert_eq!(rc, 0);
        now
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pins_to_one_cpu_until_dropped() {
        use std::sync::mpsc::channel;
        // Pins only this thread (pid 0 = caller) and the one it spawns.
        std::thread::spawn(|| {
            let before = allowed();
            let pinned = to_one_cpu().expect("affinity readable and settable");
            let now = allowed();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(highest_set_bit(&now), highest_set_bit(&before));

            // A thread spawned while pinned inherits the mask and gets the
            // old one back with its spawner.
            let (go, wait) = channel::<()>();
            let (report, masks) = channel();
            let child = std::thread::spawn(move || {
                report.send(allowed()).unwrap();
                wait.recv().unwrap();
                report.send(allowed()).unwrap();
            });
            assert_eq!(masks.recv().unwrap(), now);
            drop(pinned);
            go.send(()).unwrap();
            assert_eq!(masks.recv().unwrap(), before);
            child.join().unwrap();
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }
}
