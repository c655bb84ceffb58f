//! The toolkit's end-to-end benchmark: the logic that does not need a
//! running workload (statistics, spans, the training correctness gate),
//! kept here so its own tests cover it. The workload passes live in the
//! `perfbench` binary; `run.py` drives them.

pub mod spans;
pub mod stats;

use std::time::Instant;

/// The training gate: one message per step whose loss is not finite,
/// and one if the run did not complete `steps` steps.
pub fn loss_violations(losses: &[f32], steps: u64) -> Vec<String> {
    let mut bad: Vec<String> = losses
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_finite())
        .map(|(k, l)| format!("step {k}: loss {l}"))
        .collect();
    if losses.len() as u64 != steps {
        bad.push(format!("ran {} of {steps} steps", losses.len()));
    }
    bad
}

/// FNV-1a over the bit patterns of a loss sequence: a digest two runs
/// share only when every step's loss is bit-identical.
pub fn loss_digest(losses: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in losses {
        for b in l.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A field of this process's `/proc/self/status` in kB (e.g. `VmHWM`),
/// or `None` when the file or field is missing.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// CPU time used so far by all threads of this process, live or ended,
/// in ns (`CLOCK_PROCESS_CPUTIME_ID`, 64-bit Linux). With paravirtual
/// steal accounting, time the hypervisor gives to other guests is not
/// charged to it.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`, summed over
/// CPUs), in clock ticks of 10 ms.
fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    text.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Measures the share of the machine's CPU time the hypervisor gave to
/// other guests from its start until [`StealMeter::share`] is called.
pub struct StealMeter {
    at: Instant,
    ticks: Option<u64>,
}

impl StealMeter {
    /// Start measuring now.
    pub fn start() -> Self {
        StealMeter {
            at: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Stolen share of the CPU time since the start; 0 when the kernel
    /// reports no steal.
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let secs = self.at.elapsed().as_secs_f64();
        match (self.ticks, steal_ticks()) {
            (Some(a), Some(b)) if secs > 0.0 => b.saturating_sub(a) as f64 * 0.01 / (cpus * secs),
            _ => 0.0,
        }
    }
}

/// The widest SIMD tier this CPU offers: `fma`, `avx2`, `sse2` or `none`.
pub fn isa_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "fma";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "none"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[2] = f32::from_bits(b[2].to_bits() ^ 1);
        assert_eq!(loss_digest(&a), loss_digest(&a));
        assert_ne!(loss_digest(&a), loss_digest(&b));
        assert_ne!(loss_digest(&a), loss_digest(&a[..2]));
    }

    #[test]
    fn gate_flags_a_non_finite_loss_and_a_short_run() {
        let good = [0.5f32, 0.4, 0.3];
        assert!(loss_violations(&good, 3).is_empty());
        let mut bad = good;
        bad[1] = f32::NAN;
        assert_eq!(loss_violations(&bad, 3), ["step 1: loss NaN"]);
        assert_eq!(loss_violations(&good[..2], 3), ["ran 2 of 3 steps"]);
        bad[2] = f32::INFINITY;
        assert_eq!(loss_violations(&bad, 3).len(), 2);
    }

    #[test]
    fn own_process_has_status_and_cpu_time() {
        assert!(proc_status_kb("VmHWM").unwrap() > 0);
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
    }
}
