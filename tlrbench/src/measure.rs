//! Small measurement helpers: percentiles, the process high-water mark,
//! the machine-speed probe, and the cycle counter with the cost of one
//! read.

use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median of `values` (mean of the middle two for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=1) of `values`; failed operations
/// enter as `f64::INFINITY`, so they count as missing any limit.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The probe's speed, in work units per nanosecond, in an undisturbed
/// phase on the shared 2-core Xeon VM the benchmark was calibrated on.
pub const PROBE_REFERENCE: f64 = 0.058;

/// Speed of a fixed, interpreter-like piece of work owned by the
/// benchmark (a dispatch loop over a pseudo-random opcode stream with
/// table loads/stores and small allocations), in work units per
/// nanosecond. It shares none of the program's code, so only the
/// machine's state moves it: on a shared box it tracks the run-wide slow
/// phases neighbours cause (correlation 0.95 with engine MIPS across
/// runs), which timed metrics are corrected for.
pub fn probe_speed() -> f64 {
    thread_local! {
        // Allocated once, so the probe leaves the process's memory
        // high-water mark alone.
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![0; 1 << 16]);
    }
    TABLE.with_borrow_mut(|table| probe_on(table))
}

fn probe_on(table: &mut [u64]) -> f64 {
    const STEPS: u64 = 600_000;
    let mut bag: Vec<Vec<u64>> = Vec::with_capacity(64);
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let t = Instant::now();
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 0xFFFF;
        match x >> 61 {
            0 => acc = acc.wrapping_add(table[slot]),
            1 => table[slot] = acc ^ i,
            2 => acc = acc.rotate_left(7) ^ table[slot ^ 1],
            3 if acc & 1 == 0 => acc += 3,
            3 => acc ^= x,
            4 => {
                bag.push(vec![acc; 1 + (x as usize & 15)]);
                if bag.len() == 64 {
                    bag.clear();
                }
            }
            5 => table[(slot + 8) & 0xFFFF] = table[slot].wrapping_mul(3),
            6 => acc = acc.wrapping_mul(x | 1),
            _ => acc = acc.wrapping_sub(table[slot >> 1]),
        }
    }
    std::hint::black_box((acc, &table, &bag));
    STEPS as f64 / ns_since(t) as f64
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A cheap cycle-counter reading for timing single calls inside the
/// traced step loops: `rdtsc` where available (a fraction of a clock
/// read's cost, and it does not drain the pipeline), else nanoseconds
/// from a process-wide origin.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions on x86_64.
        #[allow(unused_unsafe)]
        unsafe {
            std::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per [`ticks`] unit, measured once against the monotonic
/// clock over 50 ms.
pub fn ns_per_tick() -> f64 {
    static RATE: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *RATE.get_or_init(|| {
        let (t, k) = (Instant::now(), ticks());
        while t.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
        ns_since(t) as f64 / (ticks() - k).max(1) as f64
    })
}

/// What an empty timed region reads: the median gap between two
/// back-to-back clock reads. Sampled layer times subtract it once per
/// timed region.
pub fn timer_cost_ns() -> f64 {
    let gaps: Vec<f64> = (0..20_000)
        .map(|_| {
            let t = ticks();
            (ticks() - t) as f64
        })
        .collect();
    median(&gaps) * ns_per_tick()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
    }
}
