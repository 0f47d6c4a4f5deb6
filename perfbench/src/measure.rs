//! Sample statistics, process memory, and output digests.

use std::time::Instant;

/// Timing samples of one kind of operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The tail as `(percentile, value)`: the highest percentile that still
    /// has at least ten samples above it, capped at p95. Above p95 the
    /// value is set by a few stalls of the shared host and swings between
    /// runs of the same code. With fewer than eleven samples no such
    /// percentile exists and the maximum is returned as percentile 100.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return (100.0, f64::NAN);
        }
        if n < 11 {
            return (100.0, v[n - 1]);
        }
        let rank = (n - 10).min((0.95 * n as f64).ceil() as usize);
        (100.0 * rank as f64 / n as f64, v[rank - 1])
    }

    /// The nearest-rank `p`-th percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// A `VmXXX:` field of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb * 1024)
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free heap memory back to the kernel, so that the
/// RSS growth over the next operation counts that operation's memory and
/// not whatever earlier operations left free for reuse. A no-op off glibc.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers; it only releases pages the
    // allocator holds for no live allocation.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
}

/// 64-bit FNV-1a digest, stable across runs and builds.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above_and_stops_at_p95() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.tail(), (90.0, 90.0));
        let many = Samples((1..=2000).map(f64::from).collect());
        assert_eq!(many.tail(), (95.0, 1900.0));
        let few = Samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.tail(), (100.0, 3.0));
        assert_eq!(few.median(), 2.0);
        assert_eq!(s.percentile(99.0), 99.0);
    }

    #[test]
    fn status_fields_parse() {
        assert!(peak_rss_bytes() > 0);
        assert!(rss_bytes() > 0);
    }
}
