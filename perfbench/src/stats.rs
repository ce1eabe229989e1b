//! Order statistics, digests and process memory used by the workloads.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail percentile the benchmark reports: the highest percentile, at
/// most p95, that still leaves at least ten samples above it. Returns the
/// value and the percentile used; `None` when there are fewer than eleven
/// samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank r (1-based) leaves n - r samples above it.
    let by_p95 = (0.95 * n as f64).ceil() as usize;
    let rank = by_p95.min(n - 10).max(1);
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// 64-bit FNV-1a, fed incrementally: stable across processes and builds,
/// which is what a pinned digest needs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a string with its length, so concatenations stay distinct.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Feeds a boolean vector (a partition).
    pub fn bools(&mut self, v: &[bool]) -> &mut Self {
        self.u64(v.len() as u64);
        for &b in v {
            self.bytes(&[u8::from(b)]);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Resets this process's peak resident set size (VmHWM) to its current
/// RSS, so the next [`peak_rss_mib`] covers only what runs after the
/// reset. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (VmHWM) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set size of this process (VmRSS) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=216).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        // p95 of 216 is rank 206, which leaves exactly ten above.
        assert_eq!(value, 206.0);
        assert!((pct - 100.0 * 206.0 / 216.0).abs() < 1e-12);
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&small).unwrap().0, 10.0);
        assert!(tail(&small[..10]).is_none());
    }

    #[test]
    fn digest_separates_concatenations() {
        let a = Fnv::default().str("ab").str("c").finish();
        let b = Fnv::default().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
