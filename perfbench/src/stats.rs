//! Small measurement helpers: order statistics, FNV fingerprints, peak
//! resident memory and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
/// Returns the measured value itself, never an interpolation.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile, up to p99, that has at least ten samples
/// beyond it: p99 from 1000 samples on, lower for smaller samples (never
/// below the median).
pub fn tail(samples: &[f64]) -> f64 {
    percentile(
        samples,
        (1.0 - 10.0 / samples.len() as f64).clamp(0.5, 0.99),
    )
}

/// Incremental FNV-1a-64 over bytes, for bitwise output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A fixed-capacity sample buffer, written through before timing starts
/// so that recording never allocates and its memory does not depend on
/// how many ops a run completes. Once full it overwrites its oldest
/// samples.
pub struct Ring {
    buf: Vec<f32>,
    next: usize,
    full: bool,
}

impl Ring {
    pub fn new(cap: usize) -> Self {
        // A non-zero fill makes every page resident now, not mid-run.
        Ring {
            buf: vec![-1.0; cap.max(1)],
            next: 0,
            full: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.buf[self.next] = v as f32;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
            self.full = true;
        }
    }

    pub fn values(&self) -> Vec<f64> {
        let n = if self.full { self.buf.len() } else { self.next };
        self.buf[..n].iter().map(|&v| f64::from(v)).collect()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's result: op accounting, output-check verdict and
/// metrics, printed as the last line of standard output.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, each described in one line.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a failed output check. It counts as a failed op and makes
    /// the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
            self.attempted += 1;
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `peak_rss_mb`. Called as the timed pass ends, before the
    /// benchmark sorts its samples, so the figure is the program's
    /// high-water mark plus the benchmark's fixed buffers.
    pub fn peak_rss(&mut self) {
        if let Some(mb) = peak_rss_mb() {
            self.metric("peak_rss_mb", mb, "MB");
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values are printed with every digit Rust's shortest round-trip
    /// formatting gives.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_return_samples() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0);
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs), 4950.0);
    }

    #[test]
    fn ring_keeps_the_newest_samples() {
        let mut r = Ring::new(3);
        assert!(r.values().is_empty());
        for v in 1..=4 {
            r.push(f64::from(v));
        }
        let mut got = r.values();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "boom".to_string());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }
}
