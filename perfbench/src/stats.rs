//! Sample statistics and host facts shared by every workload.

use crate::json::Json;

/// A set of measurements (latencies in µs, durations in s, …).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.sum() / self.values.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated between the two
    /// nearest order statistics; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q`-quantile of each run of `window` consecutive samples (a short
    /// tail joins the last window), then the median over the windows: a tail
    /// percentile that a burst of host noise confined to a few windows does
    /// not move. With fewer than two windows, the plain quantile.
    pub fn windowed_quantile(&self, q: f64, window: usize) -> f64 {
        let windows = self.values.len() / window.max(1);
        if windows < 2 {
            return self.quantile(q);
        }
        let mut per_window = Samples::new();
        for w in 0..windows {
            let end = if w + 1 == windows {
                self.values.len()
            } else {
                (w + 1) * window
            };
            let chunk = Samples {
                values: self.values[w * window..end].to_vec(),
            };
            per_window.push(chunk.quantile(q));
        }
        per_window.median()
    }

    /// Median, quartiles, p99 and the sample count, for the run record.
    pub fn summary(&self) -> Json {
        Json::obj()
            .with("n", self.len())
            .with("p25", self.quantile(0.25))
            .with("p50", self.median())
            .with("p75", self.quantile(0.75))
            .with("p99", self.quantile(0.99))
            .with("p99_windowed", self.windowed_quantile(0.99, 1_000))
            .with("mean", self.mean())
    }
}

/// `num / den`, NaN for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores the scheduler lets this process use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SIMD features the scan kernel dispatches on, as detected at run time.
pub fn simd_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512bw") {
            found.push("avx512bw");
        }
        if std::arch::is_x86_feature_detected!("avx512vl") {
            found.push("avx512vl");
        }
        if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
            found.push("avx512vpopcntdq");
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(Samples::new().median().is_nan());
    }

    #[test]
    fn windowed_quantile_ignores_a_burst_in_one_window() {
        let mut s = Samples::new();
        for i in 0..3000 {
            // One slow burst inside the second window only.
            s.push(if (1500..1600).contains(&i) {
                100.0
            } else {
                1.0
            });
        }
        assert_eq!(s.quantile(0.99), 100.0);
        assert_eq!(s.windowed_quantile(0.99, 1000), 1.0);
        // Too few samples for two windows: the plain quantile.
        assert_eq!(s.windowed_quantile(0.99, 2000), s.quantile(0.99));
    }
}
