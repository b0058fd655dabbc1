//! Sample summaries and failure accounting.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0 < p < 1) of `sorted` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it:
/// a tail read off fewer samples than that does not repeat.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What one request came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx with the expected bytes.
    Ok,
    /// Non-2xx status.
    BadStatus,
    /// Connect, write or read error, including a server-initiated close
    /// that the client did not resend after.
    Transport,
    /// 2xx whose body differs from the in-process answer.
    WrongBytes,
}

/// Latencies and failure counts for a set of requests.
///
/// A failed request is charged the client timeout as its latency: it
/// missed every latency limit, so it must never make a percentile look
/// better than the successes alone would.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent (or attempted: a failed connect counts).
    pub attempted: u64,
    /// Requests that did not end [`Outcome::Ok`].
    pub failed: u64,
    /// Of `failed`, responses whose bytes were wrong.
    pub wrong: u64,
    /// Of `failed`, transport failures.
    pub transport: u64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    /// Record one request.
    pub fn record(&mut self, outcome: Outcome, latency: Duration, timeout: Duration) {
        self.attempted += 1;
        let charged = match outcome {
            Outcome::Ok => latency,
            Outcome::BadStatus | Outcome::Transport | Outcome::WrongBytes => {
                self.failed += 1;
                if outcome == Outcome::WrongBytes {
                    self.wrong += 1;
                }
                if outcome == Outcome::Transport {
                    self.transport += 1;
                }
                latency.max(timeout)
            }
        };
        self.latencies_ms.push(charged.as_secs_f64() * 1e3);
    }

    /// Requests that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.transport += other.transport;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Latencies in milliseconds, ascending (failures at the timeout).
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`], when the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset this process's peak resident set to its current one (Linux:
/// `5` to `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Hand memory the program has freed back to the operating system.
///
/// Each ingest round opens and drops whole stores. glibc keeps their freed
/// pages in its per-thread arenas, so without this the peak resident set
/// grows with the number of rounds a run fits in, not with what the
/// program holds. Live memory is untouched, so a leak still shows.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the
        // kernel; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000: rank 990, ten samples beyond.
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // p99 of 999: rank 990, nine beyond — not reported.
        assert_eq!(tail(&ramp(999), 0.99), None);
        // p90 of 100: rank 90, ten beyond.
        assert_eq!(tail(&ramp(100), 0.90), Some(90.0));
        assert_eq!(tail(&ramp(99), 0.90), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_against_attempted_and_miss_every_limit() {
        let timeout = Duration::from_secs(10);
        let mut t = Tally::default();
        for _ in 0..8 {
            t.record(Outcome::Ok, Duration::from_millis(1), timeout);
        }
        t.record(Outcome::Transport, Duration::from_millis(2), timeout);
        t.record(Outcome::WrongBytes, Duration::from_millis(1), timeout);
        assert_eq!((t.attempted, t.failed, t.succeeded()), (10, 2, 8));
        assert_eq!((t.wrong, t.transport), (1, 1));
        // The two failures sit at the top, charged the timeout.
        let sorted = t.sorted_ms();
        assert_eq!(&sorted[8..], &[10_000.0, 10_000.0]);
        assert_eq!(t.p50_ms(), 1.0);

        let mut other = Tally::default();
        other.record(Outcome::BadStatus, Duration::from_millis(1), timeout);
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (11, 3));
    }
}
