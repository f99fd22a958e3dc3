//! Fixed-bucket log-scale latency histograms (HDR-style).
//!
//! Values (nanoseconds, but any `u64` scale works) map to buckets by a pure
//! function of the value: the first `2^SUB_BITS` values get exact unit
//! buckets, and every later power-of-two octave is split into `2^SUB_BITS`
//! sub-buckets, bounding relative quantile error at `2^-SUB_BITS` (~6%).
//! Recording is two relaxed `fetch_add`s — no locks, no allocation —
//! so concurrent recorders sharing one histogram produce bucket counts
//! identical to any serial interleaving of the same samples (pinned by
//! `tests/hist_props.rs`): every handler thread records into the same
//! per-outcome histogram without coordination.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::Value;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range. The largest exponent a
/// value can have is 63, giving index `((63 - SUB_BITS + 1) << SUB_BITS) +
/// mantissa`, which stays below this bound.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize + 1) << SUB_BITS) + SUB_COUNT as usize;

/// Map a value to its bucket index. Pure and total: every `u64` lands in
/// exactly one of the `N_BUCKETS` buckets.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let mantissa = (v >> (e - SUB_BITS)) & (SUB_COUNT - 1);
        ((((e - SUB_BITS + 1) as usize) << SUB_BITS) + mantissa as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive upper bound of the value range covered by bucket `i`; quantile
/// estimates report this bound, so they never under-state a latency.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB_COUNT as usize {
        i as u64
    } else {
        let e = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        if e >= 64 {
            // Indices past the last bucket any u64 can reach.
            return u64::MAX;
        }
        let mantissa = (i as u64) & (SUB_COUNT - 1);
        let width = 1u64 << (e - SUB_BITS);
        (1u64 << e) + mantissa * width + (width - 1)
    }
}

/// Lock-free log-scale histogram with atomic buckets.
///
/// `Debug` prints the sum, not the bucket array; a snapshot derives the
/// count from the buckets.
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        // Zero-init the bucket array on the heap without a 16KB stack copy.
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; N_BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length fixed at N_BUCKETS"));
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample: two relaxed atomic adds, nothing else.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Capture a consistent-enough snapshot for reporting. Buckets are read
    /// individually (relaxed), so a snapshot raced with recorders may lag a
    /// few in-flight samples; it never invents counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable bucket counts captured from a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Quantile estimate `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th smallest sample. Returns 0 for an
    /// empty snapshot. Monotone both in `q` and in the recorded values.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(N_BUCKETS - 1)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// JSON summary: count, sum, mean, and the standard quantile ladder,
    /// every key but `count` suffixed `_ns`.  Keys are emitted sorted (the
    /// whole crate's `metrics_json` contract).
    pub fn to_json(&self) -> Value {
        let keyed = |name: &str, v: f64| (format!("{name}_ns"), Value::Number(v));
        Value::Object(vec![
            ("count".to_string(), Value::Number(self.count as f64)),
            keyed("mean", self.mean()),
            keyed("p50", self.quantile(0.50) as f64),
            keyed("p90", self.quantile(0.90) as f64),
            keyed("p99", self.quantile(0.99) as f64),
            keyed("p999", self.quantile(0.999) as f64),
            keyed("sum", self.sum as f64),
        ])
        .sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < 1 << 20 {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index regressed at {v}");
            assert!(i < N_BUCKETS);
            prev = i;
            v += 1 + v / 7;
        }
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 15, 16, 17, 255, 1024, 999_999, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(
                v <= bucket_upper_bound(i),
                "value {v} above its bucket bound"
            );
            if i > 0 {
                assert!(
                    v > bucket_upper_bound(i - 1),
                    "value {v} not above previous bucket bound"
                );
            }
        }
    }

    #[test]
    fn quantiles_bound_recorded_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Upper-bound estimates: at least the true quantile, within one
        // sub-bucket (2^-4 relative) above it.
        assert!((500_000..=500_000 + 500_000 / 8).contains(&p50));
        assert!((990_000..=990_000 + 990_000 / 8).contains(&p99));
        assert!(s.quantile(0.0) <= p50 && p50 <= p99 && p99 <= s.quantile(1.0));
    }
}
