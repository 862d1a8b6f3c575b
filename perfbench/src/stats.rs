//! Order statistics for the reported timings.

use metaclass_netsim::Histogram;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles offered as a tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value (nearest rank). Falls back to the maximum when
/// fewer than 100 samples leave even p90 without ten beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
        if rank >= 1 && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100.0, v[n - 1])
}

/// Percentile `p` of a metrics histogram, interpolated linearly inside the
/// log-linear bucket that holds it. The histogram's own
/// [`Histogram::percentile`] returns the bucket's upper bound, which moves
/// in ~6% steps; interpolation keeps the figure continuous across seeds.
pub fn interpolated_percentile(hist: &Histogram, p: f64) -> f64 {
    let counts = bucket_counts(hist);
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (p / 100.0) * total as f64;
    let mut seen = 0u64;
    for (bucket, &c) in counts.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= rank {
            let (lo, hi) = bucket_bounds(bucket);
            let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            let value = lo + (hi - lo) * frac;
            return value.clamp(hist.min() as f64, hist.max() as f64);
        }
        seen += c;
    }
    hist.max() as f64
}

/// The histogram's bucket counts, read from its serialized form (the type
/// keeps them private).
fn bucket_counts(hist: &Histogram) -> Vec<u64> {
    let json = serde_json::to_string(hist).expect("histogram serializes");
    let start = json.find("\"counts\":[").expect("histogram has counts") + "\"counts\":[".len();
    let end = start + json[start..].find(']').expect("counts array closes");
    json[start..end].split(',').map(|c| c.trim().parse().expect("bucket count")).collect()
}

/// Value range `[lo, hi]` covered by `bucket` (16 linear sub-buckets per
/// power of two, as in the netsim histogram).
fn bucket_bounds(bucket: usize) -> (f64, f64) {
    const SUB: usize = 16;
    if bucket < SUB {
        return (bucket as f64, bucket as f64);
    }
    let group = (bucket / SUB) as i32 + 3;
    let sub = (bucket % SUB) as f64;
    let base = 2f64.powi(group);
    let step = 2f64.powi(group - 4);
    (base + sub * step, base + (sub + 1.0) * step - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_pick_order_statistics() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.5);
        // p95 of 200 samples has exactly ten beyond it; p99 has two.
        assert_eq!(tail(&v), (95.0, 190.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
    }

    #[test]
    fn interpolation_stays_inside_the_reported_bucket() {
        let mut h = Histogram::new();
        for v in 1_000_000..1_001_000u64 {
            h.record(v);
        }
        h.record(70_000_000);
        let exact_bucket = h.percentile(99.0) as f64;
        let p99 = interpolated_percentile(&h, 99.0);
        assert!(p99 <= exact_bucket && p99 >= h.min() as f64, "{p99} vs {exact_bucket}");
        assert_eq!(interpolated_percentile(&Histogram::new(), 99.0), 0.0);
    }
}
