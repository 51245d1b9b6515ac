//! Order statistics over measured samples.

/// Nearest-rank percentile `q` in (0, 1]; NaN for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the middle two for an even count); NaN for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// True when `p` is a probability: finite and within [0, 1].
pub fn is_prob(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

/// Order-sensitive fingerprint of every bit of `values`.
pub fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut bytes = Vec::new();
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    retina_core::snapshot::fnv1a64(&bytes)
}
