//! Order statistics and the run's deterministic digest.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule
/// on a sorted copy: the smallest sample with at least `q` of the
/// population at or below it. `None` for an empty population.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median by the nearest-rank rule (see [`quantile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a, fed incrementally: the digest that must repeat exactly
/// across runs of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a label vector in node order.
    pub fn labels(&mut self, labels: &[u32]) {
        for &l in labels {
            self.bytes(&l.to_le_bytes());
        }
    }

    /// The digest so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.labels(&[1, 2]);
        let mut b = Digest::default();
        b.labels(&[2, 1]);
        assert_ne!(a.hex(), b.hex());
    }
}
