//! Host speed, measured next to every timing so that each timing can be
//! reported at one reference speed.
//!
//! The benchmark's virtual CPUs share physical cores with other tenants.
//! While the other hardware thread of the core is busy, code on this one
//! runs up to ~1.5× slower, and that state changes every few seconds. A
//! run's raw timings therefore move by 10–25% with the share of its time
//! the core was contended, more than any bound a regression check could
//! use. Averaging over longer runs does not remove it: whole runs land in
//! busy or quiet stretches.
//!
//! So a fixed kernel is timed right before and right after every measured
//! interval: eight independent integer hash chains that live in registers,
//! touch no memory and share no code with the library, so nothing a change
//! to the program does can move it. The interval's raw time is scaled by
//! [`REFERENCE_MS`] over the mean of the samples: the time the interval
//! would have taken on an uncontended core of the reference machine. A
//! slower program still reads slower; a busier host no longer does. Every
//! raw value is reported next to the scaled one.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// The kernel's median round time on an uncontended core of the reference
/// machine (2-core KVM guest, Intel Xeon family 6 model 207, `rustc`
/// 1.95.0), in milliseconds.
pub const REFERENCE_MS: f64 = 0.245;

/// Hash-chain steps per round.
const ROUND_STEPS: u64 = 80_000;

/// Rounds per sample; the sample is their median, so one preemption
/// inside a round cannot skew it.
const ROUNDS: usize = 3;

/// One round of the kernel, in milliseconds. The chains are independent,
/// so the round is bound by the core's multiplier throughput, which is
/// what a busy sibling hardware thread takes away.
fn round_ms() -> f64 {
    let start = Instant::now();
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..ROUND_STEPS {
        for h in &mut chains {
            *h = h.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i) ^ (*h >> 29);
        }
    }
    black_box(chains);
    start.elapsed().as_secs_f64() * 1e3
}

/// The kernel samples of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Times the kernel now and records the sample (milliseconds).
    pub fn sample(&mut self) -> f64 {
        let mut rounds = [0.0; ROUNDS];
        for r in &mut rounds {
            *r = round_ms();
        }
        rounds.sort_by(f64::total_cmp);
        let ms = rounds[ROUNDS / 2];
        self.samples_ms.push(ms);
        ms
    }

    /// The factor that scales an interval to the reference speed, from
    /// the samples taken around it.
    pub fn factor(samples: &[f64]) -> f64 {
        REFERENCE_MS * samples.len() as f64 / samples.iter().sum::<f64>()
    }

    /// The samples' median, 10th and 90th percentiles and count, as a
    /// JSON object.
    pub fn json(&self) -> String {
        let q = |p| quantile(&self.samples_ms, p).unwrap_or(f64::NAN);
        format!(
            "{{\"kernel_ms.p10\": {:?}, \"kernel_ms.p50\": {:?}, \"kernel_ms.p90\": {:?}, \
             \"reference_ms\": {REFERENCE_MS:?}, \"samples\": {}}}",
            q(0.1),
            q(0.5),
            q(0.9),
            self.samples_ms.len()
        )
    }

    /// The samples' median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        quantile(&self.samples_ms, 0.5).unwrap_or(f64::NAN)
    }
}

/// Timings of one kind, raw and scaled to the reference speed.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    /// As measured, in seconds.
    pub raw: Vec<f64>,
    /// Scaled by each interval's host-speed factor, in seconds.
    pub scaled: Vec<f64>,
}

impl Timings {
    /// Records a raw time and its interval's factor.
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * factor);
    }

    /// The scaled or the raw times.
    pub fn get(&self, scaled: bool) -> &[f64] {
        if scaled {
            &self.scaled
        } else {
            &self.raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        assert!((HostSpeed::factor(&[REFERENCE_MS]) - 1.0).abs() < 1e-12);
        let slow = [1.5 * REFERENCE_MS, 2.5 * REFERENCE_MS];
        assert!((HostSpeed::factor(&slow) - 0.5).abs() < 1e-12);
        let mut t = Timings::default();
        t.push(3.0, 0.5);
        assert_eq!(t.get(false), &[3.0]);
        assert_eq!(t.get(true), &[1.5]);
    }

    #[test]
    fn samples_are_positive() {
        let mut h = HostSpeed::default();
        assert!(h.sample() > 0.0);
        assert!(h.median_ms() > 0.0);
    }
}
