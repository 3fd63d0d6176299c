//! The host's clock speed, measured beside every timing.
//!
//! On the shared VM this benchmark was built on, the CPU runs in one
//! of two clock states about 28 % apart and stays in either for
//! seconds to tens of seconds (README.md, "Noise floor"), so whole
//! runs land in one state or the other and no statistic over laps can
//! tell a slower program from a slower clock. A fixed chain of
//! dependent integer steps, timed immediately before and after each
//! measured interval, can: its duration moves with the clock and with
//! nothing else. Every reported time is the measured time divided by
//! the interval's clock factor — what it would have been at the
//! reference clock.

use std::hint::black_box;
use std::time::Instant;

/// Dependent xorshift64 steps per calibration spin (about 2 ms).
const CHAIN_STEPS: u32 = 1_000_000;

/// A spin's duration at the reference clock: the slower of the two
/// states of the VM the benchmark was built on. Only a unit — every
/// figure scales with it alike, and comparisons are between runs on
/// one host.
const REFERENCE_SPIN_NS: f64 = 1_860_000.0;

/// Times one calibration spin, ns.
fn spin_ns() -> u64 {
    let started = Instant::now();
    let mut x = black_box(88_172_645_463_325_252_u64);
    for _ in 0..CHAIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_nanos() as u64
}

/// Brackets consecutive measured intervals with calibration spins.
pub struct Clock {
    last_spin_ns: u64,
}

impl Clock {
    /// Spins once: the next interval starts now.
    pub fn start() -> Clock {
        Clock {
            last_spin_ns: spin_ns(),
        }
    }

    /// Ends the interval that began at the previous spin and returns
    /// its clock factor — how much slower than the reference clock the
    /// CPU ran, as the mean of the spins at either end. A time at the
    /// reference clock is the measured time divided by the factor; a
    /// rate, the measured rate times it. The next interval starts now.
    pub fn factor(&mut self) -> f64 {
        let spin = spin_ns();
        let mean = (self.last_spin_ns + spin) as f64 / 2.0;
        self.last_spin_ns = spin;
        mean / REFERENCE_SPIN_NS
    }
}
