//! The speed index: what the box's clock was doing while a round ran.
//!
//! The reference box changes speed in episodes of seconds to minutes (a
//! fixed loop reads anything from 0.76 to 1.05 of its usual time), and a
//! 10 s run is a sample of a few of them: ten runs of `exact_ssa` spread
//! 18 % on raw call time. A fixed piece of arithmetic timed between the
//! calls tracks those episodes almost exactly — the same ten runs spread
//! 0.3 % once each round's times are divided by the round's index — so the
//! end-to-end times are reported at reference speed, with the raw values and
//! the index printed beside them.
//!
//! The index only cancels what slows the reference loop and the library
//! alike (clock, contention for the core). A change to the library moves
//! the calls and not the loop, so it shows in full.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the reference loop: 1.000 ms on the reference box at its
/// usual speed, so that there a time at reference speed *is* the wall time.
const REPETITIONS: u32 = 350_000;

/// What the reference loop takes at an index of 1, in milliseconds.
const REFERENCE_MS: f64 = 1.0;

/// Runs the reference loop once and returns its duration in milliseconds.
///
/// The loop is the kind of work the runtimes do per draw: four independent
/// xorshift streams (the library's generator is a xoshiro), each scattering
/// into a 64 KiB table that stays in L1/L2.
pub fn reference_loop_ms() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 8192];
    let mut streams = [
        0x9E37_79B9_7F4A_7C15u64,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0x2545_F491_4F6C_DD1D,
    ];
    for _ in 0..REPETITIONS {
        for stream in &mut streams {
            let mut x = *stream;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *stream = x;
            let slot = (x >> 51) as usize;
            table[slot] = table[slot].wrapping_add(x);
        }
    }
    black_box(&table);
    black_box(&streams);
    start.elapsed().as_secs_f64() * 1e3
}

/// The speed index of a round from its reference-loop timings: above 1 the
/// box ran slow, below 1 fast. The median ignores a loop that was preempted.
/// No timings (a round that took none) reads 1: nothing is rescaled.
pub fn index(loop_ms: &[f64]) -> f64 {
    if loop_ms.is_empty() {
        1.0
    } else {
        median(loop_ms) / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_is_the_median_loop_time_over_the_reference() {
        assert_eq!(index(&[1.0, 1.0, 9.0]), 1.0, "one preempted loop");
        assert_eq!(index(&[0.8, 0.8, 0.8, 1.0]), 0.8);
        assert_eq!(index(&[]), 1.0);
    }

    #[test]
    fn the_reference_loop_takes_time_and_repeats() {
        let (a, b) = (reference_loop_ms(), reference_loop_ms());
        assert!(a > 0.0 && b > 0.0);
        // Same work both times: within a factor of five even on a busy box.
        assert!(a / b < 5.0 && b / a < 5.0, "{a} vs {b}");
    }
}
