//! Data-dependent load models.
//!
//! "Execution times for actions may considerably vary over time as they
//! depend on the contents of data" (§2.1). A [`LoadModel`] captures that
//! content dependence as a multiplicative factor around the average
//! behaviour: `1.0` means exactly average, `> 1` a hard scene, `< 1` an
//! easy one. Execution-time sources ([`crate::exec`]) combine a load model
//! with per-sample jitter and clamp into `[0, Cwc]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic per-(cycle, action) load factor.
pub trait LoadModel {
    /// Load factor for `action` in `cycle`; must be non-negative.
    fn factor(&self, cycle: usize, action: usize) -> f64;
}

/// Uniform load.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLoad(pub f64);

impl LoadModel for ConstantLoad {
    fn factor(&self, _cycle: usize, _action: usize) -> f64 {
        self.0
    }
}

/// Seeded bounded random walk across cycles: each cycle's load drifts from
/// the previous one, like consecutive video frames do. Deterministic in
/// `(seed, cycle, action)`.
#[derive(Clone, Debug)]
pub struct RandomWalkLoad {
    seed: u64,
    step: f64,
    min: f64,
    max: f64,
}

impl RandomWalkLoad {
    /// A walk with the given seed, per-cycle step size and clamp range.
    pub fn new(seed: u64, step: f64, min: f64, max: f64) -> RandomWalkLoad {
        assert!(min > 0.0 && min <= max);
        RandomWalkLoad {
            seed,
            step,
            min,
            max,
        }
    }

    fn cycle_level(&self, cycle: usize) -> f64 {
        // Replay the walk from the origin — cycles are small counts in
        // practice and this keeps the model stateless and random-access.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut level = 1.0f64;
        for _ in 0..=cycle {
            level += rng.gen_range(-self.step..=self.step);
            level = level.clamp(self.min, self.max);
        }
        level
    }
}

impl LoadModel for RandomWalkLoad {
    fn factor(&self, cycle: usize, action: usize) -> f64 {
        // Small deterministic per-action ripple on top of the cycle level.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (action as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let ripple = rng.gen_range(-0.05..=0.05);
        (self.cycle_level(cycle) + ripple).clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_load() {
        let l = ConstantLoad(1.5);
        assert_eq!(l.factor(0, 0), 1.5);
        assert_eq!(l.factor(9, 99), 1.5);
    }

    #[test]
    fn random_walk_is_deterministic_and_bounded() {
        let l = RandomWalkLoad::new(42, 0.2, 0.5, 2.0);
        for cycle in 0..20 {
            for action in [0usize, 7, 500] {
                let a = l.factor(cycle, action);
                let b = l.factor(cycle, action);
                assert_eq!(a, b, "deterministic");
                assert!((0.45..=2.05).contains(&a), "bounded with ripple: {a}");
            }
        }
        let other = RandomWalkLoad::new(43, 0.2, 0.5, 2.0);
        assert_ne!(l.factor(3, 3), other.factor(3, 3), "seed matters");
    }
}
