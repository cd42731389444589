//! Step-size schedules.
//!
//! NOMAD uses `s_t = α / (1 + β · t^{1.5})` where `t` counts the updates
//! performed *on a particular (i, j) pair* (Eq. 11 of the paper), while the
//! DSGD family uses the *bold driver* heuristic that adapts a global step
//! size by monitoring the objective between epochs (Section 5.1).  Both are
//! provided here, plus constant and `1/t` schedules used by ablation
//! benchmarks.

/// A step-size schedule indexed by the per-pair (or per-epoch) update count.
pub trait StepSchedule: Send + Sync {
    /// Step size for the `t`-th update (0-based: `t = 0` is the first
    /// update of that pair).
    fn step(&self, t: u64) -> f64;
}

/// The NOMAD schedule of Eq. 11: `s_t = α / (1 + β · t^{1.5})`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NomadStep {
    /// Initial step size α.
    pub alpha: f64,
    /// Decay rate β.
    pub beta: f64,
}

impl NomadStep {
    /// Creates the schedule.
    pub fn new(alpha: f64, beta: f64) -> Self {
        Self { alpha, beta }
    }
}

impl StepSchedule for NomadStep {
    #[inline]
    fn step(&self, t: u64) -> f64 {
        self.alpha / (1.0 + self.beta * (t as f64).powf(1.5))
    }
}

/// A constant step size (ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantStep {
    /// The step size used for every update.
    pub step: f64,
}

impl StepSchedule for ConstantStep {
    #[inline]
    fn step(&self, _t: u64) -> f64 {
        self.step
    }
}

/// The classical Robbins–Monro `α / (1 + β t)` schedule (ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverseTimeStep {
    /// Initial step size α.
    pub alpha: f64,
    /// Decay rate β.
    pub beta: f64,
}

impl StepSchedule for InverseTimeStep {
    #[inline]
    fn step(&self, t: u64) -> f64 {
        self.alpha / (1.0 + self.beta * t as f64)
    }
}

/// The *bold driver* step adaptation used by DSGD and DSGD++ (Section 5.1):
/// after each epoch the step size is increased slightly if the objective
/// decreased, and cut sharply if it increased.
///
/// Unlike the other schedules this one is stateful and driven by epoch-end
/// feedback, so it exposes [`BoldDriver::epoch_feedback`] instead of being
/// purely a function of `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoldDriver {
    step: f64,
    /// Multiplicative increase applied after an epoch that improved the
    /// objective (the literature uses ~5%).
    pub grow: f64,
    /// Multiplicative decrease applied after an epoch that worsened the
    /// objective (the literature halves the step).
    pub shrink: f64,
    last_objective: Option<f64>,
}

impl BoldDriver {
    /// Creates a bold driver with the customary 5% growth / 50% shrink.
    pub fn new(initial_step: f64) -> Self {
        Self {
            step: initial_step,
            grow: 1.05,
            shrink: 0.5,
            last_objective: None,
        }
    }

    /// Current step size.
    #[inline]
    pub fn current(&self) -> f64 {
        self.step
    }

    /// Reports the objective value reached at the end of an epoch; the step
    /// size for the next epoch is adapted accordingly.
    pub fn epoch_feedback(&mut self, objective: f64) {
        if let Some(prev) = self.last_objective {
            if objective <= prev {
                self.step *= self.grow;
            } else {
                self.step *= self.shrink;
            }
        }
        self.last_objective = Some(objective);
    }
}

impl StepSchedule for BoldDriver {
    #[inline]
    fn step(&self, _t: u64) -> f64 {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nomad_step_matches_formula() {
        let s = NomadStep::new(0.012, 0.05);
        assert_eq!(s.step(0), 0.012);
        let t = 100u64;
        let expected = 0.012 / (1.0 + 0.05 * (t as f64).powf(1.5));
        assert!((s.step(t) - expected).abs() < 1e-15);
    }

    #[test]
    fn nomad_step_is_monotone_decreasing() {
        let s = NomadStep::new(0.01, 0.001);
        let mut prev = f64::INFINITY;
        for t in 0..1000 {
            let cur = s.step(t);
            assert!(cur <= prev, "step must not increase at t={t}");
            assert!(cur > 0.0);
            prev = cur;
        }
    }

    #[test]
    fn nomad_step_with_zero_beta_is_constant() {
        // Hugewiki in Table 1 uses β = 0, i.e. a constant step.
        let s = NomadStep::new(0.001, 0.0);
        assert_eq!(s.step(0), 0.001);
        assert_eq!(s.step(1_000_000), 0.001);
    }

    #[test]
    fn constant_step_is_constant() {
        let s = ConstantStep { step: 0.42 };
        assert_eq!(s.step(0), 0.42);
        assert_eq!(s.step(u64::MAX), 0.42);
    }

    #[test]
    fn inverse_time_decays_slower_than_nomad() {
        let inv = InverseTimeStep {
            alpha: 0.01,
            beta: 0.05,
        };
        let nomad = NomadStep::new(0.01, 0.05);
        for t in [10u64, 100, 1000] {
            assert!(inv.step(t) > nomad.step(t));
        }
    }

    #[test]
    fn bold_driver_grows_on_improvement_and_shrinks_on_regression() {
        let mut bd = BoldDriver::new(0.1);
        assert_eq!(bd.current(), 0.1);
        bd.epoch_feedback(100.0); // first epoch: no previous value, no change
        assert_eq!(bd.current(), 0.1);
        bd.epoch_feedback(90.0); // improved
        assert!((bd.current() - 0.105).abs() < 1e-12);
        bd.epoch_feedback(95.0); // regressed
        assert!((bd.current() - 0.0525).abs() < 1e-12);
    }

    #[test]
    fn bold_driver_implements_schedule_trait() {
        let bd = BoldDriver::new(0.2);
        let as_schedule: &dyn StepSchedule = &bd;
        assert_eq!(as_schedule.step(123), 0.2);
    }
}
