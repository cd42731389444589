//! Per-dataset hyper-parameters (Table 1 of the paper).

/// Hyper-parameters of one experiment: latent dimension `k`, regularization
/// `λ` (Eq. 1) and the step-size schedule constants `α`, `β` (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Latent dimension `k`.
    pub k: usize,
    /// Regularization parameter `λ`.
    pub lambda: f64,
    /// Step-size numerator `α`.
    pub alpha: f64,
    /// Step-size decay `β`.
    pub beta: f64,
}

impl HyperParams {
    /// Table 1, Netflix row: `k=100, λ=0.05, α=0.012, β=0.05`.
    pub fn netflix() -> Self {
        Self {
            k: 100,
            lambda: 0.05,
            alpha: 0.012,
            beta: 0.05,
        }
    }

    /// Table 1, Yahoo! Music row: `k=100, λ=1.00, α=0.00075, β=0.01`.
    pub fn yahoo_music() -> Self {
        Self {
            k: 100,
            lambda: 1.00,
            alpha: 0.00075,
            beta: 0.01,
        }
    }

    /// Table 1, Hugewiki row: `k=100, λ=0.01, α=0.001, β=0`.
    pub fn hugewiki() -> Self {
        Self {
            k: 100,
            lambda: 0.01,
            alpha: 0.001,
            beta: 0.0,
        }
    }

    /// Parameters used for the synthetic scaling study of Section 5.5
    /// (`λ = 0.01`, `k = 100`; step constants follow the Netflix settings
    /// since the synthetic data imitates Netflix's sparsity pattern).
    pub fn synthetic() -> Self {
        Self {
            k: 100,
            lambda: 0.01,
            alpha: 0.012,
            beta: 0.05,
        }
    }

    /// Scales the latent dimension while keeping the other parameters,
    /// used by the Appendix B sweep (Figure 14).
    pub fn with_k(self, k: usize) -> Self {
        Self { k, ..self }
    }

    /// Replaces the regularization parameter, used by the Appendix A and E
    /// sweeps (Figures 13 and 20).
    pub fn with_lambda(self, lambda: f64) -> Self {
        Self { lambda, ..self }
    }

    /// Replaces the step-size constants.
    pub fn with_step(self, alpha: f64, beta: f64) -> Self {
        Self {
            alpha,
            beta,
            ..self
        }
    }

    /// The step-size schedule these parameters define (Eq. 11).
    pub fn nomad_schedule(&self) -> crate::schedule::NomadStep {
        crate::schedule::NomadStep::new(self.alpha, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::StepSchedule;

    #[test]
    fn table1_values_are_faithful() {
        let n = HyperParams::netflix();
        assert_eq!((n.k, n.lambda, n.alpha, n.beta), (100, 0.05, 0.012, 0.05));
        let y = HyperParams::yahoo_music();
        assert_eq!((y.k, y.lambda, y.alpha, y.beta), (100, 1.00, 0.00075, 0.01));
        let h = HyperParams::hugewiki();
        assert_eq!((h.k, h.lambda, h.alpha, h.beta), (100, 0.01, 0.001, 0.0));
    }

    #[test]
    fn builders_override_single_fields() {
        let p = HyperParams::netflix().with_k(20).with_lambda(0.5);
        assert_eq!(p.k, 20);
        assert_eq!(p.lambda, 0.5);
        assert_eq!(p.alpha, 0.012);
        let q = p.with_step(0.1, 0.2);
        assert_eq!((q.alpha, q.beta), (0.1, 0.2));
    }

    #[test]
    fn schedule_uses_alpha_beta() {
        let p = HyperParams::hugewiki();
        let s = p.nomad_schedule();
        // β = 0 means a constant step equal to α.
        assert_eq!(s.step(0), p.alpha);
        assert_eq!(s.step(10_000), p.alpha);
    }

    #[test]
    fn synthetic_matches_section_5_5() {
        let p = HyperParams::synthetic();
        assert_eq!(p.lambda, 0.01);
        assert_eq!(p.k, 100);
    }
}
