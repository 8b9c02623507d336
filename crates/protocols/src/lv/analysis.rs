//! Analysis of the LV protocol (Section 4.2.2, Theorem 4): equilibria, their
//! stability, the basin structure, and the convergence complexity.

use super::LvParams;
use odekit::analysis::{analyze_equilibrium, EquilibriumFinder, Stability};
use odekit::OdeError;

/// The four equilibria of the LV system in the `(x, y)` plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LvEquilibria {
    /// `(0, 0)` — unstable.
    pub(crate) origin: (f64, f64),
    /// `(1, 0)` — stable: proposal `x` wins.
    pub(crate) x_wins: (f64, f64),
    /// `(0, 1)` — stable: proposal `y` wins.
    pub(crate) y_wins: (f64, f64),
    /// `(1/3, 1/3)` — saddle on the diagonal.
    pub(crate) tie: (f64, f64),
}

impl LvParams {
    /// The four equilibria named by Theorem 4.
    pub(crate) fn equilibria(&self) -> LvEquilibria {
        LvEquilibria {
            origin: (0.0, 0.0),
            x_wins: (1.0, 0.0),
            y_wins: (0.0, 1.0),
            tie: (1.0 / 3.0, 1.0 / 3.0),
        }
    }

    /// Verifies Theorem 4's stability classification using the generic
    /// eigenvalue machinery on the original two-variable system. Returns the
    /// classifications of `(0,0)`, `(1,0)`, `(0,1)` and `(1/3,1/3)` in that
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-computation failures.
    pub fn classify_equilibria(&self) -> Result<[Stability; 4], OdeError> {
        let sys = self.original_equations();
        let eq = self.equilibria();
        let points = [eq.origin, eq.x_wins, eq.y_wins, eq.tie];
        let mut out = [Stability::Marginal; 4];
        for (i, (x, y)) in points.iter().enumerate() {
            out[i] = analyze_equilibrium(&sys, &[*x, *y])?.classification;
        }
        Ok(out)
    }

    /// Confirms numerically (via multi-start Newton search over the unit box)
    /// that the system has exactly the four equilibria of Theorem 4.
    pub fn equilibria_found_by_search(&self) -> Vec<Vec<f64>> {
        EquilibriumFinder::new()
            .search_box(&self.original_equations(), &[(0.0, 1.0), (0.0, 1.0)], 6)
            .unwrap_or_default()
    }

    /// The convergence complexity of Section 4.2.2: near the stable point
    /// `(0, 1)` the minority fraction decays as `x(t) = u₀·e^{−rate·t}`
    /// (and symmetrically near `(1, 0)`), so reaching `O(1)` minority
    /// processes from a constant-fraction split takes `O(log N)` time units,
    /// i.e. `O(log N / (rate·p))` protocol periods.
    pub fn expected_convergence_periods(&self, n: u64) -> f64 {
        let n = n.max(2) as f64;
        n.ln() / (self.rate * self.normalizing_constant)
    }

    /// The closed-form linearized trajectory near `(0, 1)`:
    /// `x(t) = u₀ e^{−rate·t}`, `y(t) = 1 − (2·rate·u₀·t + v₀)·e^{−rate·t}`
    /// for an initial perturbation `(u₀, v₀)`.
    pub fn convergence_trajectory(&self, u0: f64, v0: f64, t: f64) -> (f64, f64) {
        let r = self.rate;
        let x = u0 * (-r * t).exp();
        let y = 1.0 - (2.0 * r * u0 * t + v0) * (-r * t).exp();
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odekit::integrate::{Integrator, Rk4};

    #[test]
    fn theorem4_classifications() {
        let params = LvParams::new();
        let [origin, x_wins, y_wins, tie] = params.classify_equilibria().unwrap();
        assert_eq!(origin, Stability::UnstableNode);
        assert_eq!(x_wins, Stability::StableNode);
        assert_eq!(y_wins, Stability::StableNode);
        assert_eq!(tie, Stability::Saddle);
    }

    #[test]
    fn exactly_four_equilibria_in_the_unit_box() {
        let found = LvParams::new().equilibria_found_by_search();
        assert_eq!(found.len(), 4, "{found:?}");
        let expected = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0 / 3.0, 1.0 / 3.0)];
        for (ex, ey) in expected {
            assert!(
                found
                    .iter()
                    .any(|p| (p[0] - ex).abs() < 1e-6 && (p[1] - ey).abs() < 1e-6),
                "missing ({ex}, {ey})"
            );
        }
    }

    #[test]
    fn basins_of_attraction_follow_the_diagonal() {
        // Integrate the completed system from both sides of the diagonal and
        // check Theorem 4's items 1–3.
        let params = LvParams::new();
        let sys = params.completed_equations();
        let rk = Rk4::new(0.01);
        let right = rk.integrate(&sys, 0.0, &[0.4, 0.3, 0.3], 20.0).unwrap();
        assert!(
            right.last_state()[0] > 0.99,
            "x should win: {:?}",
            right.last_state()
        );

        let left = rk.integrate(&sys, 0.0, &[0.2, 0.5, 0.3], 20.0).unwrap();
        assert!(
            left.last_state()[1] > 0.99,
            "y should win: {:?}",
            left.last_state()
        );

        // On the diagonal the system heads to (1/3, 1/3).
        let tie = rk.integrate(&sys, 0.0, &[0.2, 0.2, 0.6], 20.0).unwrap();
        let last = tie.last_state();
        assert!((last[0] - 1.0 / 3.0).abs() < 1e-3 && (last[1] - 1.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn convergence_complexity_is_logarithmic() {
        let params = LvParams::new();
        // The paper's Figure 11 observation: with p = 0.01, a 100 000-process
        // group converges in < 500 periods.
        let periods = params.expected_convergence_periods(100_000);
        assert!(periods < 500.0, "predicted {periods}");
        // Doubling N adds a constant, not a factor.
        let delta = params.expected_convergence_periods(200_000) - periods;
        assert!(delta < 30.0);
        // The closed-form trajectory decays towards (0, 1).
        let (x0, y0) = params.convergence_trajectory(0.05, 0.05, 0.0);
        assert!((x0 - 0.05).abs() < 1e-12 && (y0 - 0.95).abs() < 1e-12);
        let (x, y) = params.convergence_trajectory(0.05, 0.05, 5.0);
        assert!(x < 1e-6);
        assert!((y - 1.0).abs() < 1e-4);
    }
}
