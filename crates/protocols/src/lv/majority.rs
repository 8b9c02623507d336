//! Probabilistic majority selection on top of the LV protocol.
//!
//! Each process initially proposes 0 or 1; proposers of 0 start in state `x`,
//! proposers of 1 in state `y`. The protocol runs forever and each process
//! maintains a running decision variable — its current state, or *undecided*
//! while in `z`. With high probability all processes eventually agree on the
//! initial majority value (Theorem 4 plus the finite-group argument of
//! Section 4.2.2).

use super::{LvParams, STATE_X, STATE_Y, STATE_Z};
use dpde_core::runtime::{
    CountsRecorder, InitialStates, RunResult, Simulation, TransitionRecorder,
};
use dpde_core::CoreError;
use netsim::Scenario;

/// The running decision value of a process or of the whole group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Deciding on proposal 0 (state `x`).
    Zero,
    /// Deciding on proposal 1 (state `y`).
    One,
    /// Undecided (state `z`, or no quorum yet).
    Undecided,
}

/// Outcome of one majority-selection run.
#[derive(Debug, Clone)]
pub struct MajorityOutcome {
    /// The full simulation output.
    pub run: RunResult,
    /// The group-wide decision at the end of the run (the value backed by at
    /// least 99 % of the non-crashed processes).
    pub decision: Decision,
    /// The initial majority value (ties report `Undecided`).
    pub initial_majority: Decision,
    /// `true` if the final decision matches the initial majority.
    pub correct: bool,
    /// First period at which the eventual decision value was backed by the
    /// quorum fraction (`None` if that never happened).
    pub convergence_period: Option<u64>,
}

/// Driver for probabilistic majority selection over the LV protocol.
#[derive(Debug, Clone)]
pub struct MajoritySelection {
    params: LvParams,
}

/// The fraction of (alive) processes that must back a value before the group
/// is considered converged.
const QUORUM: f64 = 0.99;

impl MajoritySelection {
    /// Creates a driver with the paper's LV parameters and a 99 % quorum
    /// threshold for declaring convergence.
    pub fn new(params: LvParams) -> Self {
        MajoritySelection { params }
    }

    /// Runs majority selection: `zeros` processes initially propose 0 and
    /// `ones` propose 1 (they must sum to the scenario's group size; nobody
    /// starts undecided, as in the paper's experiments).
    ///
    /// # Errors
    ///
    /// Propagates protocol and runtime errors.
    pub fn run(
        &self,
        scenario: &Scenario,
        zeros: u64,
        ones: u64,
    ) -> Result<MajorityOutcome, CoreError> {
        let protocol = self.params.protocol()?;
        let initial = InitialStates::counts(&[zeros, ones, 0]);
        // Decisions are evaluated over the non-crashed processes only, so the
        // quorum refers to the surviving population (the paper's Figure 12).
        // Nothing here needs host identity, so run_auto serves exchangeable
        // scenarios (including Figure 12's massive failures) on the
        // count-batched runtime — majority selection at N in the millions
        // stays interactive — and falls back to the agent runtime for
        // per-id schedules and churn traces.
        let run = Simulation::of(protocol)
            .scenario(scenario.clone())
            .initial(initial)
            .observe(CountsRecorder::alive_only())
            .observe(TransitionRecorder::new())
            .run_auto()?;

        let initial_majority = if zeros > ones {
            Decision::Zero
        } else if ones > zeros {
            Decision::One
        } else {
            Decision::Undecided
        };

        let xs = run.state_series(STATE_X)?;
        let ys = run.state_series(STATE_Y)?;
        let zs = run.state_series(STATE_Z)?;
        let decision_at = |i: usize| -> Decision {
            let alive = xs[i] + ys[i] + zs[i];
            if alive == 0.0 {
                return Decision::Undecided;
            }
            if xs[i] / alive >= QUORUM {
                Decision::Zero
            } else if ys[i] / alive >= QUORUM {
                Decision::One
            } else {
                Decision::Undecided
            }
        };
        let final_decision = decision_at(xs.len() - 1);
        let convergence_period = if final_decision == Decision::Undecided {
            None
        } else {
            // First period from which the group stays at the final decision.
            let mut first = None;
            for i in (0..xs.len()).rev() {
                if decision_at(i) == final_decision {
                    first = Some(i as u64);
                } else {
                    break;
                }
            }
            first
        };

        Ok(MajorityOutcome {
            run,
            decision: final_decision,
            initial_majority,
            correct: final_decision == initial_majority,
            convergence_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_majority_is_selected_correctly() {
        // 60/40 split in a 2000-process group (Figure 11, scaled down).
        let m = MajoritySelection::new(LvParams::new());
        let scenario = Scenario::new(2000, 700).unwrap().with_seed(21);
        let outcome = m.run(&scenario, 1200, 800).unwrap();
        assert_eq!(outcome.initial_majority, Decision::Zero);
        assert_eq!(outcome.decision, Decision::Zero);
        assert!(outcome.correct);
        let converged = outcome.convergence_period.expect("should converge");
        assert!(converged < 600, "converged at {converged}");
        // Conservation of processes.
        for (_, s) in outcome.run.counts.iter() {
            assert_eq!(s.iter().sum::<f64>(), 2000.0);
        }
    }

    #[test]
    fn reversed_majority_selects_the_other_value() {
        let m = MajoritySelection::new(LvParams::new());
        let scenario = Scenario::new(2000, 700).unwrap().with_seed(22);
        let outcome = m.run(&scenario, 800, 1200).unwrap();
        assert_eq!(outcome.decision, Decision::One);
        assert!(outcome.correct);
    }

    #[test]
    fn tie_still_converges_to_some_value() {
        // With an exact tie the deterministic system sits on the saddle, but
        // randomization pushes a finite group to one of the stable points
        // (Section 4.2.2). The outcome is then "incorrect" by definition
        // (there is no majority) but the group still agrees.
        let m = MajoritySelection::new(LvParams::new());
        let scenario = Scenario::new(1000, 1500).unwrap().with_seed(23);
        let outcome = m.run(&scenario, 500, 500).unwrap();
        assert_eq!(outcome.initial_majority, Decision::Undecided);
        assert!(matches!(outcome.decision, Decision::Zero | Decision::One));
        assert!(!outcome.correct);
    }

    #[test]
    fn short_run_reports_no_convergence() {
        let m = MajoritySelection::new(LvParams::new());
        let scenario = Scenario::new(500, 3).unwrap().with_seed(24);
        let outcome = m.run(&scenario, 300, 200).unwrap();
        assert_eq!(outcome.decision, Decision::Undecided);
        assert_eq!(outcome.convergence_period, None);
        assert!(!outcome.correct);
    }
}
