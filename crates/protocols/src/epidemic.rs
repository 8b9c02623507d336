//! The canonical epidemic (anti-entropy) dissemination protocol — the paper's
//! motivating example (Section 1).
//!
//! The equations `ẋ = −xy, ẏ = xy` over the fractions of susceptible (`x`)
//! and infected (`y`) processes compile directly into the canonical *pull*
//! epidemic: every susceptible process periodically contacts one uniformly
//! random member and becomes infected if that member is infected. A *push*
//! variant (infected processes push to random members) and a *push–pull*
//! combination are also provided for comparison experiments.

use dpde_core::runtime::{AgentRuntime, InitialStates, RunResult, Simulation};
use dpde_core::{Action, Protocol, ProtocolCompiler};
use netsim::Scenario;
use odekit::{EquationSystem, EquationSystemBuilder};

/// Which direction(s) infection travels on a contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EpidemicStyle {
    /// Susceptible processes pull from random members (the canonical protocol
    /// the compiler produces from the epidemic equations).
    #[default]
    Pull,
    /// Infected processes push to random members.
    Push,
    /// Both directions on every period.
    PushPull,
}

/// The epidemic dissemination protocol and its source equations.
#[derive(Debug, Clone)]
pub struct Epidemic {
    style: EpidemicStyle,
    fanout: u32,
}

impl Default for Epidemic {
    fn default() -> Self {
        Epidemic {
            style: EpidemicStyle::Pull,
            fanout: 1,
        }
    }
}

impl Epidemic {
    /// Creates the canonical pull epidemic (one contact per period).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the contact style.
    #[must_use]
    pub fn with_style(mut self, style: EpidemicStyle) -> Self {
        self.style = style;
        self
    }

    /// The source differential equations (equation (0) of the paper), over
    /// fractions: `ẋ = −xy, ẏ = xy`.
    pub fn equations(&self) -> EquationSystem {
        EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .expect("epidemic equations are well-formed")
    }

    /// Builds the protocol state machine.
    ///
    /// The pull variant is compiled straight from the equations; push and
    /// push–pull are the paper-style variants built from
    /// [`Action::SampleAny`] / [`Action::PushSample`].
    pub fn protocol(&self) -> Protocol {
        match self.style {
            EpidemicStyle::Pull if self.fanout == 1 => ProtocolCompiler::new("epidemic-pull")
                .compile(&self.equations())
                .expect("epidemic equations are mappable"),
            _ => {
                let mut protocol =
                    Protocol::new("epidemic", vec!["x".to_string(), "y".to_string()])
                        .expect("two distinct states");
                let x = protocol.require_state("x").expect("state x");
                let y = protocol.require_state("y").expect("state y");
                if matches!(self.style, EpidemicStyle::Pull | EpidemicStyle::PushPull) {
                    protocol
                        .add_action(
                            x,
                            Action::SampleAny {
                                target_state: y,
                                samples: self.fanout,
                                prob: 1.0,
                                to: y,
                            },
                        )
                        .expect("valid pull action");
                }
                if matches!(self.style, EpidemicStyle::Push | EpidemicStyle::PushPull) {
                    protocol
                        .add_action(
                            y,
                            Action::PushSample {
                                target_state: x,
                                samples: self.fanout,
                                prob: 1.0,
                                to: y,
                            },
                        )
                        .expect("valid push action");
                }
                protocol
            }
        }
    }

    /// Runs a multicast dissemination: `initial_infected` processes start with
    /// the payload; returns the full run result.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (invalid scenario / initial distribution).
    pub fn disseminate(
        &self,
        scenario: &Scenario,
        initial_infected: u64,
    ) -> dpde_core::Result<RunResult> {
        let n = scenario.group_size() as u64;
        let initial = InitialStates::counts(&[n - initial_infected, initial_infected]);
        Simulation::of(self.protocol())
            .scenario(scenario.clone())
            .initial(initial)
            .record_defaults()
            .run::<AgentRuntime>()
    }

    /// The number of periods after which the number of susceptibles first
    /// drops to at most `threshold`, if it ever does.
    pub fn rounds_to_reach(result: &RunResult, threshold: f64) -> Option<u64> {
        let xs = result.state_series("x").ok()?;
        xs.iter().position(|&v| v <= threshold).map(|p| p as u64)
    }

    /// The paper's analytical prediction: dissemination completes (down to
    /// `O(1)` susceptibles) in `O(log N)` protocol periods. This returns the
    /// constant-free estimate `log2(N) + ln(N)` commonly used for pull
    /// epidemics, useful as a sanity bound in tests and benchmarks.
    pub fn expected_rounds(n: u64) -> f64 {
        let n = n.max(2) as f64;
        n.log2() + n.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odekit::taxonomy;

    #[test]
    fn equations_are_mappable_and_complete() {
        let eq = Epidemic::new().equations();
        assert!(taxonomy::is_completely_partitionable(&eq));
        assert!(taxonomy::is_restricted_polynomial(&eq));
    }

    #[test]
    fn pull_protocol_matches_compiler_output() {
        let e = Epidemic::new();
        let p = e.protocol();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.num_actions(), 1);
    }

    #[test]
    fn push_pull_protocol_has_two_actions() {
        let p = Epidemic::new()
            .with_style(EpidemicStyle::PushPull)
            .protocol();
        assert_eq!(p.num_actions(), 2);
        let push_only = Epidemic::new().with_style(EpidemicStyle::Push).protocol();
        assert_eq!(push_only.num_actions(), 1);
    }

    #[test]
    fn dissemination_reaches_everyone_in_logarithmic_rounds() {
        let n = 2048usize;
        let scenario = Scenario::new(n, 60).unwrap().with_seed(3);
        let result = Epidemic::new().disseminate(&scenario, 1).unwrap();
        assert!(result.final_counts().unwrap()[1] as usize > n - 5);
        let rounds = Epidemic::rounds_to_reach(&result, 5.0).expect("should saturate");
        assert!(
            (rounds as f64) < 2.5 * Epidemic::expected_rounds(n as u64),
            "rounds {rounds} vs expected {}",
            Epidemic::expected_rounds(n as u64)
        );
    }

    #[test]
    fn push_pull_is_at_least_as_fast_as_pull() {
        let n = 2048usize;
        let pull_scenario = Scenario::new(n, 60).unwrap().with_seed(5);
        let pull = Epidemic::new().disseminate(&pull_scenario, 1).unwrap();
        let pp_scenario = Scenario::new(n, 60).unwrap().with_seed(5);
        let pp = Epidemic::new()
            .with_style(EpidemicStyle::PushPull)
            .disseminate(&pp_scenario, 1)
            .unwrap();
        let pull_rounds = Epidemic::rounds_to_reach(&pull, 5.0).unwrap();
        let pp_rounds = Epidemic::rounds_to_reach(&pp, 5.0).unwrap();
        assert!(
            pp_rounds <= pull_rounds,
            "push-pull {pp_rounds} vs pull {pull_rounds}"
        );
    }

    #[test]
    fn rounds_to_reach_handles_missing_threshold() {
        let n = 64usize;
        let scenario = Scenario::new(n, 2).unwrap().with_seed(1);
        let result = Epidemic::new().disseminate(&scenario, 1).unwrap();
        // Too few rounds to empty the susceptibles entirely.
        assert_eq!(Epidemic::rounds_to_reach(&result, 0.0), None);
    }
}
