//! Protocol state machines: the output of the ODE→protocol compiler.

use crate::action::Action;
use crate::error::CoreError;
use crate::Result;
use std::fmt;

/// Identifier of a protocol state (a dense index).
///
/// States correspond one-to-one to the variables of the source equation
/// system, in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StateId(usize);

impl StateId {
    /// Creates a state id from a raw index.
    pub fn new(index: usize) -> Self {
        StateId(index)
    }

    /// The raw index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for StateId {
    fn from(value: usize) -> Self {
        StateId(value)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state#{}", self.0)
    }
}

/// A synthesized protocol: a probabilistic state machine with one state per
/// equation-system variable and periodic actions attached to each state.
///
/// A `Protocol` is pure data — it can be executed by any of the
/// [`runtime`](crate::runtime) tiers (each compiles it once into the same
/// flat plan of actions and transition edges, then runs per process, per
/// message, per count vector or per reaction), rendered for documentation,
/// or inspected for message complexity.
///
/// The `time_scale` records the normalizing constant `p`: one protocol period
/// advances the source differential equations by `p` time units, which is how
/// protocol trajectories are compared against ODE trajectories.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Protocol {
    name: String,
    states: Vec<String>,
    actions: Vec<Vec<Action>>,
    time_scale: f64,
}

impl Protocol {
    /// Creates an empty protocol with the given state names and a time scale
    /// of 1 (one period = one ODE time unit).
    ///
    /// # Errors
    ///
    /// Returns an error if no states are given or names repeat.
    pub fn new(name: impl Into<String>, states: Vec<String>) -> Result<Self> {
        if states.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "states",
                reason: "a protocol needs at least one state".into(),
            });
        }
        for (i, s) in states.iter().enumerate() {
            if states[..i].contains(s) {
                return Err(CoreError::InvalidConfig {
                    name: "states",
                    reason: format!("state `{s}` declared twice"),
                });
            }
        }
        let n = states.len();
        Ok(Protocol {
            name: name.into(),
            states,
            actions: vec![Vec::new(); n],
            time_scale: 1.0,
        })
    }

    /// The protocol's name (used in reports and rendered output).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The state names, in order.
    pub(crate) fn state_names(&self) -> &[String] {
        &self.states
    }

    /// The name of one state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub(crate) fn state_name(&self, state: StateId) -> &str {
        &self.states[state.index()]
    }

    /// Looks up a state by name.
    pub(crate) fn state(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s == name).map(StateId)
    }

    /// Looks up a state by name, returning an error if absent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownState`] if no state has that name.
    pub fn require_state(&self, name: &str) -> Result<StateId> {
        self.state(name)
            .ok_or_else(|| CoreError::UnknownState(name.to_string()))
    }

    /// All state ids in order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len()).map(StateId)
    }

    /// The actions attached to a state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn actions(&self, state: StateId) -> &[Action] {
        &self.actions[state.index()]
    }

    /// Every state's action list, in state order (what the runtimes' plan
    /// flattens).
    pub(crate) fn action_lists(&self) -> &[Vec<Action>] {
        &self.actions
    }

    /// Attaches an action to a state.
    ///
    /// # Errors
    ///
    /// Returns an error if the state or any state referenced by the action is
    /// out of range, or the action's probability is outside `[0, 1]`.
    pub fn add_action(&mut self, state: StateId, action: Action) -> Result<()> {
        self.check_state(state)?;
        self.check_action(&action)?;
        self.actions[state.index()].push(action);
        Ok(())
    }

    /// The normalizing constant `p`: ODE time advanced per protocol period.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Sets the time scale (the normalizing constant `p`).
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < time_scale ≤ 1`.
    pub(crate) fn set_time_scale(&mut self, time_scale: f64) -> Result<()> {
        if !(time_scale.is_finite() && time_scale > 0.0 && time_scale <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "time_scale",
                reason: format!("the normalizing constant must lie in (0, 1], got {time_scale}"),
            });
        }
        self.time_scale = time_scale;
        Ok(())
    }

    /// Total number of actions across all states.
    pub fn num_actions(&self) -> usize {
        self.actions.iter().map(Vec::len).sum()
    }

    /// Validates every action (state references in range, probabilities in
    /// `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for state in self.state_ids() {
            for action in self.actions(state) {
                self.check_action(action)?;
            }
        }
        Ok(())
    }

    fn check_state(&self, state: StateId) -> Result<()> {
        if state.index() >= self.states.len() {
            return Err(CoreError::UnknownState(format!("{state}")));
        }
        Ok(())
    }

    fn check_action(&self, action: &Action) -> Result<()> {
        let prob = action.prob();
        if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
            return Err(CoreError::InvalidProbability {
                context: format!("action `{action}`"),
                value: prob,
            });
        }
        self.check_state(action.destination())?;
        match action {
            Action::Sample { required, .. } => {
                for s in required {
                    self.check_state(*s)?;
                }
            }
            Action::Tokenize {
                required,
                token_state,
                ..
            } => {
                for s in required {
                    self.check_state(*s)?;
                }
                self.check_state(*token_state)?;
            }
            Action::SampleAny { target_state, .. } | Action::PushSample { target_state, .. } => {
                self.check_state(*target_state)?;
            }
            Action::Flip { .. } => {}
        }
        Ok(())
    }

    /// Renders the protocol in a human-readable form similar to the paper's
    /// Figure 3 (one block per state listing its periodic actions).
    pub fn render(&self) -> String {
        let mut out = format!("protocol `{}` (p = {})\n", self.name, self.time_scale);
        for state in self.state_ids() {
            out.push_str(&format!("state {}:\n", self.state_name(state)));
            let actions = self.actions(state);
            if actions.is_empty() {
                out.push_str("  (no actions)\n");
            }
            for a in actions {
                out.push_str(&format!("  - {}\n", a.render(&self.states)));
            }
        }
        out
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_state() -> Protocol {
        Protocol::new("test", vec!["x".into(), "y".into(), "z".into()]).unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let p = three_state();
        assert_eq!(p.name(), "test");
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.state("y"), Some(StateId::new(1)));
        assert_eq!(p.state("q"), None);
        assert!(p.require_state("q").is_err());
        assert_eq!(p.state_name(StateId::new(2)), "z");
        assert_eq!(p.state_ids().count(), 3);
        assert_eq!(p.num_actions(), 0);
        assert_eq!(p.time_scale(), 1.0);
        assert!(Protocol::new("empty", vec![]).is_err());
        assert!(Protocol::new("dup", vec!["a".into(), "a".into()]).is_err());
    }

    #[test]
    fn add_action_validates_references_and_probabilities() {
        let mut p = three_state();
        let x = p.require_state("x").unwrap();
        let y = p.require_state("y").unwrap();
        p.add_action(x, Action::Flip { prob: 0.5, to: y }).unwrap();
        assert_eq!(p.actions(x).len(), 1);
        assert_eq!(p.num_actions(), 1);
        // Bad probability.
        assert!(p.add_action(x, Action::Flip { prob: 1.5, to: y }).is_err());
        // Bad destination.
        assert!(p
            .add_action(
                x,
                Action::Flip {
                    prob: 0.5,
                    to: StateId::new(9)
                }
            )
            .is_err());
        // Bad required state inside a Sample.
        assert!(p
            .add_action(
                x,
                Action::Sample {
                    required: vec![StateId::new(9)],
                    prob: 0.1,
                    to: y
                }
            )
            .is_err());
        // Bad token state.
        assert!(p
            .add_action(
                x,
                Action::Tokenize {
                    required: vec![y],
                    prob: 0.1,
                    token_state: StateId::new(9),
                    to: y
                }
            )
            .is_err());
        // Bad target state for SampleAny / PushSample.
        assert!(p
            .add_action(
                x,
                Action::SampleAny {
                    target_state: StateId::new(9),
                    samples: 1,
                    prob: 0.1,
                    to: y
                }
            )
            .is_err());
        // Unknown source state.
        assert!(p
            .add_action(StateId::new(9), Action::Flip { prob: 0.5, to: y })
            .is_err());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn time_scale_bounds() {
        let mut p = three_state();
        assert!(p.set_time_scale(0.01).is_ok());
        assert_eq!(p.time_scale(), 0.01);
        assert!(p.set_time_scale(0.0).is_err());
        assert!(p.set_time_scale(1.5).is_err());
        assert!(p.set_time_scale(f64::NAN).is_err());
    }

    #[test]
    fn render_mentions_every_state_and_action() {
        let mut p = three_state();
        let x = p.require_state("x").unwrap();
        let y = p.require_state("y").unwrap();
        p.add_action(
            x,
            Action::SampleAny {
                target_state: y,
                samples: 2,
                prob: 1.0,
                to: y,
            },
        )
        .unwrap();
        let text = p.render();
        assert!(text.contains("state x:"));
        assert!(text.contains("state z:"));
        assert!(text.contains("no actions"));
        assert!(text.contains("2 targets"));
        assert!(!format!("{p}").is_empty());
    }

    #[test]
    fn state_id_conversions() {
        let s: StateId = 3.into();
        assert_eq!(s.index(), 3);
        assert_eq!(s.to_string(), "state#3");
    }
}
