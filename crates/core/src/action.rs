//! Protocol actions: the probabilistic, periodic steps of a synthesized
//! state machine.
//!
//! The compiler (Section 3 and 6 of the paper) emits three action kinds:
//! [`Action::Flip`], [`Action::Sample`] (One-Time-Sampling) and
//! [`Action::Tokenize`]. Two further kinds, [`Action::SampleAny`] and
//! [`Action::PushSample`], express the *variant* constructions the paper uses
//! in its endemic case study (Figure 1 and the optimization (iv) of
//! Section 4.1.2): contacting `b` targets and reacting if *any* of them is in
//! a given state, and pushing a transition onto sampled targets.

use crate::state_machine::StateId;
use std::fmt;

/// One periodic action attached to a protocol state.
///
/// Every action is executed once per protocol period by each process whose
/// current state carries the action (unless an earlier action of the same
/// state already made the process transition this period).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Action {
    /// Toss a biased coin; on heads, transition to `to`.
    ///
    /// Derived from a term `-c·x` on the right-hand side of `ẋ`; the coin's
    /// heads probability is `p·c`.
    Flip {
        /// Heads probability of the local coin.
        prob: f64,
        /// Destination state on heads.
        to: StateId,
    },
    /// One-Time-Sampling: sample `required.len()` processes uniformly at
    /// random from the group; transition to `to` if the `j`-th sampled
    /// process is in state `required[j]` for every `j` *and* a local coin with
    /// heads probability `prob` falls heads.
    ///
    /// Derived from a term `-c·x^{i_x}·Π y^{i_y}` on the right-hand side of
    /// `ẋ`: `required` contains `i_x − 1` copies of `x` followed by `i_y`
    /// copies of each other variable `y` in lexicographic order.
    Sample {
        /// States the sampled targets must be in (in sampling order).
        required: Vec<StateId>,
        /// Heads probability of the local coin.
        prob: f64,
        /// Destination state when all conditions hold.
        to: StateId,
    },
    /// Sample `samples` processes and transition to `to` if **any** of them is
    /// in `target_state` (and the local coin falls heads).
    ///
    /// This is the Figure 1 "receptive seeks stasher" construction with
    /// contact parameter `b = samples`; its effective rate is
    /// `1 − (1 − y)^b ≈ b·y` for small `y`.
    SampleAny {
        /// The state the process is looking for among its samples.
        target_state: StateId,
        /// Number of uniform samples (the paper's `b`).
        samples: u32,
        /// Heads probability of the local coin.
        prob: f64,
        /// Destination state on success.
        to: StateId,
    },
    /// Sample `samples` processes; every sampled process that is currently in
    /// `target_state` immediately transitions to `to` (subject to the local
    /// coin). The *executing* process does not change state.
    ///
    /// This is the endemic protocol's optimization (iv): a stasher pushes the
    /// object onto receptive targets.
    PushSample {
        /// The state of the targets that will be converted.
        target_state: StateId,
        /// Number of uniform samples (the paper's `b`).
        samples: u32,
        /// Heads probability of the local coin (applied per target hit).
        prob: f64,
        /// State the converted targets move to.
        to: StateId,
    },
    /// Tokenizing (Section 6): the executing process evaluates the same
    /// conditions as [`Action::Sample`], but on success it does **not**
    /// transition. Instead it generates a token and forwards it to some
    /// process currently in `token_state`; on receipt that process transitions
    /// to `to`. If no process is in `token_state`, the token is dropped.
    Tokenize {
        /// States the sampled targets must be in (in sampling order).
        required: Vec<StateId>,
        /// Heads probability of the local coin.
        prob: f64,
        /// The state whose members consume the token (the paper's `x` with
        /// `i_x = 0`).
        token_state: StateId,
        /// Destination state of the token consumer.
        to: StateId,
    },
}

impl Action {
    /// The coin probability of the action.
    pub fn prob(&self) -> f64 {
        match self {
            Action::Flip { prob, .. }
            | Action::Sample { prob, .. }
            | Action::SampleAny { prob, .. }
            | Action::PushSample { prob, .. }
            | Action::Tokenize { prob, .. } => *prob,
        }
    }

    /// The destination state of the transition this action can cause.
    pub fn destination(&self) -> StateId {
        match self {
            Action::Flip { to, .. }
            | Action::Sample { to, .. }
            | Action::SampleAny { to, .. }
            | Action::PushSample { to, .. }
            | Action::Tokenize { to, .. } => *to,
        }
    }

    /// Number of sampling messages this action sends per period (the quantity
    /// the paper's message-complexity bound counts: one message per sampled
    /// target, tokens counted as one extra message).
    pub(crate) fn messages_per_period(&self) -> u32 {
        match self {
            Action::Flip { .. } => 0,
            Action::Sample { required, .. } => required.len() as u32,
            Action::SampleAny { samples, .. } | Action::PushSample { samples, .. } => *samples,
            Action::Tokenize { required, .. } => required.len() as u32 + 1,
        }
    }

    /// `true` if executing this action can change the executing process's own
    /// state (as opposed to some other process's state).
    pub(crate) fn moves_self(&self) -> bool {
        matches!(
            self,
            Action::Flip { .. } | Action::Sample { .. } | Action::SampleAny { .. }
        )
    }

    /// Renders the action using state names from the surrounding protocol.
    pub(crate) fn render(&self, names: &[String]) -> String {
        let name = |s: &StateId| {
            names
                .get(s.index())
                .cloned()
                .unwrap_or_else(|| format!("s{}", s.index()))
        };
        match self {
            Action::Flip { prob, to } => {
                format!("flip(heads={prob:.4}) -> {}", name(to))
            }
            Action::Sample { required, prob, to } => {
                let req: Vec<String> = required.iter().map(&name).collect();
                format!(
                    "sample[{}] & flip(heads={prob:.4}) -> {}",
                    req.join(","),
                    name(to)
                )
            }
            Action::SampleAny {
                target_state,
                samples,
                prob,
                to,
            } => format!(
                "sample {samples} targets, if any in {} & flip(heads={prob:.4}) -> {}",
                name(target_state),
                name(to)
            ),
            Action::PushSample {
                target_state,
                samples,
                prob,
                to,
            } => format!(
                "push to {samples} targets: any in {} moves (heads={prob:.4}) -> {}",
                name(target_state),
                name(to)
            ),
            Action::Tokenize {
                required,
                prob,
                token_state,
                to,
            } => {
                let req: Vec<String> = required.iter().map(&name).collect();
                format!(
                    "sample[{}] & flip(heads={prob:.4}) => token to a process in {}, which -> {}",
                    req.join(","),
                    name(token_state),
                    name(to)
                )
            }
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> StateId {
        StateId::new(i)
    }

    #[test]
    fn accessors_cover_all_variants() {
        let actions = [
            Action::Flip {
                prob: 0.1,
                to: sid(1),
            },
            Action::Sample {
                required: vec![sid(0), sid(2)],
                prob: 0.2,
                to: sid(2),
            },
            Action::SampleAny {
                target_state: sid(1),
                samples: 4,
                prob: 0.3,
                to: sid(1),
            },
            Action::PushSample {
                target_state: sid(0),
                samples: 2,
                prob: 0.4,
                to: sid(1),
            },
            Action::Tokenize {
                required: vec![sid(1)],
                prob: 0.5,
                token_state: sid(0),
                to: sid(2),
            },
        ];
        let probs: Vec<f64> = actions.iter().map(Action::prob).collect();
        assert_eq!(probs, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let dests: Vec<usize> = actions.iter().map(|a| a.destination().index()).collect();
        assert_eq!(dests, vec![1, 2, 1, 1, 2]);
        let msgs: Vec<u32> = actions.iter().map(Action::messages_per_period).collect();
        assert_eq!(msgs, vec![0, 2, 4, 2, 2]);
        assert!(actions[0].moves_self());
        assert!(actions[1].moves_self());
        assert!(actions[2].moves_self());
        assert!(!actions[3].moves_self());
        assert!(!actions[4].moves_self());
    }

    #[test]
    fn rendering_uses_names_when_available() {
        let names: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let a = Action::SampleAny {
            target_state: sid(1),
            samples: 2,
            prob: 0.25,
            to: sid(1),
        };
        let text = a.render(&names);
        assert!(text.contains('y'));
        assert!(text.contains('2'));
        // Display falls back to positional names.
        let plain = format!(
            "{}",
            Action::Flip {
                prob: 0.5,
                to: sid(7)
            }
        );
        assert!(plain.contains("s7"));
    }
}
