//! Message-complexity accounting (Section 3 of the paper).
//!
//! "The number of sampling messages sent out by a process in state x, per
//! protocol period, equals the sum of the number of occurrences of all
//! variables in negative terms in f_x, less the number of negative terms in
//! f_x." For a compiled protocol this is exactly the total number of sampled
//! targets across the state's actions, which is what
//! [`Action::messages_per_period`](crate::Action::messages_per_period)
//! counts (tokens add one forwarding message).

use crate::state_machine::Protocol;

/// Per-state and aggregate message complexity of a protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageComplexity {
    per_state: Vec<u32>,
}

impl MessageComplexity {
    /// Computes the message complexity of a protocol.
    pub fn of(protocol: &Protocol) -> Self {
        let per_state = protocol
            .state_ids()
            .map(|s| {
                protocol
                    .actions(s)
                    .iter()
                    .map(|a| a.messages_per_period())
                    .sum()
            })
            .collect();
        MessageComplexity { per_state }
    }

    /// Messages sent per period by a process in the given state.
    ///
    /// # Panics
    ///
    /// Panics if the state id is out of range for the protocol this report was
    /// computed from.
    #[cfg(test)]
    pub(crate) fn messages_for(&self, state: crate::StateId) -> u32 {
        self.per_state[state.index()]
    }

    /// The worst-case per-process message count over all states — the paper's
    /// "constant message overhead at each process", independent of group size.
    pub fn worst_case(&self) -> u32 {
        self.per_state.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ProtocolCompiler;
    use odekit::system::EquationSystemBuilder;

    #[test]
    fn epidemic_costs_one_message_for_susceptibles_only() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic").compile(&sys).unwrap();
        let mc = MessageComplexity::of(&protocol);
        let x = protocol.require_state("x").unwrap();
        let y = protocol.require_state("y").unwrap();
        // Paper formula for f_x = -xy: occurrences (2) minus negative terms (1) = 1.
        assert_eq!(mc.messages_for(x), 1);
        assert_eq!(mc.messages_for(y), 0);
        assert_eq!(mc.worst_case(), 1);
    }

    #[test]
    fn endemic_message_counts_match_paper_formula() {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -4.0, &[("x", 1), ("y", 1)])
            .term("x", 0.01, &[("z", 1)])
            .term("y", 4.0, &[("x", 1), ("y", 1)])
            .term("y", -1.0, &[("y", 1)])
            .term("z", 1.0, &[("y", 1)])
            .term("z", -0.01, &[("z", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("endemic").compile(&sys).unwrap();
        let mc = MessageComplexity::of(&protocol);
        // f_x has one negative term -βxy with 2 occurrences → 1 message.
        // f_y's -γy and f_z's -αz are pure flips → 0 messages.
        let per_state: Vec<u32> = ["x", "y", "z"]
            .iter()
            .map(|v| mc.messages_for(protocol.require_state(v).unwrap()))
            .collect();
        assert_eq!(per_state, [1, 0, 0]);
        assert_eq!(mc.worst_case(), 1);
    }
}
