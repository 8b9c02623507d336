//! Protocols the crate's test modules share.

use crate::action::Action;
use crate::mapping::ProtocolCompiler;
use crate::state_machine::{Protocol, StateId};
use odekit::system::EquationSystemBuilder;

/// The epidemic `x' = −xy, y' = xy`, compiled with the defaults.
pub(crate) fn epidemic_protocol() -> Protocol {
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y"])
        .term("x", -1.0, &[("x", 1), ("y", 1)])
        .term("y", 1.0, &[("x", 1), ("y", 1)])
        .build()
        .unwrap();
    ProtocolCompiler::new("epidemic").compile(&sys).unwrap()
}

/// The endemic protocol of the paper's Figure 1 (b = 2, γ = 0.1,
/// α = 0.01), with or without the stashers' push action, as
/// `dpde_protocols::endemic` builds it.
pub(crate) fn figure1_protocol(push: bool) -> Protocol {
    let mut protocol = Protocol::new(
        "endemic-figure1",
        vec!["receptive".into(), "stash".into(), "averse".into()],
    )
    .unwrap();
    let [receptive, stash, averse] = [0, 1, 2].map(StateId::new);
    let flip = |prob, to| Action::Flip { prob, to };
    protocol.add_action(stash, flip(0.1, averse)).unwrap();
    protocol.add_action(averse, flip(0.01, receptive)).unwrap();
    let samples = if push { 2 } else { 4 };
    protocol
        .add_action(
            receptive,
            Action::SampleAny {
                target_state: stash,
                samples,
                prob: 1.0,
                to: stash,
            },
        )
        .unwrap();
    if push {
        protocol
            .add_action(
                stash,
                Action::PushSample {
                    target_state: receptive,
                    samples: 2,
                    prob: 1.0,
                    to: stash,
                },
            )
            .unwrap();
    }
    protocol
}

/// Competitive exclusion among `k` proposals plus an undecided state `z`
/// (what `dpde_protocols::lv::multi` compiles; `k = 2` is the paper's LV
/// protocol): each proposal state gets `k − 1` actions that all lead to
/// `z`.
pub(crate) fn plurality_protocol(k: usize) -> Protocol {
    let names: Vec<String> = (0..k)
        .map(|i| format!("x{i}"))
        .chain(["z".into()])
        .collect();
    let mut builder = EquationSystemBuilder::new().vars(names.clone());
    for i in 0..k {
        let xi = names[i].as_str();
        builder = builder.term(xi, 3.0, &[(xi, 1), ("z", 1)]);
        builder = builder.term("z", -3.0, &[(xi, 1), ("z", 1)]);
        for xj in names.iter().take(k).filter(|xj| xj.as_str() != xi) {
            builder = builder.term(xi, -3.0, &[(xi, 1), (xj, 1)]);
            builder = builder.term("z", 3.0, &[(xi, 1), (xj, 1)]);
        }
    }
    ProtocolCompiler::new("plurality")
        .with_normalizing_constant(0.01)
        .compile(&builder.build().unwrap())
        .unwrap()
}

/// "Recruitment by committee" with a way back: an (x, y) pair recruits
/// an undecided z into x through a token hosted by x, and x decays back
/// into z.
pub(crate) fn token_protocol() -> Protocol {
    let sys = EquationSystemBuilder::new()
        .vars(["x", "y", "z"])
        .term("x", 0.5, &[("x", 1), ("y", 1)])
        .term("z", -0.5, &[("x", 1), ("y", 1)])
        .term("x", -0.1, &[("x", 1)])
        .term("z", 0.1, &[("x", 1)])
        .build()
        .unwrap();
    ProtocolCompiler::new("token")
        .with_normalizing_constant(0.5)
        .compile(&sys)
        .unwrap()
}
