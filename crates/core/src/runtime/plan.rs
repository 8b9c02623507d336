//! The compiled protocol plan: one flat table of a [`Protocol`]'s actions
//! and transition edges, built once per runtime and read by every tier, so
//! no two tiers can derive the transition structure differently.
//!
//! * **Actions**, flattened in state-then-action order as [`PlanAction`]s,
//!   with per-state [`StateSpan`]s and, in parallel arrays, each action's
//!   [`Move`] (executor and edge), draw slot, message bill and `Flip`
//!   hazard.
//! * **Edges**, the distinct `(from, to)` pairs the actions move processes
//!   along, sorted from-major. Every tier tallies its moves on edge slots
//!   and renders them through [`ProtocolPlan::render_transitions`].
//! * **Buckets** and **conversion rows**, the count kernels' draws: one
//!   multinomial bucket per distinct destination of a state's self-moving
//!   actions (in order of first appearance), one row per push/token action.
//!
//! Every propensity the plan computes is a monomial in the **state
//! fractions** `x_s = count_s / n`, the variables of the mean-field ODE: it
//! reads a fraction row the runtime fills, never counts and `n`. A count
//! kernel divides once per state and column at the top of a period, the
//! continuous-time tiers once per state at a boundary and again only for the
//! two states an event moves — not once per action and required state (a
//! 33-state plurality protocol has over a thousand actions). The row holds
//! the raw quotient `count_s / n`, not one scaled by the loss rate, so each
//! factor is the same IEEE product a per-action division would form and
//! every PRNG stream is unchanged.

use crate::action::Action;
use crate::state_machine::{Protocol, StateId};
use netsim::Rng;
use std::ops::Range;

/// One action with its fields unpacked to dense indices. Slots, edges and
/// hazards live in arrays parallel to [`ProtocolPlan::actions`], so the enum
/// the per-process sweeps copy stays at 32 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) enum PlanAction {
    /// [`Action::Flip`].
    Flip {
        prob: f64,
        /// `1 / ln(1 − prob)`, for geometric-run sampling: a `Flip`'s heads
        /// probability never depends on counts, so its iid coin stream
        /// factorizes exactly into geometric runs of tails — the per-process
        /// tiers keep one "tails left" counter per flip action and pay one
        /// log-draw per (rare) heads instead of one draw per encounter.
        /// `-0.0` encodes "always heads" (prob ≥ 1), `NEG_INFINITY` "never"
        /// (prob ≤ 0).
        geo_scale: f64,
        to: u32,
    },
    /// [`Action::Sample`]; its required states are
    /// `ProtocolPlan::required[req_start..req_end]`.
    Sample {
        req_start: u32,
        req_end: u32,
        prob: f64,
        to: u32,
    },
    /// [`Action::SampleAny`].
    SampleAny {
        target: u32,
        samples: u32,
        prob: f64,
        to: u32,
    },
    /// [`Action::PushSample`].
    PushSample {
        target: u32,
        samples: u32,
        prob: f64,
        to: u32,
    },
    /// [`Action::Tokenize`].
    Tokenize {
        req_start: u32,
        req_end: u32,
        prob: f64,
        token_state: u32,
        to: u32,
    },
}

// The per-process sweeps copy one action per encounter: keep it at 32 bytes.
const _: () = assert!(std::mem::size_of::<PlanAction>() <= 32);

impl PlanAction {
    /// `true` if the action moves its executor (see [`Action::moves_self`]).
    pub(super) fn moves_self(self) -> bool {
        matches!(
            self,
            PlanAction::Flip { .. } | PlanAction::Sample { .. } | PlanAction::SampleAny { .. }
        )
    }
}

/// Who executes an action and which edge it moves a process along.
#[derive(Debug, Clone, Copy)]
pub(super) struct Move {
    /// The executor's state.
    pub(super) state: u32,
    /// The state the move leaves: the executor's own, a push victim's or a
    /// token consumer's.
    pub(super) from: u32,
    pub(super) to: u32,
    /// The slot of `(from, to)` in [`ProtocolPlan::edges`].
    pub(super) slot: u32,
}

/// One state's range of the flattened action table.
#[derive(Debug, Clone, Copy)]
pub(super) struct StateSpan {
    pub(super) start: u32,
    pub(super) end: u32,
    /// Σ messages per period over the state's actions.
    pub(super) messages: u64,
}

/// A protocol compiled for execution (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct ProtocolPlan {
    protocol: Protocol,
    /// All actions of all states, flattened; `spans[s]` delimits state `s`.
    pub(super) actions: Vec<PlanAction>,
    pub(super) spans: Vec<StateSpan>,
    /// Flattened `required` state lists of the `Sample`/`Tokenize` actions.
    pub(super) required: Vec<u32>,
    /// Per action: the messages it sends per period.
    pub(super) messages: Vec<u32>,
    /// Per action: the message bill of the actions *after* it within its
    /// state — refunded when a process moves on it (it never reaches the
    /// rest), so a sweep pays one add per process instead of one per action.
    pub(super) messages_tail: Vec<u64>,
    /// Per action: `hazard(prob)` of a `Flip` — a constant, so its `ln` is
    /// taken once here, not per event. Zero (and unread) for the others.
    flip_hazard: Vec<f64>,
    /// Per action: its executor and the edge it moves a process along.
    pub(super) moves: Vec<Move>,
    /// Per action: where a count kernel's period draw for it lands — the
    /// bucket (within its state's) a self-moving action adds its weight to,
    /// or the conversion row a push/token action fills.
    pub(super) draw_slots: Vec<u32>,
    /// Per bucket: the edge slot of `(state, destination)`.
    bucket_edges: Vec<u32>,
    /// State `s` owns `bucket_edges[bucket_start[s]..bucket_start[s + 1]]`.
    bucket_start: Vec<u32>,
    /// Per conversion row (push/token actions, in state-then-action order):
    /// the edge slot its conversions are tallied on.
    pub(super) conversion_edges: Vec<u32>,
    /// Edge slot → `(from, to)`, sorted, so a rendered transition list is
    /// from-major.
    pub(super) edges: Vec<(StateId, StateId)>,
    /// The most buckets any one state draws over ("stay" not included).
    pub(super) max_buckets: usize,
}

/// The per-period hazard embedding a synchronized firing probability `q`:
/// a Poisson process with this hazard fires at least once per period with
/// probability exactly `q` (clamped near `q = 1` to keep the rate finite).
fn hazard(q: f64) -> f64 {
    -(1.0 - q).max(1e-12).ln()
}

/// Draws the length of the next run of tails for a flip with precomputed
/// `geo_scale = 1 / ln(1 − prob)`: `⌊ln(1 − u) · geo_scale⌋`, the geometric
/// inverse-CDF (one uniform, one log).
#[inline]
pub(super) fn draw_geometric(rng: &mut Rng, geo_scale: f64) -> u64 {
    let ln1mu = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE).ln();
    (ln1mu * geo_scale) as u64
}

/// The `(from, to)` edge an action of state `s` moves a process along.
fn edge_of(s: usize, action: &Action) -> (StateId, StateId) {
    let from = match action {
        Action::PushSample { target_state, .. } => *target_state,
        Action::Tokenize { token_state, .. } => *token_state,
        _ => StateId::new(s),
    };
    (from, action.destination())
}

/// Unpacks one action, appending its `required` list to `required`.
fn flatten(action: &Action, required: &mut Vec<u32>) -> PlanAction {
    let (prob, to) = (action.prob(), action.destination().index() as u32);
    let index = |s: &StateId| s.index() as u32;
    let mut span = |list: &[StateId]| {
        let start = required.len() as u32;
        required.extend(list.iter().map(index));
        (start, required.len() as u32)
    };
    match action {
        Action::Flip { .. } => PlanAction::Flip {
            prob,
            geo_scale: if prob <= 0.0 {
                // ln(u)·(−∞) = +∞ → the counter never reaches 0.
                f64::NEG_INFINITY
            } else {
                // prob ≥ 1 gives 1/ln(0) = −0.0: every run of tails has
                // length 0, i.e. always heads.
                1.0 / (1.0 - prob).ln()
            },
            to,
        },
        Action::Sample { required, .. } => {
            let (req_start, req_end) = span(required);
            PlanAction::Sample {
                req_start,
                req_end,
                prob,
                to,
            }
        }
        Action::SampleAny {
            target_state,
            samples,
            ..
        } => PlanAction::SampleAny {
            target: index(target_state),
            samples: *samples,
            prob,
            to,
        },
        Action::PushSample {
            target_state,
            samples,
            ..
        } => PlanAction::PushSample {
            target: index(target_state),
            samples: *samples,
            prob,
            to,
        },
        Action::Tokenize {
            required,
            token_state,
            ..
        } => {
            let (req_start, req_end) = span(required);
            PlanAction::Tokenize {
                req_start,
                req_end,
                prob,
                token_state: index(token_state),
                to,
            }
        }
    }
}

impl ProtocolPlan {
    /// Compiles `protocol`: one pass over the action lists to collect the
    /// distinct edges, one to flatten the actions and assign their slots.
    pub(super) fn new(protocol: Protocol) -> Self {
        let mut edges: Vec<(StateId, StateId)> = (protocol.action_lists().iter().enumerate())
            .flat_map(|(s, list)| list.iter().map(move |action| edge_of(s, action)))
            .collect();
        edges.sort_unstable();
        edges.dedup();

        let (num_states, num_actions) = (protocol.num_states(), protocol.num_actions());
        let mut plan = ProtocolPlan {
            protocol,
            actions: Vec::with_capacity(num_actions),
            spans: Vec::with_capacity(num_states),
            required: Vec::new(),
            messages: Vec::with_capacity(num_actions),
            messages_tail: vec![0; num_actions],
            flip_hazard: Vec::with_capacity(num_actions),
            moves: Vec::with_capacity(num_actions),
            draw_slots: Vec::with_capacity(num_actions),
            bucket_edges: Vec::new(),
            bucket_start: Vec::with_capacity(num_states + 1),
            conversion_edges: Vec::new(),
            edges,
            max_buckets: 0,
        };
        const NO_BUCKET: u32 = u32::MAX;
        let mut bucket_of = vec![NO_BUCKET; num_states];
        let lists = plan.protocol.action_lists();
        for (s, list) in lists.iter().enumerate() {
            let start = plan.actions.len();
            let first_bucket = plan.bucket_edges.len();
            plan.bucket_start.push(first_bucket as u32);
            for action in list {
                let (from, to) = edge_of(s, action);
                let edge = plan
                    .edges
                    .binary_search(&(from, to))
                    .expect("every action's edge was collected") as u32;
                plan.moves.push(Move {
                    state: s as u32,
                    from: from.index() as u32,
                    to: to.index() as u32,
                    slot: edge,
                });
                plan.draw_slots.push(if action.moves_self() {
                    let dest = action.destination().index();
                    if bucket_of[dest] == NO_BUCKET {
                        bucket_of[dest] = (plan.bucket_edges.len() - first_bucket) as u32;
                        plan.bucket_edges.push(edge);
                    }
                    bucket_of[dest]
                } else {
                    plan.conversion_edges.push(edge);
                    plan.conversion_edges.len() as u32 - 1
                });
                plan.messages.push(action.messages_per_period());
                plan.flip_hazard.push(match action {
                    Action::Flip { prob, .. } => hazard(*prob),
                    _ => 0.0,
                });
                plan.actions.push(flatten(action, &mut plan.required));
            }
            for &edge in &plan.bucket_edges[first_bucket..] {
                bucket_of[plan.edges[edge as usize].1.index()] = NO_BUCKET;
            }
            plan.max_buckets = plan.max_buckets.max(plan.bucket_edges.len() - first_bucket);
            // Suffix message bills within the state's range.
            let mut tail = 0u64;
            for a in (start..plan.actions.len()).rev() {
                plan.messages_tail[a] = tail;
                tail += u64::from(plan.messages[a]);
            }
            plan.spans.push(StateSpan {
                start: start as u32,
                end: plan.actions.len() as u32,
                messages: tail,
            });
        }
        plan.bucket_start.push(plan.bucket_edges.len() as u32);
        plan
    }

    /// The protocol the plan was compiled from.
    pub(super) fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// `true` if an action picks a concrete member of a state (push victims,
    /// token consumers): the per-process tiers then keep member lists.
    pub(super) fn needs_member_lists(&self) -> bool {
        !self.conversion_edges.is_empty()
    }

    /// Number of protocol states.
    pub(super) fn num_states(&self) -> usize {
        self.spans.len()
    }

    /// The flattened indices of state `s`'s actions.
    pub(super) fn range(&self, s: usize) -> Range<usize> {
        self.spans[s].start as usize..self.spans[s].end as usize
    }

    /// The endpoints of the edge action `a` moves a process along.
    #[inline]
    pub(super) fn edge(&self, a: usize) -> (usize, usize) {
        let m = self.moves[a];
        (m.from as usize, m.to as usize)
    }

    /// The edge slots of state `s`'s multinomial buckets.
    pub(super) fn bucket_edges(&self, s: usize) -> &[u32] {
        &self.bucket_edges[self.bucket_start[s] as usize..self.bucket_start[s + 1] as usize]
    }

    /// One "tails left" counter per action, seeded for every `Flip` from
    /// `rng` in action order (zero and unused for the rest).
    pub(super) fn seed_flip_skips(&self, rng: &mut Rng) -> Vec<u64> {
        self.actions
            .iter()
            .map(|a| match *a {
                PlanAction::Flip { geo_scale, .. } => draw_geometric(rng, geo_scale),
                _ => 0,
            })
            .collect()
    }

    /// Per-process probability that action `a`'s firing condition holds
    /// this period (excluding who it moves), given the fraction row
    /// `frac(s) = count(s) / n` of every state `s` over a maximal group of
    /// `n` processes — what the count-level tiers draw against. A sampled
    /// contact hits a wanted target with probability `frac(target)`,
    /// degraded by the per-contact success rate `contact_ok`
    /// (`1 − LossConfig::effective_contact_failure(1)`, which callers hoist
    /// out of their action loops).
    ///
    /// The row holds the raw fraction, rounded once by the division that
    /// fills it, so `frac(r) * contact_ok` is the very product
    /// `(count(r) / n) * contact_ok` a per-action division would form: the
    /// probabilities, and every draw against them, are bit for bit the same.
    #[inline]
    pub(super) fn fire_probability(
        &self,
        a: usize,
        frac: impl Fn(usize) -> f64,
        contact_ok: f64,
    ) -> f64 {
        match self.actions[a] {
            PlanAction::Flip { prob, .. } => prob,
            PlanAction::Sample {
                req_start,
                req_end,
                prob,
                ..
            }
            | PlanAction::Tokenize {
                req_start,
                req_end,
                prob,
                ..
            } => {
                let mut p = prob;
                for &r in &self.required[req_start as usize..req_end as usize] {
                    p *= frac(r as usize) * contact_ok;
                }
                p
            }
            PlanAction::SampleAny {
                target,
                samples,
                prob,
                ..
            } => {
                let hit = frac(target as usize) * contact_ok;
                prob * (1.0 - (1.0 - hit).powi(samples as i32))
            }
            PlanAction::PushSample { .. } => 0.0,
        }
    }

    /// The rate, in events per period, at which `k > 0` executors of action
    /// `a` fire under the continuous-time tiers' [`hazard`] embedding,
    /// against the fraction row `frac[s] = x[s] / n` of the current alive
    /// counts `x` (the raw fractions, so every rate is bit for bit the one
    /// the counts and `n` would give; see
    /// [`fire_probability`](Self::fire_probability)):
    ///
    /// * self-moving actions: `k · h(fire_probability)`;
    /// * `PushSample`: each of the `k · samples` per-period draws converts a
    ///   target with probability `per_draw`, so `k · samples · h(per_draw)`
    ///   (self-gating: `h(0) = 0` when the target pool is empty);
    /// * `Tokenize`: `k · h(q)`, gated on a non-empty token pool (a zero
    ///   fraction is exactly an empty pool).
    #[inline]
    pub(super) fn hazard_rate(&self, a: usize, k: f64, frac: &[f64], contact_ok: f64) -> f64 {
        match self.actions[a] {
            PlanAction::Flip { .. } => k * self.flip_hazard[a],
            PlanAction::PushSample {
                target,
                samples,
                prob,
                ..
            } => {
                let per_draw = frac[target as usize] * prob * contact_ok;
                k * f64::from(samples) * hazard(per_draw)
            }
            PlanAction::Tokenize { token_state, .. } if frac[token_state as usize] == 0.0 => 0.0,
            _ => k * hazard(self.fire_probability(a, |s| frac[s], contact_ok)),
        }
    }

    /// The synchronized tiers' expected-message accounting at the given
    /// counts and their fraction row `frac`: a process pays for an action
    /// only if no earlier self-moving action in its state's list already
    /// moved it this period (message tallies are an accounting fiction at
    /// count level, kept comparable across every tier).
    #[inline(always)]
    pub(super) fn expected_messages(&self, counts: &[u64], frac: &[f64], contact_ok: f64) -> f64 {
        let mut messages = 0.0f64;
        for (s, &k_s) in counts.iter().enumerate() {
            if k_s == 0 {
                continue;
            }
            let mut survive = 1.0;
            for a in self.range(s) {
                messages += k_s as f64 * survive * f64::from(self.messages[a]);
                if self.actions[a].moves_self() {
                    survive *= 1.0 - self.fire_probability(a, |s| frac[s], contact_ok);
                }
            }
        }
        messages
    }

    /// Lands a period's push/token conversions, `conversions × W` in
    /// `drawn`, on `W` columns: in the order they were drawn, each takes
    /// members of its target state that did not move themselves (`stayed`,
    /// `states × W`) and is tallied on its edge (`tallies`, `edges × W`), so
    /// a process leaves its state at most once per period. Leaves `drawn`
    /// zero for the next period's draws.
    pub(super) fn land_conversions(
        &self,
        drawn: &mut [u64],
        stayed: &mut [u64],
        tallies: &mut [u64],
        w: usize,
    ) {
        for (&edge, drawn) in self.conversion_edges.iter().zip(drawn.chunks_exact_mut(w)) {
            let target = self.edges[edge as usize].0.index();
            let left = &mut stayed[target * w..(target + 1) * w];
            let tally = &mut tallies[edge as usize * w..(edge as usize + 1) * w];
            for ((drawn, left), tally) in drawn.iter_mut().zip(left).zip(tally) {
                let converted = std::mem::take(drawn).min(*left);
                *left -= converted;
                *tally += converted;
            }
        }
    }

    /// Moves a period's tallies (`edges × W`) along their edges in the
    /// `states × W` alive and total count matrices (only alive processes
    /// move, so the totals stay alive + crashed). A state's outflow never
    /// exceeds its start-of-period population, so the unsigned updates
    /// cannot underflow in any order.
    #[inline(always)]
    pub(super) fn move_along_edges(
        &self,
        tallies: &[u64],
        alive: &mut [u64],
        counts: &mut [u64],
        w: usize,
    ) {
        for (&(from, to), moved) in self.edges.iter().zip(tallies.chunks_exact(w)) {
            for (r, &moved) in moved.iter().enumerate() {
                let (from, to) = (from.index() * w + r, to.index() * w + r);
                alive[from] -= moved;
                alive[to] += moved;
                counts[from] -= moved;
                counts[to] += moved;
            }
        }
    }

    /// Renders an `edges × width` tally matrix, summed over its columns, into
    /// the sparse `(from, to, count)` list observers see — from-major, since
    /// the edges are sorted.
    #[inline(always)]
    pub(super) fn render_transitions(
        &self,
        tallies: &[u64],
        width: usize,
        out: &mut Vec<(StateId, StateId, u64)>,
    ) {
        out.clear();
        for (&(from, to), row) in self.edges.iter().zip(tallies.chunks_exact(width)) {
            let moved = row.iter().sum();
            if moved > 0 {
                out.push((from, to, moved));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        epidemic_protocol, figure1_protocol, plurality_protocol, token_protocol,
    };
    use crate::runtime::{
        AgentRuntime, AsyncRuntime, BatchedRuntime, InitialStates, Runtime, SsaRuntime,
        TauLeapRuntime,
    };
    use netsim::Scenario;

    /// Every fixture family the tiers treat differently: plain sampling,
    /// SampleAny with and without a push, the paper's LV protocol
    /// (plurality-2), repeated destinations, and a token.
    fn fixtures() -> Vec<Protocol> {
        vec![
            epidemic_protocol(),
            figure1_protocol(true),
            figure1_protocol(false),
            plurality_protocol(2),
            plurality_protocol(8),
            plurality_protocol(32),
            token_protocol(),
        ]
    }

    /// Rebuilds the protocol action a plan action was unpacked from.
    fn unpacked(plan: &ProtocolPlan, a: usize) -> Action {
        let required = |start: u32, end: u32| {
            plan.required[start as usize..end as usize]
                .iter()
                .map(|&s| StateId::new(s as usize))
                .collect()
        };
        let id = |s: u32| StateId::new(s as usize);
        match plan.actions[a] {
            PlanAction::Flip { prob, to, .. } => Action::Flip { prob, to: id(to) },
            PlanAction::Sample {
                req_start,
                req_end,
                prob,
                to,
            } => Action::Sample {
                required: required(req_start, req_end),
                prob,
                to: id(to),
            },
            PlanAction::SampleAny {
                target,
                samples,
                prob,
                to,
            } => Action::SampleAny {
                target_state: id(target),
                samples,
                prob,
                to: id(to),
            },
            PlanAction::PushSample {
                target,
                samples,
                prob,
                to,
            } => Action::PushSample {
                target_state: id(target),
                samples,
                prob,
                to: id(to),
            },
            PlanAction::Tokenize {
                req_start,
                req_end,
                prob,
                token_state,
                to,
            } => Action::Tokenize {
                required: required(req_start, req_end),
                prob,
                token_state: id(token_state),
                to: id(to),
            },
        }
    }

    #[test]
    fn every_action_round_trips_and_owns_the_edge_it_moves() {
        let mut kinds = std::collections::HashSet::new();
        for protocol in fixtures() {
            let plan = ProtocolPlan::new(protocol.clone());
            let name = protocol.name();
            assert_eq!(plan.actions.len(), protocol.num_actions(), "{name}");
            assert!(plan.edges.windows(2).all(|w| w[0] < w[1]), "{name}");
            let mut used = vec![false; plan.edges.len()];
            for s in protocol.state_ids() {
                let actions = protocol.actions(s);
                let range = plan.range(s.index());
                assert_eq!(range.len(), actions.len(), "{name}");
                let bill: u32 = actions.iter().map(Action::messages_per_period).sum();
                assert_eq!(plan.spans[s.index()].messages, u64::from(bill), "{name}");
                for (j, (a, action)) in range.zip(actions).enumerate() {
                    assert_eq!(&unpacked(&plan, a), action, "{name}: {s} action {j}");
                    kinds.insert(std::mem::discriminant(action));
                    let Move { state, slot, .. } = plan.moves[a];
                    let (from, to) = edge_of(s.index(), action);
                    assert_eq!(state as usize, s.index(), "{name}");
                    assert_eq!(plan.edges[slot as usize], (from, to), "{name}");
                    assert_eq!(plan.edge(a), (from.index(), to.index()), "{name}");
                    used[slot as usize] = true;
                    let draw = plan.draw_slots[a] as usize;
                    if action.moves_self() {
                        assert_eq!(plan.bucket_edges(s.index())[draw], slot, "{name}");
                    } else {
                        assert_eq!(plan.conversion_edges[draw], slot, "{name}");
                    }
                    assert_eq!(plan.messages[a], action.messages_per_period());
                    let tail: u32 = actions[j + 1..]
                        .iter()
                        .map(Action::messages_per_period)
                        .sum();
                    assert_eq!(plan.messages_tail[a], u64::from(tail), "{name}");
                }
            }
            assert!(used.iter().all(|&u| u), "{name}: an edge no action moves");
        }
        assert_eq!(kinds.len(), 5, "the fixtures cover every action kind");
    }

    #[test]
    fn actions_that_share_a_destination_share_a_bucket() {
        // Plurality-32: 32 proposal states with 31 actions into z each, and z
        // with one action into every proposal — 1024 actions, 64 edges.
        let protocol = plurality_protocol(32);
        let plan = ProtocolPlan::new(protocol.clone());
        assert_eq!(protocol.num_actions(), 1024);
        assert_eq!(plan.draw_slots.len(), 1024);
        assert_eq!(plan.bucket_edges.len(), 64);
        assert_eq!(plan.edges.len(), 64);
        assert_eq!(plan.max_buckets, 32);
        let z = protocol.require_state("z").unwrap();
        for s in 0..32 {
            assert_eq!(&plan.draw_slots[plan.range(s)], &[0; 31][..]);
            let &[edge] = plan.bucket_edges(s) else {
                panic!("state {s} has more than one bucket");
            };
            assert_eq!(plan.edges[edge as usize], (StateId::new(s), z));
        }
        assert_eq!(plan.bucket_edges(32).len(), 32);

        // Figure 1: four actions, three buckets; the push conversion shares
        // the receptive→stash edge with the receptives' own move.
        let protocol = figure1_protocol(true);
        let plan = ProtocolPlan::new(protocol.clone());
        assert_eq!(protocol.num_actions(), 4);
        assert_eq!(plan.bucket_edges.len(), 3);
        assert_eq!(plan.edges.len(), 3);
        let [receptive, stash] = [0, 1].map(StateId::new);
        let push = plan.range(stash.index()).start + 1;
        let push_slot = plan.moves[push].slot;
        assert_eq!(plan.edges[push_slot as usize], (receptive, stash));
        assert_eq!(plan.conversion_edges, [push_slot]);
        assert_eq!(plan.bucket_edges(receptive.index()), &[push_slot]);

        // Repeats share a bucket even when another destination sits between.
        let mut protocol = Protocol::new("abc", vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let [a, b, c] = [0, 1, 2].map(StateId::new);
        for to in [b, c, b] {
            protocol
                .add_action(a, Action::Flip { prob: 0.1, to })
                .unwrap();
        }
        let plan = ProtocolPlan::new(protocol);
        assert_eq!(plan.draw_slots, [0, 1, 0]);
        assert_eq!(plan.bucket_edges(0).len(), 2);
        assert_eq!(plan.edges, vec![(a, b), (a, c)]);
    }

    /// Steps `runtime` through the [`Runtime`] trait and checks that every
    /// transition list it emits is a from-major subsequence of the plan's
    /// edges. Returns the processes moved.
    fn moves_along_plan_edges<R: Runtime>(runtime: &R, plan: &ProtocolPlan, n: u64) -> u64 {
        let states = plan.num_states() as u64;
        let initial: Vec<u64> = (0..states)
            .map(|s| n / states + u64::from(s < n % states))
            .collect();
        let scenario = Scenario::new(n as usize, 12).unwrap().with_seed(7);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&initial))
            .unwrap();
        let mut moved = 0;
        for _ in 0..scenario.periods() {
            let events = runtime.step(&mut state).unwrap();
            let slots: Vec<usize> = (events.transitions.iter())
                .map(|&(from, to, count)| {
                    moved += count;
                    plan.edges
                        .binary_search(&(from, to))
                        .expect("every move is along a plan edge")
                })
                .collect();
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
        }
        moved
    }

    #[test]
    fn every_tier_reports_moves_along_plan_edges_in_plan_order() {
        for protocol in fixtures() {
            let plan = ProtocolPlan::new(protocol.clone());
            let n = 1_500;
            let moved = [
                moves_along_plan_edges(&AgentRuntime::new(protocol.clone()), &plan, n),
                moves_along_plan_edges(&AsyncRuntime::new(protocol.clone()), &plan, n),
                moves_along_plan_edges(&BatchedRuntime::new(protocol.clone()), &plan, n),
                moves_along_plan_edges(&SsaRuntime::new(protocol.clone()), &plan, n),
                moves_along_plan_edges(&TauLeapRuntime::new(protocol.clone()), &plan, n),
            ];
            assert!(
                moved.iter().all(|&m| m > 0),
                "{}: {moved:?}",
                protocol.name()
            );
        }
    }
}
