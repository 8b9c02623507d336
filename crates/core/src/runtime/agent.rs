//! The per-process (agent-based) protocol runtime.

use super::environment::{Bookkeeping, Environment, Processes};
use super::plan::{draw_geometric, PlanAction, ProtocolPlan};
use super::{InitialStates, Needs, PeriodEvents, RunConfig, Runtime};
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::{Group, ProcessId, Rng, Scenario};

/// Executes a protocol with one explicit state per process.
///
/// Every protocol period the runtime
///
/// 1. applies the environment's events for that period (scheduled failures,
///    crash/recovery, churn, adversary injections),
/// 2. lets every alive process execute the actions of its current state (in
///    order, stopping after the first action that makes the process itself
///    transition), sampling contacts uniformly from the **maximal**
///    membership — a contact aimed at a crashed process is fruitless, exactly
///    as in the paper, and
/// 3. exposes per-state counts, transition counts and membership through
///    [`PeriodEvents`] for the attached observers.
///
/// Processes are visited in id order within a period; the protocols are
/// symmetric and memoryless across periods, so the visiting order has no
/// statistically visible effect at the group sizes used in the experiments.
///
/// The per-period loop is allocation-free: it dispatches on the flat action
/// table of the plan compiled when the runtime is built, alive-only counts are
/// maintained incrementally as transitions and failures happen (no O(N)
/// rescans), and while nobody has crashed the liveness probes are skipped
/// entirely.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{AgentRuntime, InitialStates, Runtime}};
/// use netsim::Scenario;
/// use odekit::EquationSystemBuilder;
///
/// // Epidemic: 1 initial infective in a group of 1000.
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .term("x", -1.0, &[("x", 1), ("y", 1)])
///     .term("y", 1.0, &[("x", 1), ("y", 1)])
///     .build()?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// let scenario = Scenario::new(1000, 30)?.with_seed(7);
/// let result = AgentRuntime::new(protocol).run(&scenario, &InitialStates::counts(&[999, 1]))?;
/// let infected = result.final_counts().expect("run recorded periods")[1];
/// assert!(infected > 990.0, "epidemic should saturate, got {infected}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AgentRuntime {
    plan: ProtocolPlan,
    config: RunConfig,
}

/// The mutable execution state of an [`AgentRuntime`] run: the
/// environment, the process group, per-process states and the current
/// period's event buffers.
#[derive(Debug, Clone)]
pub struct AgentState {
    pub(super) env: Environment,
    /// Per-contact failure probability of the scenario's losses.
    contact_fail: f64,
    pub(super) rng: Rng,
    group: Group,
    members: Membership,
    /// Per-flip-action "tails left before the next heads" counters (indexed
    /// like the plan's action table; non-flip slots stay 0 and unused).
    /// See [`PlanAction::Flip`]: decrementing a counter per encounter is
    /// distribution-identical to drawing the coin per encounter.
    flip_skips: Vec<u64>,
    period: u64,
    /// Per plan edge: the processes that crossed it in the period that just
    /// executed, plus the sparse rendering handed to observers.
    tallies: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    messages: u64,
}

impl AgentState {
    /// The next period to execute (also the number of periods executed).
    pub(crate) fn period(&self) -> u64 {
        self.period
    }

    /// Per-state alive counts (incremental; used by the hybrid runtime's
    /// handoff decisions and the membership→counts projection).
    pub(super) fn alive_counts(&self) -> &[u64] {
        self.members.counts_alive()
    }

    /// Per-state total counts (alive + crashed; crashed processes remember
    /// their state).
    pub(super) fn total_counts(&self) -> &[u64] {
        self.members.counts()
    }
}

impl AgentRuntime {
    /// Builds a mid-run [`AgentState`] from per-state alive/crashed counts —
    /// the counts→membership direction of the hybrid runtime's handoff.
    ///
    /// The paper's protocols and every count-level-compatible environment
    /// treat processes exchangeably, so conditioned on the counts the joint
    /// per-process `(state, liveness)` assignment is uniform over all
    /// assignments realizing those counts: drawing one uniformly (shuffle
    /// the `(state, crashed)` labels jointly over ids) is a *lossless*
    /// refinement — the joint law of every count-level observable is
    /// unchanged. The shuffle must be joint: deriving the crashed set from
    /// id order after a state-only shuffle would bias it toward low ids,
    /// which the agent runtime's id-order sweep could feel.
    ///
    /// The caller guarantees `counts_alive` and `counts_crashed` sum to the
    /// scenario's group size and that the scenario is count-level compatible
    /// (per-id schedules and churn traces are meaningless for a freshly
    /// randomized id assignment).
    pub(super) fn state_from_counts(
        &self,
        scenario: &Scenario,
        counts_alive: &[u64],
        counts_crashed: &[u64],
        period: u64,
        mut rng: Rng,
    ) -> AgentState {
        let n = scenario.group_size();
        debug_assert_eq!(
            counts_alive.iter().sum::<u64>() + counts_crashed.iter().sum::<u64>(),
            n as u64,
            "handoff counts must cover the whole group"
        );
        // Uniform random joint assignment of (state, liveness) labels to ids
        // (exchangeability). A label is `state << 1 | crashed`, packed into
        // the one `u32` per process that `Membership` keeps (it stores states
        // as `u32` already; the packing spends one of those bits). The
        // shuffle's index draws do not depend on the element type, and the
        // crashed bit is peeled off into the group and shifted out in the
        // same pass.
        let mut assignment: Vec<u32> = Vec::with_capacity(n);
        for (state, (&alive, &crashed)) in counts_alive.iter().zip(counts_crashed).enumerate() {
            let label = (state as u32) << 1;
            assignment.extend(std::iter::repeat(label).take(alive as usize));
            assignment.extend(std::iter::repeat(label | 1).take(crashed as usize));
        }
        rng.shuffle(&mut assignment);
        let mut group = Group::new(n);
        for (p, label) in assignment.iter_mut().enumerate() {
            if *label & 1 == 1 {
                let changed = group.crash(ProcessId(p)).expect("id in range");
                debug_assert!(changed);
            }
            *label >>= 1;
        }
        self.state(scenario, assignment, group, period, rng)
    }

    /// The run state at `period` of a group whose per-process states are
    /// `assignment`: every flip action's geometric tails counter is seeded
    /// from `rng` after whatever it already drew.
    fn state(
        &self,
        scenario: &Scenario,
        assignment: Vec<u32>,
        group: Group,
        period: u64,
        mut rng: Rng,
    ) -> AgentState {
        let with_lists = self.plan.needs_member_lists();
        AgentState {
            flip_skips: self.plan.seed_flip_skips(&mut rng),
            members: Membership::new(self.plan.num_states(), assignment, &group, with_lists),
            group,
            rng,
            env: Environment::new(scenario, scenario.seed(), &self.config),
            contact_fail: scenario.loss().effective_contact_failure(1),
            period,
            tallies: vec![0; self.plan.edges.len()],
            transitions: Vec::new(),
            messages: 0,
        }
    }

    fn events<'s>(&self, state: &'s AgentState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.period,
            counts: state.members.counts(),
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.group.alive_count() as u64,
            counts_alive: Some(state.members.counts_alive()),
            membership: Some(MembershipView {
                members: &state.members,
                group: &state.group,
            }),
            shard_counts_alive: None,
            transport: None,
            injections: state.env.records(),
            virtual_time: None,
        }
    }
}

/// Applies the transition `p: from -> to` and tallies it on the plan edge
/// slot `edge` of the action that caused it. Every transitioning process is
/// alive (executors, push targets and token consumers are all
/// liveness-checked), so the alive counts move too.
#[inline]
fn transition(
    p: usize,
    from: usize,
    to: usize,
    edge: u32,
    members: &mut Membership,
    tallies: &mut [u64],
) {
    if from == to {
        return;
    }
    members.force_state_alive(p, to);
    tallies[edge as usize] += 1;
}

impl Runtime for AgentRuntime {
    type State = AgentState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        AgentRuntime {
            plan: ProtocolPlan::new(protocol),
            config: config.clone(),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.plan.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<AgentState> {
        self.plan.protocol().validate()?;
        Needs::of(scenario).check(super::AGENT)?;
        let n = scenario.group_size();
        let num_states = self.plan.num_states();
        let counts_spec = initial.resolve(num_states, n as u64)?;

        let mut rng = scenario.build_rng();
        let group = scenario.build_group();

        // Assign initial states: counts_spec[i] processes in state i, shuffled
        // so state assignment is independent of process id.
        let mut assignment: Vec<u32> = Vec::with_capacity(n);
        for (state, count) in counts_spec.iter().enumerate() {
            assignment.extend(std::iter::repeat(state as u32).take(*count as usize));
        }
        rng.shuffle(&mut assignment);
        Ok(self.state(scenario, assignment, group, 0, rng))
    }

    fn step<'s>(&self, state: &'s mut AgentState) -> Result<PeriodEvents<'s>> {
        let period = state.period;
        let n = state.group.size();
        let inv_n = 1.0 / n as f64;
        // `Rng::chance` consumes no randomness when the failure probability
        // is zero, so the reliable path stays draw-free.
        let contact_fail = state.contact_fail;
        let contact_ok = 1.0 - contact_fail;
        state.tallies.fill(0);
        state.messages = 0;

        // 1. The environment at the period boundary. Only genuine liveness
        //    changes are booked, which keeps the incremental alive counts
        //    exact.
        let (group, rng, book) = (&mut state.group, &mut state.rng, &mut state.members);
        state
            .env
            .boundary(period, &mut Processes { group, rng, book })?;

        // 2. Protocol actions. Liveness is invariant during the action loop
        //    (environment events only happen at period boundaries), so one
        //    flag decides whether any probes are needed at all.
        let check_alive = !state.group.all_alive();
        let AgentState {
            ref mut rng,
            ref group,
            ref mut members,
            ref mut tallies,
            ref mut messages,
            ref mut flip_skips,
            ..
        } = *state;
        let plan = &self.plan;
        for p in 0..n {
            let process_state = members.state_of(p);
            let span = plan.spans[process_state];
            if span.start == span.end || (check_alive && !group.is_alive_unchecked(p)) {
                continue;
            }
            // Bill the whole action list up front; a process that moves early
            // refunds the unreached tail below.
            *messages += span.messages;
            // `idx` indexes the plan's parallel tables (actions, edge slots,
            // messages_tail) and flip_skips, so a range loop is the clearest
            // form.
            #[allow(clippy::needless_range_loop)]
            for idx in span.start as usize..span.end as usize {
                // Flip — the dominant action in the paper's protocols — is
                // handled inline so the sweep loop stays a handful of
                // instructions; everything else goes through the out-of-line
                // slow path, keeping the hot loop's code footprint tiny.
                let moved = if let PlanAction::Flip { geo_scale, to, .. } = plan.actions[idx] {
                    let skip = &mut flip_skips[idx];
                    if *skip == 0 {
                        *skip = draw_geometric(rng, geo_scale);
                        let edge = plan.moves[idx].slot;
                        transition(p, process_state, to as usize, edge, members, tallies);
                        true
                    } else {
                        *skip -= 1;
                        false
                    }
                } else {
                    self.execute_compiled(
                        idx,
                        p,
                        process_state,
                        inv_n,
                        contact_ok,
                        contact_fail,
                        members,
                        group,
                        rng,
                        tallies,
                    )
                };
                if moved {
                    *messages -= plan.messages_tail[idx];
                    break;
                }
            }
        }

        // 3. Render the edge tallies for observers.
        self.plan
            .render_transitions(&state.tallies, 1, &mut state.transitions);

        state.period = period + 1;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s AgentState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

impl AgentRuntime {
    /// Executes one plan action for process `p` (currently in `state`).
    /// Returns `true` if the process itself transitioned.
    ///
    /// Contacts use **count-assisted sampling**: drawing a uniform member of
    /// the maximal group and testing "alive, reachable and in state `w`" is a
    /// Bernoulli trial with success probability
    /// `counts_alive[w] / N · (1 − contact_fail)` — and since the sampled
    /// target's identity is never used by `Flip`/`Sample`/`SampleAny` (only
    /// its current state is), the whole firing condition collapses into a
    /// single coin against the incrementally-maintained alive counts. This is
    /// distribution-identical to per-contact simulation — the counts are read
    /// *at the process's turn*, so the within-period cascade of the
    /// sequential sweep is preserved exactly — while touching no per-process
    /// memory and burning one RNG draw per (process, action) instead of one
    /// per contact. Actions that do act on the sampled target (`PushSample`,
    /// `Tokenize` consumers) still pick a concrete uniform victim, but only
    /// on the rare successful draws.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn execute_compiled(
        &self,
        idx: usize,
        p: usize,
        state: usize,
        inv_n: f64,
        contact_ok: f64,
        contact_fail: f64,
        members: &mut Membership,
        group: &Group,
        rng: &mut Rng,
        tallies: &mut [u64],
    ) -> bool {
        let plan = &self.plan;
        // Read only when something moves: most executions move no one.
        let edge = || plan.moves[idx].slot;
        match plan.actions[idx] {
            PlanAction::Flip { .. } => {
                // The sweep loop in `step` handles Flip inline (its only
                // call site filters it out); one canonical implementation
                // lives there.
                unreachable!("Flip is handled inline in the sweep loop")
            }
            PlanAction::Sample {
                req_start,
                req_end,
                prob,
                to,
            } => {
                let mut fire = prob;
                for &wanted in &plan.required[req_start as usize..req_end as usize] {
                    fire *= members.counts_alive[wanted as usize] as f64 * inv_n * contact_ok;
                }
                if rng.chance(fire) {
                    transition(p, state, to as usize, edge(), members, tallies);
                    return true;
                }
            }
            PlanAction::SampleAny {
                target,
                samples,
                prob,
                to,
            } => {
                let hit = members.counts_alive[target as usize] as f64 * inv_n * contact_ok;
                let fire = if samples == 1 {
                    prob * hit
                } else {
                    prob * (1.0 - (1.0 - hit).powi(samples as i32))
                };
                if rng.chance(fire) {
                    transition(p, state, to as usize, edge(), members, tallies);
                    return true;
                }
            }
            PlanAction::PushSample {
                target,
                samples,
                prob,
                to,
            } => {
                let t = target as usize;
                let mut remaining = samples;
                while remaining > 0 {
                    // Valid victims: alive members of `t` other than the
                    // executor (recomputed after each hit — a push may have
                    // just converted someone).
                    let avail = members.counts_alive[t] - u64::from(state == t);
                    let per_draw = avail as f64 * inv_n * contact_ok * prob;
                    if per_draw <= 0.0 {
                        break;
                    }
                    // One uniform resolves all remaining samples at once:
                    // either none of them hits (the common case), or the
                    // first hit is at sample `j` — P(first hit at j) =
                    // (1-q)^(j-1)·q, recovered from the same draw. The
                    // leftover samples after a hit re-enter the loop with the
                    // updated victim pool, so the sequential per-sample
                    // semantics are reproduced exactly.
                    // "First j samples all missed" ⇔ u < miss^j, so "no hit
                    // at all" ⇔ u < miss^remaining, and "first hit at j" ⇔
                    // miss^j ≤ u < miss^(j−1) (probability miss^(j−1)·q).
                    let u = rng.next_f64();
                    let miss = 1.0 - per_draw;
                    if u < miss.powi(remaining as i32) {
                        break; // every remaining sample missed
                    }
                    let mut j = 1u32;
                    while u < miss.powi(j as i32) {
                        j += 1;
                    }
                    // Uniform among the valid victims via rejection on p.
                    while let Some(victim) = members.random_alive_in_state(t, group, rng) {
                        if victim != p {
                            transition(victim, t, to as usize, edge(), members, tallies);
                            break;
                        }
                    }
                    remaining -= j;
                }
            }
            PlanAction::Tokenize {
                req_start,
                req_end,
                prob,
                token_state,
                to,
            } => {
                let mut fire = prob;
                for &wanted in &plan.required[req_start as usize..req_end as usize] {
                    fire *= members.counts_alive[wanted as usize] as f64 * inv_n * contact_ok;
                }
                if rng.chance(fire) {
                    // Forward the token to an alive process currently in
                    // `token_state`; if none can be found the token is dropped
                    // (Section 6's "if no processes are in state x").
                    if let Some(consumer) =
                        members.random_alive_in_state(token_state as usize, group, rng)
                    {
                        if !rng.chance(contact_fail) {
                            transition(
                                consumer,
                                token_state as usize,
                                to as usize,
                                edge(),
                                members,
                                tallies,
                            );
                        }
                    }
                }
            }
        }
        false
    }
}

/// Read access to the per-process membership at a period boundary, handed to
/// observers through [`PeriodEvents::membership`].
#[derive(Debug, Clone, Copy)]
pub struct MembershipView<'a> {
    members: &'a Membership,
    group: &'a Group,
}

impl MembershipView<'_> {
    /// Ids of the alive processes currently in `state`.
    pub(crate) fn alive_members_of(&self, state: StateId) -> Vec<ProcessId> {
        match &self.members.lists {
            Some(lists) => lists.members[state.index()]
                .iter()
                .map(|&p| ProcessId(p as usize))
                .filter(|id| self.group.is_alive_unchecked(id.index()))
                .collect(),
            // Without maintained lists, one flat scan (only membership
            // observers pay it, once per period).
            None => self
                .members
                .state
                .iter()
                .enumerate()
                .filter(|&(p, &s)| s as usize == state.index() && self.group.is_alive_unchecked(p))
                .map(|(p, _)| ProcessId(p))
                .collect(),
        }
    }

    /// Per-state counts restricted to alive processes (maintained
    /// incrementally — O(states), not O(N)).
    pub(crate) fn alive_counts(&self) -> Vec<u64> {
        self.members.counts_alive().to_vec()
    }
}

/// Per-process state bookkeeping with O(1) transitions and incrementally
/// maintained total and alive-only per-state counts.
///
/// Per-state member lists carry real bookkeeping weight on every transition
/// (positional swap-remove surgery), but only two consumers ever read them:
/// tokenize consumers and [`MembershipTracker`](super::MembershipTracker)
/// snapshots. They are therefore maintained only when the protocol contains
/// tokenize actions; everything else falls back to the flat state vector.
#[derive(Debug, Clone)]
struct Membership {
    state: Vec<u32>,
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    lists: Option<MemberLists>,
}

/// Per-state member lists with positional backpointers for O(1) moves.
#[derive(Debug, Clone)]
struct MemberLists {
    position: Vec<u32>,
    members: Vec<Vec<u32>>,
}

impl Membership {
    /// Takes the per-process state vector it keeps: construction allocates
    /// one `u32` per process and nothing wider.
    fn new(num_states: usize, state: Vec<u32>, group: &Group, with_lists: bool) -> Self {
        let mut counts = vec![0u64; num_states];
        let mut counts_alive = vec![0u64; num_states];
        for (p, &s) in state.iter().enumerate() {
            counts[s as usize] += 1;
            if group.is_alive_unchecked(p) {
                counts_alive[s as usize] += 1;
            }
        }
        let lists = with_lists.then(|| {
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_states];
            let mut position = Vec::with_capacity(state.len());
            for (p, &s) in state.iter().enumerate() {
                position.push(members[s as usize].len() as u32);
                members[s as usize].push(p as u32);
            }
            MemberLists { position, members }
        });
        Membership {
            state,
            counts,
            counts_alive,
            lists,
        }
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records that the (alive) process `p` crashed.
    fn on_crash(&mut self, p: usize) {
        self.counts_alive[self.state[p] as usize] -= 1;
    }

    /// Records that the (crashed) process `p` recovered.
    fn on_recover(&mut self, p: usize) {
        self.counts_alive[self.state[p] as usize] += 1;
    }

    /// Moves the **alive** process `p` to state `to` (the caller guarantees
    /// liveness; every runtime transition path does).
    fn force_state_alive(&mut self, p: usize, to: usize) {
        let from = self.state[p] as usize;
        if from == to {
            return;
        }
        self.counts[from] -= 1;
        self.counts_alive[from] -= 1;
        self.counts[to] += 1;
        self.counts_alive[to] += 1;
        self.state[p] = to as u32;
        if let Some(lists) = &mut self.lists {
            // Remove from the old member list via swap_remove, fixing the
            // swapped element's position.
            let pos = lists.position[p] as usize;
            let list = &mut lists.members[from];
            let last = *list.last().expect("member list cannot be empty");
            list.swap_remove(pos);
            if (last as usize) != p {
                lists.position[last as usize] = pos as u32;
            }
            // Insert into the new list.
            lists.position[p] = lists.members[to].len() as u32;
            lists.members[to].push(p as u32);
        }
    }

    /// Picks a uniformly random *alive* member of `state`, or `None` if the
    /// state is empty or only contains crashed processes.
    ///
    /// Rejection sampling handles the common case in O(1) expected time; the
    /// fallback counts the alive members and picks the k-th so the choice
    /// stays uniform even when almost everyone in the state has crashed
    /// (a first-alive scan would bias towards low process ids).
    fn random_alive_in_state(&self, state: usize, group: &Group, rng: &mut Rng) -> Option<usize> {
        let Some(lists) = &self.lists else {
            // Defensive fallback (init builds lists whenever the protocol can
            // reach this): pick the k-th alive member by scanning.
            let alive = self.counts_alive[state];
            if alive == 0 {
                return None;
            }
            let k = rng.index(alive as usize);
            return self
                .state
                .iter()
                .enumerate()
                .filter(|&(p, &s)| s as usize == state && group.is_alive_unchecked(p))
                .map(|(p, _)| p)
                .nth(k);
        };
        let list = &lists.members[state];
        if list.is_empty() {
            return None;
        }
        if group.all_alive() {
            return Some(list[rng.index(list.len())] as usize);
        }
        for _ in 0..16 {
            let candidate = list[rng.index(list.len())] as usize;
            if group.is_alive_unchecked(candidate) {
                return Some(candidate);
            }
        }
        // Uniform fallback: count, then index.
        let alive = list
            .iter()
            .filter(|&&p| group.is_alive_unchecked(p as usize))
            .count();
        if alive == 0 {
            return None;
        }
        let k = rng.index(alive);
        list.iter()
            .map(|&p| p as usize)
            .filter(|&p| group.is_alive_unchecked(p))
            .nth(k)
    }
}

/// The agent tier books a crash or recovery in its incremental alive counts;
/// a rejoining process moves to the rejoin state.
impl Bookkeeping for Membership {
    const RUNTIME: &'static str = "agent";

    /// Per-state counts over alive processes only, maintained incrementally.
    fn counts_alive(&self) -> &[u64] {
        &self.counts_alive
    }

    fn state_of(&self, p: usize) -> usize {
        self.state[p] as usize
    }

    fn crashed(&mut self, p: usize) {
        self.on_crash(p);
    }

    fn recovered(&mut self, p: usize, rejoin: Option<StateId>) {
        self.on_recover(p);
        if let Some(to) = rejoin {
            self.force_state_alive(p, to.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CountsRecorder, MembershipTracker, Simulation};
    use super::*;
    use crate::error::CoreError;
    use crate::fixtures::epidemic_protocol;
    use crate::mapping::ProtocolCompiler;
    use odekit::system::EquationSystemBuilder;

    #[test]
    fn epidemic_saturates_in_logarithmic_time() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(4096, 40).unwrap().with_seed(11);
        let result = AgentRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[4095, 1]))
            .unwrap();
        // Conservation every period.
        for (_, s) in result.counts.iter() {
            assert_eq!(s[0] + s[1], 4096.0);
        }
        // Saturation.
        let final_counts = result.final_counts().unwrap();
        assert!(final_counts[1] > 4000.0);
        // O(log N) spread: find the first period with > half infected; for
        // N = 4096 the pull epidemic needs roughly log2(N) ≈ 12 periods to
        // take off, comfortably under 30.
        let y = result.state_series("y").unwrap();
        let first_half = y.iter().position(|&v| v > 2048.0).unwrap();
        assert!(first_half < 30, "took {first_half} periods to infect half");
        // Transition counter adds up to the total number of infections.
        assert_eq!(result.total_transitions("x", "y"), final_counts[1] - 1.0);
        // Messages were counted.
        assert!(result
            .metrics
            .series("messages")
            .unwrap()
            .iter()
            .any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn incremental_stepping_matches_the_one_shot_run() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(512, 12).unwrap().with_seed(4);
        let initial = InitialStates::counts(&[511, 1]);
        let runtime = AgentRuntime::new(protocol);
        let batch = runtime.run(&scenario, &initial).unwrap();

        let mut state = runtime.init(&scenario, &initial).unwrap();
        assert_eq!(runtime.snapshot(&state).period, 0);
        let mut counts_by_period = vec![runtime.snapshot(&state).counts.to_vec()];
        for _ in 0..scenario.periods() {
            let ev = runtime.step(&mut state).unwrap();
            counts_by_period.push(ev.counts.to_vec());
        }
        assert_eq!(state.period(), scenario.periods());
        for (recorded, stepped) in batch.counts.states().iter().zip(&counts_by_period) {
            let stepped: Vec<f64> = stepped.iter().map(|&c| c as f64).collect();
            assert_eq!(recorded, &stepped);
        }
    }

    #[test]
    fn initial_distribution_must_match_group() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(100, 5).unwrap();
        let err = AgentRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[50, 49]))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn crashed_processes_do_not_participate() {
        // With every process crashed at period 0, nothing ever transitions.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(50, 10)
            .unwrap()
            .with_massive_failure(0, 1.0)
            .unwrap()
            .with_seed(3);
        let result = AgentRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[49, 1]))
            .unwrap();
        assert_eq!(result.final_counts(), Some(&[49.0, 1.0][..]));
        assert_eq!(result.total_transitions("x", "y"), 0.0);
    }

    #[test]
    fn alive_only_counts_exclude_crashed_processes() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(100, 3)
            .unwrap()
            .with_massive_failure(1, 0.5)
            .unwrap()
            .with_seed(5);
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[100, 0]))
            .observe(CountsRecorder::alive_only())
            .run::<AgentRuntime>()
            .unwrap();
        // After the massive failure the alive-only counts sum to 50.
        let last = result.final_counts().unwrap();
        assert_eq!(last.iter().sum::<f64>(), 50.0);
    }

    #[test]
    fn incremental_alive_counts_track_failures_and_transitions() {
        // Crash 60% at period 2 and keep the epidemic running: the
        // incrementally maintained alive counts must match a from-scratch
        // recount at every period.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(300, 12)
            .unwrap()
            .with_massive_failure(2, 0.6)
            .unwrap()
            .with_failure_model(netsim::FailureModel::new(0.02, 0.1).unwrap())
            .with_seed(17);
        let runtime = AgentRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[299, 1]);
        let mut state = runtime.init(&scenario, &initial).unwrap();
        for _ in 0..scenario.periods() {
            runtime.step(&mut state).unwrap();
            let incremental = state.members.counts_alive().to_vec();
            let mut recount = vec![0u64; protocol.num_states()];
            for p in 0..scenario.group_size() {
                if state.group.is_alive_unchecked(p) {
                    recount[state.members.state_of(p)] += 1;
                }
            }
            assert_eq!(incremental, recount, "period {}", state.period());
        }
    }

    #[test]
    fn rejoin_state_is_applied_on_recovery() {
        // Crash a specific process and recover it later; with rejoin_state =
        // y it must come back in state y even though it started in x. An
        // action-free protocol isolates the rejoin mechanism.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let y = protocol.require_state("y").unwrap();
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(0, netsim::FailureEvent::Crash(ProcessId(0)));
        schedule.add(2, netsim::FailureEvent::Recover(ProcessId(0)));
        let scenario = Scenario::new(10, 5)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap()
            .with_seed(1);
        let runtime = AgentRuntime::build(protocol, &RunConfig::rejoining_to(y));
        // The only way a y can appear is via the rejoin rule.
        let result = runtime
            .run(&scenario, &InitialStates::counts(&[10, 0]))
            .unwrap();
        assert_eq!(result.final_counts().unwrap()[1], 1.0);
    }

    #[test]
    fn handoff_assignment_is_jointly_uniform() {
        // Regression: deriving the crashed set from id order after a
        // state-only shuffle biased it toward low ids, skewing the alive
        // processes' id-order sweep. With counts {x: 1 alive + 1 crashed,
        // y: 1 alive}, the alive state sequence must be (x, y) and (y, x)
        // equally often.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let runtime = AgentRuntime::new(protocol);
        let scenario = Scenario::new(3, 1).unwrap();
        let mut rng = Rng::seed_from(42);
        let draws = 4_000u32;
        let mut x_first = 0u32;
        for _ in 0..draws {
            let state = runtime.state_from_counts(&scenario, &[1, 1], &[1, 0], 0, rng.fork(0));
            let alive_states: Vec<usize> = (0..3)
                .filter(|&p| state.group.is_alive_unchecked(p))
                .map(|p| state.members.state_of(p))
                .collect();
            assert_eq!(alive_states.len(), 2);
            assert_eq!(state.members.counts(), &[2, 1]);
            if alive_states == [0, 1] {
                x_first += 1;
            }
        }
        // Expected 2000; 5σ ≈ 158. The biased construction put x first in
        // only ~1/3 of draws.
        assert!(
            (f64::from(x_first) - 2_000.0).abs() < 160.0,
            "x first in {x_first} of {draws} draws"
        );
    }

    #[test]
    fn handoff_stream_is_pinned() {
        // Recorded before PR 24 packed the labels into the kept `Vec<u32>`
        // and unmodified by it: the handoff's permutation, the crashed set it
        // implies, the flip counters seeded after it and the first draw a
        // later period would see. A failure means the construction changed
        // the stream, not just its memory — a bug unless an issue says the
        // handoff stream moves.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y", "z"])
            .term("x", -2.0, &[("x", 1), ("y", 1)])
            .term("x", 0.01, &[("z", 1)])
            .term("y", 2.0, &[("x", 1), ("y", 1)])
            .term("y", -0.1, &[("y", 1)])
            .term("z", 0.1, &[("y", 1)])
            .term("z", -0.01, &[("z", 1)])
            .build()
            .unwrap();
        let runtime = AgentRuntime::new(ProtocolCompiler::new("endemic").compile(&sys).unwrap());
        let scenario = Scenario::new(48, 1).unwrap();
        let state =
            runtime.state_from_counts(&scenario, &[20, 15, 5], &[4, 0, 4], 3, Rng::seed_from(24));
        assert_eq!(state.members.counts(), &[24, 15, 9]);
        assert_eq!(state.members.counts_alive(), &[20, 15, 5]);
        let first_32: Vec<usize> = (0..32).map(|p| state.members.state_of(p)).collect();
        assert_eq!(
            first_32,
            [
                0, 0, 2, 1, 1, 0, 1, 2, 0, 0, 0, 0, 2, 1, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 1, 1, 2, 0,
                1, 1, 1, 0
            ]
        );
        let crashed: Vec<usize> = (0..48)
            .filter(|&p| !state.group.is_alive_unchecked(p))
            .collect();
        assert_eq!(crashed, [5, 7, 10, 18, 23, 26, 36, 44]);
        assert_eq!(state.flip_skips, [0, 24, 164]);
        assert_eq!(state.rng.clone().next_u64(), 3_485_779_260_461_829_856);
    }

    #[test]
    fn member_tracking_records_state_membership() {
        let protocol = epidemic_protocol();
        let y = protocol.require_state("y").unwrap();
        let scenario = Scenario::new(64, 15).unwrap().with_seed(2);
        let result = Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[63, 1]))
            .observe(CountsRecorder::new())
            .observe(MembershipTracker::of(y))
            .run::<AgentRuntime>()
            .unwrap();
        // One snapshot per recorded period (periods + 1 including period 0).
        assert_eq!(result.tracked_members.len(), 16);
        // Snapshot sizes match the recorded y counts.
        let y_series = result.state_series("y").unwrap();
        for ((_, ids), count) in result.tracked_members.iter().zip(&y_series) {
            assert_eq!(ids.len() as f64, *count);
        }
    }

    #[test]
    fn membership_bookkeeping_is_consistent() {
        let group = Group::new(5);
        let mut m = Membership::new(3, vec![0, 0, 1, 2, 1], &group, true);
        assert_eq!(m.counts(), &[2, 2, 1]);
        assert_eq!(m.counts_alive(), &[2, 2, 1]);
        assert_eq!(m.state_of(3), 2);
        m.force_state_alive(0, 2);
        m.force_state_alive(0, 2); // no-op
        assert_eq!(m.counts(), &[1, 2, 2]);
        assert_eq!(m.counts_alive(), &[1, 2, 2]);
        assert_eq!(m.state_of(0), 2);
        let lists = m.lists.as_ref().unwrap();
        assert!(lists.members[2].contains(&0));
        m.force_state_alive(4, 0);
        assert_eq!(m.counts(), &[2, 1, 2]);
        // Crash/recover hooks move only the alive counts.
        m.on_crash(4);
        assert_eq!(m.counts(), &[2, 1, 2]);
        assert_eq!(m.counts_alive(), &[1, 1, 2]);
        m.on_recover(4);
        assert_eq!(m.counts_alive(), &[2, 1, 2]);
        // Every process appears exactly once across all member lists.
        let lists = m.lists.as_ref().unwrap();
        let mut all: Vec<u32> = lists.members.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn token_consumers_are_uniform_under_heavy_failure() {
        // Regression test for the biased fallback: with only a handful of
        // alive members left in the token state, the rejection loop usually
        // misses and the fallback decides — it must not favour low ids.
        let mut group = Group::new(4_000);
        let assignment = vec![0usize; 4_000];
        // Alive members: a low-id one and three high-id ones. A first-alive
        // scan would return id 10 almost always.
        let alive = [10usize, 3_200, 3_600, 3_999];
        for p in 0..4_000 {
            if !alive.contains(&p) {
                group.crash(ProcessId(p)).unwrap();
            }
        }
        let m = Membership::new(
            1,
            assignment.iter().map(|&s| s as u32).collect(),
            &group,
            true,
        );
        let mut rng = Rng::seed_from(99);
        let mut hits = std::collections::HashMap::new();
        let draws = 4_000;
        for _ in 0..draws {
            let picked = m.random_alive_in_state(0, &group, &mut rng).unwrap();
            *hits.entry(picked).or_insert(0u32) += 1;
        }
        // Every alive member is reachable and roughly uniform (expected 1000
        // each; 5 sigma ≈ 150).
        for p in alive {
            let h = *hits.get(&p).unwrap_or(&0);
            assert!(
                (h as f64 - draws as f64 / 4.0).abs() < 150.0,
                "process {p} hit {h} times"
            );
        }
        // All-crashed state yields None.
        for p in alive {
            group.crash(ProcessId(p)).unwrap();
        }
        assert_eq!(m.random_alive_in_state(0, &group, &mut rng), None);
    }

    #[test]
    fn oblivious_adversary_matches_scheduled_massive_failure_bit_for_bit() {
        // The same failure budget delivered through the adversary hook must
        // reproduce the scheduled-event run exactly, per-id victim selection
        // and RNG stream included.
        let protocol = epidemic_protocol();
        let runtime = AgentRuntime::new(protocol);
        let initial = InitialStates::counts(&[1999, 1]);
        let scheduled = Scenario::new(2000, 25)
            .unwrap()
            .with_massive_failure(12, 0.5)
            .unwrap()
            .with_seed(7);
        let injected = Scenario::new(2000, 25)
            .unwrap()
            .with_seed(7)
            .with_adversary(
                netsim::adversary::ObliviousSchedule::new()
                    .crash_uniform_at(12, 0.5)
                    .unwrap(),
            );
        let a = runtime.run(&scheduled, &initial).unwrap();
        let b = runtime.run(&injected, &initial).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_adversary_strikes_the_leading_state_per_id() {
        // An inert two-state protocol: the adversary sees [600, 400] alive,
        // strikes the leader with budget 0.3·1000 = 300 victims, all drawn
        // from state x.
        let protocol = Protocol::new("inert", vec!["x".into(), "y".into()]).unwrap();
        let scenario = Scenario::new(1000, 20)
            .unwrap()
            .with_seed(13)
            .with_adversary(netsim::adversary::TargetLargestState::new(0.3, 10, 5, 1).unwrap());
        let result = AgentRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[600, 400]))
            .unwrap();
        // Total counts are unchanged (crashed processes remember their
        // state); the strike is visible through the alive-only counts.
        assert_eq!(result.final_counts(), Some(&[600.0, 400.0][..]));
        let alive = result
            .metrics
            .series("alive")
            .expect("alive series recorded");
        assert_eq!(alive.last().unwrap().1, 700.0);
    }

    #[test]
    fn message_losses_slow_the_epidemic_down() {
        let protocol = epidemic_protocol();
        let reliable = Scenario::new(2000, 15).unwrap().with_seed(9);
        let lossy = Scenario::new(2000, 15)
            .unwrap()
            .with_seed(9)
            .with_loss(netsim::LossConfig::new(0.8, 0.0).unwrap());
        let runtime = AgentRuntime::new(protocol);
        let a = runtime
            .run(&reliable, &InitialStates::counts(&[1999, 1]))
            .unwrap();
        let b = runtime
            .run(&lossy, &InitialStates::counts(&[1999, 1]))
            .unwrap();
        let a_final = a.final_counts().unwrap()[1];
        let b_final = b.final_counts().unwrap()[1];
        assert!(
            a_final > b_final,
            "losses should slow dissemination: {a_final} vs {b_final}"
        );
    }
}
