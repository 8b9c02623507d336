//! The asynchronous message-passing runtime: every protocol contact is an
//! actual queued message.
//!
//! The period-synchronized runtimes resolve a contact instantaneously — a
//! probability computed from the current counts, one coin. Here a contact is
//! a *message*: sent into a [`Transport`], delayed by the link's sampled
//! latency, possibly dropped by loss or a partition window, and only on
//! resolution does the executing process learn the outcome and continue its
//! action list. Time is virtual (seconds, [`PERIOD_SECS`](netsim::PERIOD_SECS)
//! to a period); each `step` advances one protocol
//! period of it, interleaving process wake-ups and message deliveries in a
//! deterministic event order, so a seeded run replays bit-identically.
//!
//! Execution model:
//!
//! * every process owns a fixed uniform **wake offset** inside the period;
//!   at its wake it starts executing its current state's action list as a
//!   *chain* — local actions (`Flip`) resolve immediately, contact actions
//!   suspend the chain behind a probe message;
//! * a chain holds at most **one message in flight**; its resolution either
//!   continues the chain (next required contact, next sample, next action)
//!   or ends it (the process transitioned, or the list ran out);
//! * a process whose chain is still waiting on a slow response **skips its
//!   next wake** — that is precisely how link latency slows a protocol down:
//!   fewer action attempts per unit of virtual time, never altered
//!   per-attempt probabilities;
//! * with zero latency and no loss every chain completes within its wake
//!   instant, so a period degenerates to a sequential sweep in wake order —
//!   the agent runtime's semantics with a (fixed, uniformly random)
//!   visiting permutation, which is why the ensemble-mean equivalence
//!   pinned in `tests/property.rs` holds.
//!
//! Contact semantics mirror the agent runtime's: a probe is addressed to a
//! uniform member of the maximal group and *hits* when it is delivered,
//! survives the scenario's per-contact loss, and finds its target alive and
//! in the wanted state — the target's state is read at **delivery time**,
//! not send time. `SampleAny` probes until the first hit and then pays one
//! `prob` coin (fire probability `prob·(1−(1−hit)^k)`, as in the agent
//! runtime); `PushSample` treats a self-addressed probe as a miss (the
//! executor is not a valid victim); `Tokenize` picks its consumer uniformly
//! among alive members of the token state and forwards the token as one
//! more message.
//!
//! Initial states are assigned in **contiguous index blocks** (first
//! `counts[0]` processes in state 0, and so on) rather than shuffled: under
//! uniform mixing the assignment is exchangeable so the dynamics are
//! unchanged, and it gives segmented transports a deterministic placement —
//! "the seeds live in the last segment" is expressible from counts alone.
//!
//! Two accounting differences from the agent runtime, by design:
//! [`PeriodEvents::messages`] counts messages *actually sent* (the agent
//! runtime bills a state's full per-period message budget up front), and
//! [`PeriodEvents::membership`] is `None` — per-process identity exists
//! internally, but the membership view belongs to the agent runtime.

use super::environment::{Bookkeeping, Environment, Processes};
use super::observer::TransportProbe;
use super::plan::{draw_geometric, PlanAction, ProtocolPlan};
use super::{InitialStates, Needs, PeriodEvents, RunConfig, Runtime};
use crate::error::CoreError;
use crate::state_machine::{Protocol, StateId};
use crate::Result;
use netsim::adversary::{AdversaryView, TransportGauges};
use netsim::transport::{
    Delivery, InProcTransport, Transport, TransportBackend, TransportConfig, TransportStats,
    UdsTransport,
};
use netsim::{Group, ProcessId, Rng, Scenario};
use std::sync::Arc;

/// Executes a protocol as asynchronous message passing over a virtual-time
/// transport (see the module docs above for the execution model).
///
/// Selected by [`Simulation::run_auto`](super::Simulation::run_auto) whenever
/// the scenario carries a [`TransportConfig`]
/// ([`Scenario::with_transport`]); a scenario without one runs on the
/// implicit zero-latency lossless transport, which reproduces the
/// synchronized runtimes' ensemble means.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{AsyncRuntime, InitialStates, Runtime}};
/// use netsim::transport::{LatencyModel, LinkModel, TransportConfig};
/// use netsim::Scenario;
/// use odekit::EquationSystemBuilder;
///
/// let sys = EquationSystemBuilder::new()
///     .vars(["x", "y"])
///     .term("x", -1.0, &[("x", 1), ("y", 1)])
///     .term("y", 1.0, &[("x", 1), ("y", 1)])
///     .build()?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// // A uniform link: 30 s mean exponential latency, 1 % drops.
/// let link = LinkModel::new(LatencyModel::Exponential { mean: 30.0 }, 0.01)?;
/// let scenario = Scenario::new(500, 40)?
///     .with_seed(7)
///     .with_transport(TransportConfig::new(link))?;
/// let result = AsyncRuntime::new(protocol).run(&scenario, &InitialStates::counts(&[499, 1]))?;
/// let infected = result.final_counts().expect("run recorded periods")[1];
/// assert!(infected > 450.0, "epidemic should still saturate, got {infected}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AsyncRuntime {
    plan: ProtocolPlan,
    config: RunConfig,
}

/// Where a process's current chain is suspended, waiting for one in-flight
/// message to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No chain running: the process will start one at its next wake.
    Idle,
    /// `Sample` action `idx`, probing `required[req_pos]`.
    Sample { idx: u32, req_pos: u32 },
    /// `SampleAny` action `idx`, `remaining` probes left (current included).
    SampleAny { idx: u32, remaining: u32 },
    /// `PushSample` action `idx`, `remaining` probes left (current included).
    Push { idx: u32, remaining: u32 },
    /// `Tokenize` action `idx`, probing its fire condition.
    TokenFire { idx: u32, req_pos: u32 },
    /// `Tokenize` action `idx`, token message on its way to the consumer.
    TokenSend { idx: u32 },
}

/// Message payload layout: `kind` (4 bits) | chain generation (28 bits) |
/// action index (32 bits). The generation counter invalidates in-flight
/// messages when their sender crashes: a stale response must not continue a
/// chain the crash already killed.
const GEN_MASK: u32 = 0x0FFF_FFFF;

fn encode(kind: u64, gen: u32, idx: usize) -> u64 {
    (kind << 60) | (u64::from(gen & GEN_MASK) << 32) | idx as u64
}

fn decode(payload: u64) -> (u32, usize) {
    ((payload >> 32) as u32 & GEN_MASK, payload as u32 as usize)
}

const KIND_PROBE: u64 = 1;
const KIND_PUSH: u64 = 2;
const KIND_TOKEN: u64 = 3;

/// The transport actually driving the run: the virtual-time in-process
/// broker, or the Unix-datagram-socket transport running each population
/// segment as a real worker process ([`TransportBackend`] on the scenario's
/// [`TransportConfig`] selects which). Both share one event-loop interface,
/// so the execution model above is backend-agnostic.
#[derive(Debug)]
enum RunTransport {
    InProc(Box<InProcTransport>),
    Uds(Box<UdsTransport>),
}

impl RunTransport {
    fn build(config: TransportConfig, n: usize) -> Result<Self> {
        Ok(match config.backend() {
            TransportBackend::InProcess => {
                RunTransport::InProc(Box::new(InProcTransport::new(config, n)))
            }
            TransportBackend::UnixSocket(_) => {
                RunTransport::Uds(Box::new(UdsTransport::new(config, n)?))
            }
        })
    }

    fn config(&self) -> &TransportConfig {
        match self {
            RunTransport::InProc(t) => t.config(),
            RunTransport::Uds(t) => t.config(),
        }
    }

    fn stats(&self) -> Arc<TransportStats> {
        match self {
            RunTransport::InProc(t) => t.stats(),
            RunTransport::Uds(t) => t.stats(),
        }
    }

    /// Takes the worker for `segment` down. On the socket backend this is a
    /// real SIGKILL plus segment parking; in process the failure is purely
    /// logical (the per-process crash bookkeeping in the caller carries the
    /// whole effect), keeping both backends injectable by the same adversary.
    fn kill_segment(&mut self, segment: usize) {
        match self {
            RunTransport::InProc(_) => {}
            RunTransport::Uds(t) => t.kill_segment(segment),
        }
    }

    /// Brings the worker for `segment` back: a generation-bumped respawn on
    /// the socket backend, a no-op in process.
    fn revive_segment(&mut self, segment: usize) -> Result<()> {
        match self {
            RunTransport::InProc(_) => Ok(()),
            RunTransport::Uds(t) => Ok(t.revive_segment(segment)?),
        }
    }
}

impl Transport for RunTransport {
    fn send(
        &mut self,
        src: u32,
        dst: u32,
        payload: u64,
        now: f64,
        period: u64,
        rng: &mut Rng,
    ) -> f64 {
        match self {
            RunTransport::InProc(t) => t.send(src, dst, payload, now, period, rng),
            RunTransport::Uds(t) => t.send(src, dst, payload, now, period, rng),
        }
    }

    fn next_ready(&mut self, until: f64) -> Option<Delivery> {
        match self {
            RunTransport::InProc(t) => t.next_ready(until),
            RunTransport::Uds(t) => t.next_ready(until),
        }
    }

    fn next_time(&self) -> Option<f64> {
        match self {
            RunTransport::InProc(t) => t.next_time(),
            RunTransport::Uds(t) => t.next_time(),
        }
    }

    fn queue_depth(&self) -> usize {
        match self {
            RunTransport::InProc(t) => t.queue_depth(),
            RunTransport::Uds(t) => t.queue_depth(),
        }
    }
}

/// A worker restart scheduled by an `Injection::KillWorker` under
/// supervision: at period `due` the listed victims — the segment members
/// that were alive at the kill's period boundary, with the states the
/// boundary checkpoint recorded for them — rejoin the group.
#[derive(Debug, Clone)]
struct PendingRestore {
    due: u64,
    segment: usize,
    /// `(process, checkpointed state)` pairs to recover.
    victims: Vec<(u32, u32)>,
}

/// The mutable execution state of an [`AsyncRuntime`] run.
#[derive(Debug)]
pub struct AsyncState {
    env: Environment,
    /// Per-contact failure probability of the scenario's losses.
    contact_fail: f64,
    rng: Rng,
    group: Group,
    book: Book,
    /// Per-process wake offset within a period, in `[0, period_secs)`.
    offsets: Vec<f64>,
    /// Process ids sorted by wake offset — the deterministic wake order,
    /// computed once (offsets never change).
    wake_order: Vec<u32>,
    /// The state whose action list the current chain is executing.
    chain_origin: Vec<u32>,
    /// Per-flip-action geometric "tails left" counters.
    flip_skips: Vec<u64>,
    period: u64,
    period_secs: f64,
    messages: u64,
    /// Per plan edge: the processes that crossed it this period.
    tallies: Vec<u64>,
    transitions: Vec<(StateId, StateId, u64)>,
    probe: TransportProbe,
}

impl AsyncState {
    /// The current protocol state of each process (index = process id).
    #[cfg(test)]
    pub(crate) fn process_states(&self) -> &[u32] {
        &self.book.states
    }

    /// A cloneable, thread-safe handle onto the transport's live statistics
    /// (sent/delivered/dropped counters, in-flight count, recent latency) —
    /// readable while the run executes.
    pub fn transport_stats(&self) -> Arc<TransportStats> {
        self.book.transport.stats()
    }
}

/// Everything the event handlers touch, borrowed once per `step`.
struct Ctx<'a> {
    rng: &'a mut Rng,
    transport: &'a mut RunTransport,
    group: &'a Group,
    states: &'a mut [u32],
    counts: &'a mut [u64],
    counts_alive: &'a mut [u64],
    pending: &'a mut [Phase],
    chain_id: &'a [u32],
    chain_origin: &'a mut [u32],
    flip_skips: &'a mut [u64],
    tallies: &'a mut [u64],
    messages: &'a mut u64,
    n: usize,
    contact_fail: f64,
    check_alive: bool,
    period: u64,
}

impl Ctx<'_> {
    /// Moves the alive process `p` to `to`, maintaining counts and the tally
    /// of the plan edge slot `edge` (the edge of the action that moved it).
    fn move_alive(&mut self, p: usize, to: usize, edge: u32) {
        let from = self.states[p] as usize;
        if from == to {
            return;
        }
        self.counts[from] -= 1;
        self.counts[to] += 1;
        self.counts_alive[from] -= 1;
        self.counts_alive[to] += 1;
        self.states[p] = to as u32;
        self.tallies[edge as usize] += 1;
    }

    fn is_alive(&self, p: usize) -> bool {
        !self.check_alive || self.group.is_alive_unchecked(p)
    }

    /// Sends one chain message from `p` to `dst` at virtual time `now`.
    fn send(&mut self, p: usize, dst: usize, kind: u64, idx: usize, now: f64) {
        let payload = encode(kind, self.chain_id[p], idx);
        self.transport
            .send(p as u32, dst as u32, payload, now, self.period, self.rng);
        *self.messages += 1;
    }

    /// Sends a probe to a uniform member of the maximal group (self
    /// included — a contact aimed at yourself or at a crashed process is
    /// fruitless, exactly as in the agent runtime).
    fn send_probe(&mut self, p: usize, kind: u64, idx: usize, now: f64) {
        let dst = self.rng.index(self.n);
        self.send(p, dst, kind, idx, now);
    }

    /// Picks a uniformly random alive member of `state` (rejection sampling
    /// with a k-th-member fallback, mirroring the agent runtime's
    /// `random_alive_in_state`), or `None` if no alive member exists.
    fn random_alive_in_state(&mut self, state: usize) -> Option<usize> {
        let alive = self.counts_alive[state];
        if alive == 0 {
            return None;
        }
        for _ in 0..32 {
            let q = self.rng.index(self.n);
            if self.states[q] as usize == state && self.is_alive(q) {
                return Some(q);
            }
        }
        let k = self.rng.index(alive as usize);
        (0..self.n)
            .filter(|&q| self.states[q] as usize == state && self.is_alive(q))
            .nth(k)
    }
}

/// What a crash, recovery or worker kill touches: the per-process states
/// and chains, the transport whose workers host the processes, and the
/// restarts supervision has scheduled. A crash kills the process's chain; a
/// worker kill parks a whole segment until supervision restores it.
#[derive(Debug)]
struct Book {
    /// Current protocol state per process.
    states: Vec<u32>,
    counts: Vec<u64>,
    counts_alive: Vec<u64>,
    pending: Vec<Phase>,
    /// Per-process chain generation (bumped on crash, embedded in payloads).
    chain_id: Vec<u32>,
    transport: RunTransport,
    /// Worker restarts scheduled by supervised worker kills, applied at
    /// their due period boundary before anything else.
    restores: Vec<PendingRestore>,
}

impl Book {
    /// Applies every supervised worker restart that has come due: the
    /// worker respawns (a generation-bumped process on the socket backend)
    /// and its kill victims rejoin with the states the kill-time
    /// period-boundary checkpoint recorded — unless something else (e.g. a
    /// `RecoverUniform`) already brought them back.
    fn restore_due(&mut self, group: &mut Group, period: u64) -> Result<()> {
        while let Some(i) = self.restores.iter().position(|r| r.due <= period) {
            let restore = self.restores.remove(i);
            self.transport.revive_segment(restore.segment)?;
            for (p, state) in restore.victims {
                if group.recover(ProcessId(p as usize))? {
                    self.recovered(p as usize, Some(StateId::new(state as usize)));
                }
            }
        }
        Ok(())
    }
}

impl Bookkeeping for Book {
    const RUNTIME: &'static str = "async";

    fn counts_alive(&self) -> &[u64] {
        &self.counts_alive
    }

    fn state_of(&self, p: usize) -> usize {
        self.states[p] as usize
    }

    fn crashed(&mut self, p: usize) {
        self.counts_alive[self.states[p] as usize] -= 1;
        self.chain_id[p] = self.chain_id[p].wrapping_add(1);
        self.pending[p] = Phase::Idle;
    }

    fn recovered(&mut self, p: usize, rejoin: Option<StateId>) {
        if let Some(to) = rejoin {
            self.counts[self.states[p] as usize] -= 1;
            self.counts[to.index()] += 1;
            self.states[p] = to.index() as u32;
        }
        self.counts_alive[self.states[p] as usize] += 1;
    }

    /// Uniquely here the view carries the live transport gauges and the
    /// per-segment alive counts worker-striking adversaries target (the same
    /// counts on either backend).
    fn view<R>(&self, group: &Group, period: u64, plan: impl FnOnce(&AdversaryView<'_>) -> R) -> R {
        let stats = self.transport.stats();
        let config = self.transport.config();
        let n = group.size();
        let mut segments_alive = vec![0u64; config.segments()];
        for p in (0..n).filter(|&p| group.is_alive_unchecked(p)) {
            segments_alive[config.segment_of(p, n)] += 1;
        }
        plan(&AdversaryView {
            period,
            counts_alive: &self.counts_alive,
            alive: group.alive_count() as u64,
            shard_counts_alive: None,
            transport: Some(TransportGauges {
                queue_depth: self.transport.queue_depth() as u64,
                sent: stats.sent(),
                delivered: stats.delivered(),
                dropped: stats.dropped(),
            }),
            segments_alive: Some(&segments_alive),
        })
    }

    /// The victims are the segment's alive members. Their states have not
    /// changed since the period boundary (the event loop has not run yet),
    /// so the list doubles as the checkpoint a supervised restart recovers
    /// from. On the socket backend the kill is a real SIGKILL; either way
    /// the segment's in-flight traffic is now garbage, which the generation
    /// bumps discard on arrival.
    fn kill_worker(&mut self, group: &mut Group, segment: usize, period: u64) -> Result<u64> {
        let n = group.size();
        let config = self.transport.config();
        let victims: Vec<(u32, u32)> = (0..n)
            .filter(|&p| config.segment_of(p, n) == segment && group.is_alive_unchecked(p))
            .map(|p| (p as u32, self.states[p]))
            .collect();
        for &(p, _) in &victims {
            group.crash(ProcessId(p as usize))?;
            self.crashed(p as usize);
        }
        self.transport.kill_segment(segment);
        let count = victims.len() as u64;
        if let Some(delay) = self.transport.config().supervision() {
            // `due <= period` fires at a boundary, so a zero delay means
            // "restart at the next period".
            let due = period + delay;
            self.restores.push(PendingRestore {
                due,
                segment,
                victims,
            });
        }
        Ok(count)
    }
}

impl AsyncRuntime {
    fn events<'s>(&self, state: &'s AsyncState) -> PeriodEvents<'s> {
        PeriodEvents {
            period: state.period,
            counts: &state.book.counts,
            transitions: &state.transitions,
            messages: state.messages,
            alive: state.group.alive_count() as u64,
            counts_alive: Some(&state.book.counts_alive),
            membership: None,
            shard_counts_alive: None,
            transport: Some(state.probe),
            injections: state.env.records(),
            virtual_time: None,
        }
    }

    /// Walks `p`'s action list (for its chain-origin state) from `start_idx`
    /// at virtual time `now`: local actions resolve inline, the first
    /// contact action suspends the chain behind a message, and a transition
    /// or list exhaustion ends the chain.
    fn advance_chain(&self, ctx: &mut Ctx<'_>, p: usize, start_idx: usize, now: f64) {
        let origin = ctx.chain_origin[p] as usize;
        let end = self.plan.spans[origin].end as usize;
        let mut idx = start_idx;
        while idx < end {
            let edge = self.plan.moves[idx].slot;
            match self.plan.actions[idx] {
                PlanAction::Flip { geo_scale, to, .. } => {
                    let skip = &mut ctx.flip_skips[idx];
                    if *skip == 0 {
                        *skip = draw_geometric(ctx.rng, geo_scale);
                        ctx.move_alive(p, to as usize, edge);
                        ctx.pending[p] = Phase::Idle;
                        return;
                    }
                    *skip -= 1;
                }
                PlanAction::Sample {
                    req_start,
                    req_end,
                    prob,
                    to,
                } => {
                    if req_start == req_end {
                        // Contact-free sample degenerates to a coin.
                        if ctx.rng.chance(prob) {
                            ctx.move_alive(p, to as usize, edge);
                            ctx.pending[p] = Phase::Idle;
                            return;
                        }
                    } else {
                        ctx.pending[p] = Phase::Sample {
                            idx: idx as u32,
                            req_pos: 0,
                        };
                        ctx.send_probe(p, KIND_PROBE, idx, now);
                        return;
                    }
                }
                PlanAction::SampleAny { samples, .. } => {
                    ctx.pending[p] = Phase::SampleAny {
                        idx: idx as u32,
                        remaining: samples.max(1),
                    };
                    ctx.send_probe(p, KIND_PROBE, idx, now);
                    return;
                }
                PlanAction::PushSample { samples, .. } => {
                    ctx.pending[p] = Phase::Push {
                        idx: idx as u32,
                        remaining: samples.max(1),
                    };
                    ctx.send_probe(p, KIND_PUSH, idx, now);
                    return;
                }
                PlanAction::Tokenize {
                    req_start,
                    req_end,
                    prob,
                    token_state,
                    ..
                } => {
                    if req_start == req_end {
                        if ctx.rng.chance(prob)
                            && self.launch_token(ctx, p, idx, token_state as usize, now)
                        {
                            return;
                        }
                    } else {
                        ctx.pending[p] = Phase::TokenFire {
                            idx: idx as u32,
                            req_pos: 0,
                        };
                        ctx.send_probe(p, KIND_PROBE, idx, now);
                        return;
                    }
                }
            }
            idx += 1;
        }
        ctx.pending[p] = Phase::Idle;
    }

    /// Fired `Tokenize`: picks the consumer and sends the token. Returns
    /// `false` (chain continues past the action) when no alive consumer
    /// exists — the paper's "if no processes are in state x, the token is
    /// dropped".
    fn launch_token(
        &self,
        ctx: &mut Ctx<'_>,
        p: usize,
        idx: usize,
        token_state: usize,
        now: f64,
    ) -> bool {
        let Some(consumer) = ctx.random_alive_in_state(token_state) else {
            return false;
        };
        ctx.pending[p] = Phase::TokenSend { idx: idx as u32 };
        ctx.send(p, consumer, KIND_TOKEN, idx, now);
        true
    }

    /// Resolves one message: continues (or abandons) the sender's chain.
    fn on_delivery(&self, ctx: &mut Ctx<'_>, d: Delivery) {
        let p = d.src as usize;
        let (gen, _idx) = decode(d.payload);
        // Stale generation: the sender crashed (and possibly recovered)
        // since this message left — the chain it belonged to is dead.
        if gen != (ctx.chain_id[p] & GEN_MASK) {
            return;
        }
        let phase = ctx.pending[p];
        if phase == Phase::Idle {
            return;
        }
        // The executor was moved by someone else (push victim, token
        // consumer) while its chain was in flight: the chain belongs to a
        // state the process is no longer in, so it is abandoned.
        if ctx.states[p] != ctx.chain_origin[p] {
            ctx.pending[p] = Phase::Idle;
            return;
        }
        let now = d.deliver_at;
        let dst = d.dst as usize;
        // A contact "hits" when the message arrived, survived the scenario's
        // per-contact loss, and found its target alive. The target's state
        // is read below, at delivery time.
        let contact = d.delivered && !ctx.rng.chance(ctx.contact_fail) && ctx.is_alive(dst);
        match phase {
            Phase::Idle => unreachable!("filtered above"),
            Phase::Sample { idx, req_pos } => {
                let PlanAction::Sample {
                    req_start,
                    req_end,
                    prob,
                    to,
                } = self.plan.actions[idx as usize]
                else {
                    unreachable!("phase points at a Sample action");
                };
                let wanted = self.plan.required[(req_start + req_pos) as usize];
                if contact && ctx.states[dst] == wanted {
                    if req_start + req_pos + 1 < req_end {
                        ctx.pending[p] = Phase::Sample {
                            idx,
                            req_pos: req_pos + 1,
                        };
                        ctx.send_probe(p, KIND_PROBE, idx as usize, now);
                        return;
                    }
                    if ctx.rng.chance(prob) {
                        ctx.move_alive(p, to as usize, self.plan.moves[idx as usize].slot);
                        ctx.pending[p] = Phase::Idle;
                        return;
                    }
                }
                self.advance_chain(ctx, p, idx as usize + 1, now);
            }
            Phase::SampleAny { idx, remaining } => {
                let PlanAction::SampleAny {
                    target, prob, to, ..
                } = self.plan.actions[idx as usize]
                else {
                    unreachable!("phase points at a SampleAny action");
                };
                if contact && ctx.states[dst] == target {
                    // First hit found: one `prob` coin decides the whole
                    // action (fire probability prob·(1−(1−hit)^k), matching
                    // the agent runtime's collapsed form).
                    if ctx.rng.chance(prob) {
                        ctx.move_alive(p, to as usize, self.plan.moves[idx as usize].slot);
                        ctx.pending[p] = Phase::Idle;
                        return;
                    }
                } else if remaining > 1 {
                    ctx.pending[p] = Phase::SampleAny {
                        idx,
                        remaining: remaining - 1,
                    };
                    ctx.send_probe(p, KIND_PROBE, idx as usize, now);
                    return;
                }
                self.advance_chain(ctx, p, idx as usize + 1, now);
            }
            Phase::Push { idx, remaining } => {
                let PlanAction::PushSample {
                    target, prob, to, ..
                } = self.plan.actions[idx as usize]
                else {
                    unreachable!("phase points at a PushSample action");
                };
                // The executor is not a valid victim; a self-addressed
                // probe is a miss (per-probe hit probability avail/N).
                if contact && dst != p && ctx.states[dst] == target && ctx.rng.chance(prob) {
                    ctx.move_alive(dst, to as usize, self.plan.moves[idx as usize].slot);
                }
                if remaining > 1 {
                    ctx.pending[p] = Phase::Push {
                        idx,
                        remaining: remaining - 1,
                    };
                    ctx.send_probe(p, KIND_PUSH, idx as usize, now);
                    return;
                }
                self.advance_chain(ctx, p, idx as usize + 1, now);
            }
            Phase::TokenFire { idx, req_pos } => {
                let PlanAction::Tokenize {
                    req_start,
                    req_end,
                    prob,
                    token_state,
                    ..
                } = self.plan.actions[idx as usize]
                else {
                    unreachable!("phase points at a Tokenize action");
                };
                if contact && ctx.states[dst] == self.plan.required[(req_start + req_pos) as usize]
                {
                    if req_start + req_pos + 1 < req_end {
                        ctx.pending[p] = Phase::TokenFire {
                            idx,
                            req_pos: req_pos + 1,
                        };
                        ctx.send_probe(p, KIND_PROBE, idx as usize, now);
                        return;
                    }
                    if ctx.rng.chance(prob)
                        && self.launch_token(ctx, p, idx as usize, token_state as usize, now)
                    {
                        return;
                    }
                }
                self.advance_chain(ctx, p, idx as usize + 1, now);
            }
            Phase::TokenSend { idx } => {
                let PlanAction::Tokenize {
                    token_state, to, ..
                } = self.plan.actions[idx as usize]
                else {
                    unreachable!("phase points at a Tokenize action");
                };
                // The consumer moves if the token arrived and it still is in
                // the token state; either way the executor's list continues
                // (Tokenize never moves the executor).
                if contact && ctx.states[dst] == token_state {
                    ctx.move_alive(dst, to as usize, self.plan.moves[idx as usize].slot);
                }
                self.advance_chain(ctx, p, idx as usize + 1, now);
            }
        }
    }
}

impl Runtime for AsyncRuntime {
    type State = AsyncState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        AsyncRuntime {
            plan: ProtocolPlan::new(protocol),
            config: config.clone(),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.plan.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<AsyncState> {
        self.plan.protocol().validate()?;
        Needs::of(scenario).check(super::ASYNC)?;
        let n = scenario.group_size();
        let num_states = self.plan.num_states();
        let counts = initial.resolve(num_states, n as u64)?;
        let transport_config = scenario
            .transport()
            .cloned()
            .unwrap_or_else(TransportConfig::default);
        if transport_config.segments() > n {
            return Err(CoreError::InvalidConfig {
                name: "transport",
                reason: format!(
                    "{} transport segments cannot partition a group of {n} processes",
                    transport_config.segments()
                ),
            });
        }
        let mut rng = scenario.build_rng();
        let group = scenario.build_group();

        // Contiguous block assignment (see the module docs): deterministic
        // placement for segmented transports, exchangeable under mixing.
        let mut states = Vec::with_capacity(n);
        for (state, &count) in counts.iter().enumerate() {
            states.extend(std::iter::repeat(state as u32).take(count as usize));
        }
        let mut counts_alive = vec![0u64; num_states];
        for (p, &s) in states.iter().enumerate() {
            if group.is_alive_unchecked(p) {
                counts_alive[s as usize] += 1;
            }
        }

        let period_secs = netsim::PERIOD_SECS;
        let offsets: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, period_secs)).collect();
        let mut wake_order: Vec<u32> = (0..n as u32).collect();
        wake_order.sort_by(|&a, &b| {
            offsets[a as usize]
                .total_cmp(&offsets[b as usize])
                .then(a.cmp(&b))
        });
        let flip_skips = self.plan.seed_flip_skips(&mut rng);

        Ok(AsyncState {
            book: Book {
                states,
                counts,
                counts_alive,
                pending: vec![Phase::Idle; n],
                chain_id: vec![0; n],
                transport: RunTransport::build(transport_config, n)?,
                restores: Vec::new(),
            },
            rng,
            group,
            offsets,
            wake_order,
            chain_origin: vec![0; n],
            flip_skips,
            period: 0,
            period_secs,
            env: Environment::new(scenario, scenario.seed(), &self.config),
            contact_fail: scenario.loss().effective_contact_failure(1),
            messages: 0,
            tallies: vec![0; self.plan.edges.len()],
            transitions: Vec::new(),
            probe: TransportProbe::default(),
        })
    }

    fn step<'s>(&self, state: &'s mut AsyncState) -> Result<PeriodEvents<'s>> {
        let period = state.period;
        let t0 = period as f64 * state.period_secs;
        let t1 = t0 + state.period_secs;
        let n = state.book.states.len();
        state.tallies.fill(0);
        state.messages = 0;

        // 1. The environment at the period boundary, after the supervised
        //    worker restarts that have come due (so a restored segment takes
        //    part in this period's events). A crash kills the process's chain
        //    and bumps its generation so in-flight responses are discarded on
        //    arrival; the adversary's view carries the live transport gauges.
        state.book.restore_due(&mut state.group, period)?;
        let (group, rng, book) = (&mut state.group, &mut state.rng, &mut state.book);
        state
            .env
            .boundary(period, &mut Processes { group, rng, book })?;

        // 2. The event loop: interleave process wakes and message
        //    deliveries in virtual-time order (messages first on ties, in
        //    deterministic sequence order). Messages resolving at or after
        //    t1 stay queued for later periods — that carry-over is the
        //    latency semantics.
        let check_alive = !state.group.all_alive();
        let AsyncState {
            ref mut rng,
            ref group,
            ref mut book,
            ref offsets,
            ref wake_order,
            ref mut chain_origin,
            ref mut flip_skips,
            ref mut tallies,
            ref mut messages,
            contact_fail,
            ..
        } = *state;
        let mut ctx = Ctx {
            rng,
            transport: &mut book.transport,
            group,
            states: &mut book.states,
            counts: &mut book.counts,
            counts_alive: &mut book.counts_alive,
            pending: &mut book.pending,
            chain_id: &book.chain_id,
            chain_origin,
            flip_skips,
            tallies,
            messages,
            n,
            contact_fail,
            check_alive,
            period,
        };
        let mut wake_ptr = 0usize;
        loop {
            let next_wake = wake_order.get(wake_ptr).map(|&p| t0 + offsets[p as usize]);
            let next_msg = ctx.transport.next_time().filter(|&t| t < t1);
            let deliver_first = match (next_msg, next_wake) {
                (Some(m), Some(w)) => m <= w,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if deliver_first {
                let d = ctx.transport.next_ready(t1).expect("peeked above");
                self.on_delivery(&mut ctx, d);
            } else {
                let p = wake_order[wake_ptr] as usize;
                wake_ptr += 1;
                // A busy chain (waiting on a slow response) or a crashed
                // process skips this period's attempt.
                if ctx.pending[p] == Phase::Idle && ctx.is_alive(p) {
                    ctx.chain_origin[p] = ctx.states[p];
                    let start = self.plan.spans[ctx.states[p] as usize].start;
                    self.advance_chain(&mut ctx, p, start as usize, t0 + offsets[p]);
                }
            }
        }

        // 3. Render transitions and snapshot the transport.
        self.plan
            .render_transitions(&state.tallies, 1, &mut state.transitions);
        let stats = state.book.transport.stats();
        state.probe = TransportProbe {
            queue_depth: state.book.transport.queue_depth() as u64,
            sent: stats.sent(),
            delivered: stats.delivered(),
            dropped: stats.dropped(),
            recent_latency_mean: stats.recent_latency_mean(),
        };
        state.period = period + 1;
        Ok(self.events(state))
    }

    fn snapshot<'s>(&self, state: &'s AsyncState) -> PeriodEvents<'s> {
        self.events(state)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AgentRuntime, BatchedRuntime, CountsRecorder};
    use super::*;
    use crate::fixtures::epidemic_protocol;
    use netsim::transport::{LatencyModel, LinkModel};
    use netsim::Topology;

    #[test]
    fn epidemic_saturates_on_the_default_reliable_transport() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(4096, 40).unwrap().with_seed(11);
        let result = AsyncRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[4095, 1]))
            .unwrap();
        for (_, s) in result.counts.iter() {
            assert_eq!(s[0] + s[1], 4096.0, "conservation violated");
        }
        let final_counts = result.final_counts().unwrap();
        assert!(
            final_counts[1] > 4000.0,
            "epidemic stalled at {final_counts:?}"
        );
        // Messages were actually sent (one per probe, not a budget).
        assert!(result
            .metrics
            .series("messages")
            .unwrap()
            .iter()
            .any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let protocol = epidemic_protocol();
        let link = LinkModel::new(LatencyModel::Exponential { mean: 90.0 }, 0.02).unwrap();
        let initial = InitialStates::counts(&[999, 1]);
        let run = |seed: u64| {
            let scenario = Scenario::new(1000, 25)
                .unwrap()
                .with_seed(seed)
                .with_transport(TransportConfig::new(link))
                .unwrap();
            AsyncRuntime::new(epidemic_protocol())
                .run(&scenario, &initial)
                .unwrap()
                .counts
                .states()
                .to_vec()
        };
        drop(protocol);
        assert_eq!(run(5), run(5), "same seed must replay bit-identically");
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn latency_delays_the_takeoff() {
        // A mean latency of two periods stretches every chain across
        // multiple wake slots, so the epidemic needs strictly more periods
        // to reach the halfway mark than on the instantaneous transport.
        let first_half_period = |transport: Option<TransportConfig>| {
            let mut scenario = Scenario::new(2000, 120).unwrap().with_seed(21);
            if let Some(t) = transport {
                scenario = scenario.with_transport(t).unwrap();
            }
            let result = AsyncRuntime::new(epidemic_protocol())
                .run(&scenario, &InitialStates::counts(&[1999, 1]))
                .unwrap();
            let y = result.state_series("y").unwrap();
            y.iter()
                .position(|&v| v > 1000.0)
                .expect("epidemic reached half")
        };
        let instant = first_half_period(None);
        let slow_link = LinkModel::new(LatencyModel::Exponential { mean: 720.0 }, 0.0).unwrap();
        let slow = first_half_period(Some(TransportConfig::new(slow_link)));
        assert!(
            slow > instant + 3,
            "latency should delay takeoff: instant={instant}, slow={slow}"
        );
    }

    #[test]
    fn partitioned_link_blocks_infection() {
        // Two contiguous segments of 100 processes; the 10 seeds sit at the
        // tail indices (block assignment), i.e. entirely inside segment 1.
        // With the inter-segment link partitioned for the whole run, no
        // message crosses and segment 0 stays uninfected.
        let protocol = epidemic_protocol();
        let transport = TransportConfig::default()
            .with_segments(2)
            .unwrap()
            .with_partition(0, 1, 0, 1_000)
            .unwrap();
        let scenario = Scenario::new(200, 60)
            .unwrap()
            .with_seed(9)
            .with_transport(transport)
            .unwrap();
        let runtime = AsyncRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[190, 10]))
            .unwrap();
        for _ in 0..scenario.periods() {
            runtime.step(&mut state).unwrap();
        }
        let states = state.process_states();
        assert!(
            states[..100].iter().all(|&s| s == 0),
            "partition leaked: segment 0 got infected"
        );
        assert!(
            states[100..].iter().all(|&s| s == 1),
            "segment 1 should fully saturate among its own 100 processes"
        );
        // The cross-segment probes were sent and timed out as drops.
        let stats = state.transport_stats();
        assert!(
            stats.dropped() > 0,
            "cross-partition sends should be dropped"
        );
        assert_eq!(
            stats.sent(),
            stats.delivered() + stats.dropped() + stats.in_flight()
        );
    }

    #[test]
    fn transport_probe_streams_through_period_events() {
        let protocol = epidemic_protocol();
        let link = LinkModel::new(LatencyModel::Constant(30.0), 0.1).unwrap();
        let scenario = Scenario::new(300, 10)
            .unwrap()
            .with_seed(2)
            .with_transport(TransportConfig::new(link))
            .unwrap();
        let runtime = AsyncRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[299, 1]))
            .unwrap();
        let mut last_sent = 0;
        for _ in 0..scenario.periods() {
            let ev = runtime.step(&mut state).unwrap();
            let probe = ev.transport.expect("async runtime always reports a probe");
            assert!(probe.sent >= last_sent, "sent counter is cumulative");
            assert_eq!(
                probe.sent,
                probe.delivered + probe.dropped + probe.queue_depth,
                "every sent message is delivered, dropped, or in flight"
            );
            last_sent = probe.sent;
        }
        assert!(last_sent > 0);
        assert!(
            state.transport_stats().dropped() > 0,
            "10% drops must show up"
        );
    }

    #[test]
    fn sharded_scenarios_are_rejected() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(1000, 5)
            .unwrap()
            .with_topology(Topology::sharded(4, 0.01).unwrap());
        let err = AsyncRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[999, 1]))
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn period_synchronized_runtimes_reject_transport_scenarios() {
        let scenario = Scenario::new(100, 5)
            .unwrap()
            .with_transport(TransportConfig::default())
            .unwrap();
        let initial = InitialStates::counts(&[99, 1]);
        let agent_err = AgentRuntime::new(epidemic_protocol())
            .run(&scenario, &initial)
            .unwrap_err();
        assert!(agent_err.to_string().contains("AsyncRuntime"));
        let batched_err = BatchedRuntime::new(epidemic_protocol())
            .run(&scenario, &initial)
            .unwrap_err();
        assert!(matches!(batched_err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn crashes_kill_chains_and_recoveries_rejoin() {
        // With every process crashed at period 0, nothing ever transitions
        // even though probes may still be in flight.
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(50, 10)
            .unwrap()
            .with_massive_failure(0, 1.0)
            .unwrap()
            .with_seed(3);
        let result = AsyncRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[49, 1]))
            .unwrap();
        assert_eq!(result.final_counts(), Some(&[49.0, 1.0][..]));
        assert_eq!(result.total_transitions("x", "y"), 0.0);
    }

    #[test]
    fn zero_latency_matches_the_agent_runtime_in_ensemble_mean() {
        // A pointwise pin lives in tests/property.rs; this is a fast smoke
        // version — mean final infections over a few seeds must land within
        // the batched-agreement envelope used across the runtime tests.
        let n = 20_000u64;
        let mean_final = |agent: bool| {
            let mut total = 0.0;
            for seed in 300..308u64 {
                let scenario = Scenario::new(n as usize, 12).unwrap().with_seed(seed);
                let initial = InitialStates::counts(&[n - 20, 20]);
                let result = if agent {
                    AgentRuntime::new(epidemic_protocol())
                        .run(&scenario, &initial)
                        .unwrap()
                } else {
                    AsyncRuntime::new(epidemic_protocol())
                        .run(&scenario, &initial)
                        .unwrap()
                };
                total += result.final_counts().unwrap()[1];
            }
            total / 8.0
        };
        let agent = mean_final(true);
        let asynchronous = mean_final(false);
        let tolerance = n as f64 * 0.15;
        assert!(
            (agent - asynchronous).abs() < tolerance,
            "agent mean {agent} vs async mean {asynchronous} exceeds {tolerance}"
        );
    }

    #[test]
    fn segments_cannot_exceed_group_size() {
        let protocol = epidemic_protocol();
        let transport = TransportConfig::default().with_segments(64).unwrap();
        let scenario = Scenario::new(10, 5)
            .unwrap()
            .with_transport(transport)
            .unwrap();
        let err = AsyncRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[9, 1]))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidConfig {
                name: "transport",
                ..
            }
        ));
    }

    #[test]
    fn kill_worker_parks_the_segment_and_supervision_restores_it() {
        // Four segments of 50 processes; the seeds sit in segment 3 (block
        // assignment). The adversary kills segment 3's worker at period 4
        // and supervision restarts it from the period-boundary checkpoint
        // three periods later. On the in-process backend the kill is purely
        // logical, which makes this path exactly reproducible in CI.
        let transport = TransportConfig::default()
            .with_segments(4)
            .unwrap()
            .with_supervision(3);
        let run = |kill: bool| {
            let mut scenario = Scenario::new(200, 30)
                .unwrap()
                .with_seed(17)
                .with_transport(transport.clone())
                .unwrap();
            if kill {
                scenario = scenario.with_adversary(
                    netsim::adversary::ObliviousSchedule::new()
                        .kill_worker_at(4, 3)
                        .unwrap(),
                );
            }
            let runtime = AsyncRuntime::new(epidemic_protocol());
            let mut state = runtime
                .init(&scenario, &InitialStates::counts(&[190, 10]))
                .unwrap();
            let mut alive = Vec::new();
            for _ in 0..30 {
                let ev = runtime.step(&mut state).unwrap();
                alive.push(ev.alive);
                let ev_counts: f64 = ev.counts.iter().map(|&c| c as f64).sum();
                assert_eq!(ev_counts, 200.0, "conservation violated");
            }
            (alive, state.process_states().to_vec())
        };
        let (alive, states) = run(true);
        assert_eq!(alive[3], 200, "pre-strike population intact");
        assert_eq!(
            &alive[4..7],
            &[150, 150, 150],
            "segment parked for 3 periods"
        );
        assert_eq!(alive[7], 200, "supervised restart restored the segment");
        // The checkpoint/restart path replays bit-identically per seed…
        let (alive2, states2) = run(true);
        assert_eq!(alive, alive2);
        assert_eq!(states, states2);
        // …and actually perturbed the run relative to the unharmed one.
        let (alive0, _) = run(false);
        assert_eq!(alive0, vec![200u64; 30]);
        assert_ne!(alive, alive0);
    }

    #[test]
    fn run_auto_selects_async_for_transport_scenarios() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(500, 10)
            .unwrap()
            .with_seed(1)
            .with_transport(TransportConfig::default())
            .unwrap();
        let result = super::super::Simulation::of(protocol)
            .scenario(scenario)
            .initial(InitialStates::counts(&[499, 1]))
            .observe(CountsRecorder::new())
            .run_auto()
            .unwrap();
        let final_counts = result.final_counts().unwrap();
        assert_eq!(final_counts[0] + final_counts[1], 500.0);
        assert!(
            final_counts[1] > 1.0,
            "run_auto's async run should make progress"
        );
    }
}
