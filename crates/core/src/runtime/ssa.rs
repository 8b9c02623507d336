//! The exact continuous-time stochastic protocol runtime (Gillespie SSA).
//!
//! The period-synchronized runtimes evaluate every firing probability
//! against **start-of-period** populations: within one period the dynamics
//! cannot compound, which is exactly the approximation the paper's analysis
//! makes and which grows visible as per-period rates grow (see the
//! `exp_ssa_burst` experiment). This runtime removes that approximation by
//! executing the protocol in **continuous virtual time**: every reaction
//! fires individually at an exponentially distributed instant, and the
//! populations every propensity sees are the populations *at that instant*.
//!
//! # The hazard embedding
//!
//! A synchronized action with per-period firing probability `q` is embedded
//! as a Poisson process with hazard `h(q) = −ln(1 − q)` per period (rate
//! `h(q) / period_secs` per second of virtual time): over one period with a
//! *frozen* environment the probability of at least one firing is
//! `1 − e^{−h(q)} = q`, so single-period marginals match the synchronized
//! tiers exactly. Where the tiers differ is precisely where they should:
//! competing actions race in continuous time (replacing the synchronized
//! tiers' survival accounting with competing risks — the shared
//! continuous-time limit both converge to as `q → 0`), and populations
//! update between events, so fast dynamics compound within a period.
//!
//! # Channels
//!
//! Each action of the runtime's compiled plan is one reaction channel, in
//! the plan's state-then-action order, with propensity `a` (per second) and
//! a one-process effect along the action's plan edge, evaluated against the
//! current alive counts `x` over the maximal group of `n` processes:
//!
//! * **self-moving actions** (`Flip`, `Sample`, `SampleAny`):
//!   `a = x[s] · h(fire_probability) / T`, moving one process `s → to`;
//! * **`PushSample`**: each of the `x[s] · samples` per-period draws
//!   converts a target with probability `per_draw`, so
//!   `a = x[s] · samples · h(per_draw) / T`, moving one process
//!   `target → to` (self-gating: `h(0) = 0` when the target pool is empty);
//! * **`Tokenize`**: `a = x[s] · h(q) / T` gated on a non-empty token pool,
//!   moving one token `token_state → to`.
//!
//! The counts enter a propensity only as executor pools `x[s]` and through
//! the window's fraction row `x[s] / n`: the boundary fills the row, and an
//! event refreshes only the two entries it moves, so no channel divides. The
//! row stores the raw quotient, so every propensity is bit for bit the one a
//! division per channel gave.
//!
//! # Scheduling
//!
//! Events are scheduled with Anderson's *modified next-reaction method*:
//! each channel keeps an internal clock `T_c` (integrated propensity) and a
//! unit-exponential threshold `P_c`; the next event is the channel
//! minimizing `(P_c − T_c) / a_c`, and only the firing channel consumes one
//! `Exp(1)` draw to refill its threshold. This keeps the run deterministic
//! per seed (a single PRNG stream, fixed channel order) and consumes no
//! randomness for events that do not fire.
//!
//! # Period boundaries
//!
//! The event clock runs *between* period boundaries. At each boundary the
//! runtime applies the environment (scheduled failures, the crash/recovery
//! model, adversary injections) to its count state exactly as the batched
//! tier does — the identical hypergeometric/binomial draws, in the
//! identical order, so injection times land on the period clock by
//! construction — and reports
//! boundary counts. The trajectory is piecewise-constant between events, so
//! boundary counts are the *exact* interpolation of the continuous-time
//! path at the boundary instant: recorders binning by period see the same
//! figure bins as every other tier. Message tallies reuse the synchronized
//! tiers' expected-message accounting at start-of-period counts (messages
//! are an accounting fiction at count level, not queued deliveries).
//!
//! Cost is `O(events)` per period — proportional to `N` times the mean
//! per-period rate, *not* independent of `N` like the batched tier. Use it
//! when exactness is the point ([`ErrorBudget::Exact`](super::ErrorBudget)),
//! or [`TauLeapRuntime`](super::TauLeapRuntime) for a bounded-error middle
//! ground.

use super::batched::{BatchedRuntime, BatchedState};
use super::plan::ProtocolPlan;
use super::{InitialStates, PeriodEvents, RunConfig, Runtime};
use crate::state_machine::Protocol;
use crate::Result;
use netsim::Scenario;

/// Executes a protocol as an exact continuous-time jump process (Gillespie's
/// stochastic simulation algorithm in next-reaction form) — every reaction
/// fires individually at an exponentially distributed virtual time.
///
/// See the module-level documentation for the embedding and its relation to the
/// period-synchronized tiers.
///
/// # Examples
///
/// ```
/// use dpde_core::{ProtocolCompiler, runtime::{InitialStates, Runtime, SsaRuntime}};
/// use netsim::Scenario;
/// use odekit::parse::parse_system;
///
/// let sys = parse_system("x' = -x*y\ny' = x*y", &[])?;
/// let protocol = ProtocolCompiler::new("epidemic").compile(&sys)?;
/// let scenario = Scenario::new(500, 60)?.with_seed(7);
/// let result = SsaRuntime::new(protocol)
///     .run(&scenario, &InitialStates::counts(&[499, 1]))?;
/// assert!(result.final_counts().expect("counts recorded")[1] > 400.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SsaRuntime {
    batched: BatchedRuntime,
}

/// The mutable execution state of an [`SsaRuntime`] run: the event window
/// both continuous-time tiers share, plus the per-channel next-reaction
/// bookkeeping (one channel per plan action).
#[derive(Debug, Clone)]
pub struct SsaState {
    window: Window,
    /// Internal clocks `T_c`: integrated propensity per channel.
    clocks: Vec<f64>,
    /// Unit-exponential thresholds `P_c`: each channel fires when its
    /// internal clock reaches its threshold.
    thresholds: Vec<f64>,
    /// Scratch: propensities of the current event iteration.
    propensities: Vec<f64>,
}

/// What both continuous-time tiers carry from one period boundary to the
/// next is a batched state: the environment acts on its counts at each
/// boundary, and between boundaries the event clock moves its alive counts
/// and tallies its plan edges.
pub(super) type Window = BatchedState;

// The per-period helpers are forced inline: a period without events costs a
// few tens of nanoseconds, so a call boundary around each would show.
impl Window {
    /// Applies the environment at this boundary — the identical count-level
    /// draws as the batched tier, in the identical order — and opens the
    /// next period's event clock over the alive counts and their fraction
    /// row. Message tallies reuse the synchronized tiers' expected-message
    /// accounting at these start-of-period counts.
    #[inline(always)]
    pub(super) fn open(&mut self, batched: &BatchedRuntime) -> Result<()> {
        self.tallies.fill(0);
        self.boundary()?;
        for (frac, &k) in self.frac.iter_mut().zip(&self.counts_alive) {
            *frac = k as f64 / self.n_f;
        }
        let messages =
            (batched.plan()).expected_messages(&self.counts_alive, &self.frac, self.contact_ok);
        self.messages = messages.round() as u64;
        Ok(())
    }

    /// Fills `out` with every channel's propensity (events per second of
    /// virtual time) against the alive counts, and returns their sum.
    #[inline(always)]
    pub(super) fn propensities(&self, plan: &ProtocolPlan, out: &mut [f64]) -> f64 {
        let x = &self.counts_alive;
        let mut total = 0.0;
        for ((c, m), out) in plan.moves.iter().enumerate().zip(out) {
            let k = x[m.state as usize] as f64;
            *out = if k == 0.0 {
                0.0
            } else {
                plan.hazard_rate(c, k, &self.frac, self.contact_ok) / netsim::PERIOD_SECS
            };
            total += *out;
        }
        total
    }

    /// Applies `k` firings of channel `c`: moves `k` processes along its
    /// plan edge, refreshes the two fractions that moved and tallies the
    /// edge. The caller guarantees the pool holds them (an SSA event has a
    /// positive propensity; a leap is capped).
    pub(super) fn fire(&mut self, plan: &ProtocolPlan, c: usize, k: u64) {
        let m = plan.moves[c];
        let (from, to) = (m.from as usize, m.to as usize);
        let x = &mut self.counts_alive;
        debug_assert!(x[from] >= k, "firing channel with an empty pool");
        x[from] -= k;
        x[to] += k;
        self.frac[from] = x[from] as f64 / self.n_f;
        self.frac[to] = x[to] as f64 / self.n_f;
        self.tallies[m.slot as usize] += k;
    }

    /// Refreshes the totals the event clock left behind, advances the period
    /// and renders the period's transitions.
    #[inline(always)]
    pub(super) fn close(&mut self, plan: &ProtocolPlan) {
        let alive = self.counts_alive.iter().zip(&self.counts_crashed);
        for (count, (alive, crashed)) in self.counts.iter_mut().zip(alive) {
            *count = alive + crashed;
        }
        self.alive_n = self.counts_alive.iter().sum();
        debug_assert_eq!(
            self.counts.iter().sum::<u64>() as f64,
            self.n_f,
            "a continuous-time period must conserve the population"
        );
        self.period += 1;
        plan.render_transitions(&self.tallies, 1, &mut self.transitions);
    }

    /// The events view of the window at its current boundary, stamped with
    /// its virtual time.
    #[inline(always)]
    pub(super) fn events(&self, batched: &BatchedRuntime) -> PeriodEvents<'_> {
        let virtual_time = Some(self.period as f64 * netsim::PERIOD_SECS);
        PeriodEvents {
            virtual_time,
            ..batched.events(self)
        }
    }
}

impl Runtime for SsaRuntime {
    type State = SsaState;

    fn build(protocol: Protocol, config: &RunConfig) -> Self {
        SsaRuntime {
            batched: BatchedRuntime::build(protocol, config),
        }
    }

    fn protocol(&self) -> &Protocol {
        self.batched.protocol()
    }

    fn init(&self, scenario: &Scenario, initial: &InitialStates) -> Result<SsaState> {
        let mut window = self.batched.start(scenario, initial, super::SSA)?;
        // One Exp(1) threshold per channel, drawn in channel order from the
        // run's single PRNG stream.
        let channels = self.batched.plan().actions.len();
        let thresholds: Vec<f64> = (0..channels).map(|_| window.rng.exponential(1.0)).collect();
        Ok(SsaState {
            window,
            clocks: vec![0.0; channels],
            propensities: vec![0.0; channels],
            thresholds,
        })
    }

    fn step<'s>(&self, state: &'s mut SsaState) -> Result<PeriodEvents<'s>> {
        let plan = self.batched.plan();
        state.window.open(&self.batched)?;
        let period_secs = netsim::PERIOD_SECS;

        // The event clock, from this boundary to the next.
        let mut t = 0.0f64;
        loop {
            let total = (state.window).propensities(plan, &mut state.propensities);
            if total <= 0.0 {
                // Absorbing configuration: no internal time accrues.
                break;
            }
            // Next reaction: the channel whose threshold is reached first.
            let mut best = f64::INFINITY;
            let mut winner = usize::MAX;
            for c in 0..state.propensities.len() {
                let a = state.propensities[c];
                if a <= 0.0 {
                    continue;
                }
                let wait = ((state.thresholds[c] - state.clocks[c]) / a).max(0.0);
                if wait < best {
                    best = wait;
                    winner = c;
                }
            }
            if winner == usize::MAX || t + best >= period_secs {
                // Advance every internal clock to the boundary and stop.
                let dt = period_secs - t;
                for c in 0..state.propensities.len() {
                    state.clocks[c] += state.propensities[c] * dt;
                }
                break;
            }
            t += best;
            for c in 0..state.propensities.len() {
                state.clocks[c] += state.propensities[c] * best;
            }
            state.window.fire(plan, winner, 1);
            // Only the firing channel consumes randomness.
            state.thresholds[winner] += state.window.rng.exponential(1.0);
        }

        state.window.close(plan);
        Ok(state.window.events(&self.batched))
    }

    fn snapshot<'s>(&self, state: &'s SsaState) -> PeriodEvents<'s> {
        state.window.events(&self.batched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::fixtures::epidemic_protocol;
    use crate::mapping::ProtocolCompiler;
    use crate::runtime::{CountsRecorder, Observer, RunResult, Simulation};
    use crate::state_machine::StateId;
    use odekit::system::EquationSystemBuilder;

    fn decay_protocol() -> Protocol {
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1)])
            .term("y", 1.0, &[("x", 1)])
            .build()
            .unwrap();
        // A non-trivial per-period probability (q = 0.3): with the default
        // constant the Flip would fire with q = 1, a degenerate marginal.
        ProtocolCompiler::new("decay")
            .with_normalizing_constant(0.3)
            .compile(&sys)
            .unwrap()
    }

    #[test]
    fn epidemic_saturates_and_conserves_counts() {
        let protocol = epidemic_protocol();
        let scenario = Scenario::new(500, 120).unwrap().with_seed(11);
        let runtime = SsaRuntime::new(protocol);
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[495, 5]))
            .unwrap();
        for _ in 0..scenario.periods() {
            let events = runtime.step(&mut state).unwrap();
            assert_eq!(events.counts.iter().sum::<u64>(), 500);
            assert_eq!(events.alive, 500);
        }
        let events = runtime.snapshot(&state);
        assert!(
            events.counts[1] > 450,
            "epidemic should saturate, got {:?}",
            events.counts
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let scenario = Scenario::new(300, 60).unwrap().with_seed(99);
        let initial = InitialStates::counts(&[295, 5]);
        let run = || {
            SsaRuntime::new(epidemic_protocol())
                .run(&scenario, &initial)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.state_series("y").unwrap(), b.state_series("y").unwrap());
        assert_eq!(
            a.metrics.series("messages").unwrap(),
            b.metrics.series("messages").unwrap()
        );
        // A different seed produces a different path.
        let c = SsaRuntime::new(epidemic_protocol())
            .run(&scenario.clone().with_seed(100), &initial)
            .unwrap();
        assert_ne!(a.state_series("y").unwrap(), c.state_series("y").unwrap());
    }

    #[test]
    fn single_period_flip_marginal_is_exact() {
        // A Flip with per-period probability q embeds as hazard −ln(1−q):
        // over one period the per-process firing probability is exactly q,
        // so the one-period mean matches the synchronized tiers' binomial.
        let protocol = decay_protocol();
        let q = match protocol.actions(StateId::new(0))[0] {
            Action::Flip { prob, .. } => prob,
            ref other => panic!("expected Flip, got {other:?}"),
        };
        let n = 40_000u64;
        let scenario = Scenario::new(n as usize, 1).unwrap().with_seed(5);
        let result = SsaRuntime::new(protocol)
            .run(&scenario, &InitialStates::counts(&[n, 0]))
            .unwrap();
        let moved = result.final_counts().unwrap()[1];
        let expected = q * n as f64;
        let sd = (n as f64 * q * (1.0 - q)).sqrt();
        assert!(
            (moved - expected).abs() < 5.0 * sd,
            "moved {moved}, expected {expected:.0} ± {sd:.1}"
        );
    }

    #[test]
    fn virtual_time_lands_on_period_boundaries() {
        struct TimeProbe(Vec<f64>);
        impl Observer for TimeProbe {
            fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
                self.0.push(events.virtual_time.expect("continuous tier"));
            }
            fn finish(&mut self, _result: &mut RunResult) {}
        }
        let scenario = Scenario::new(100, 3).unwrap().with_seed(1);
        let runtime = SsaRuntime::new(epidemic_protocol());
        let mut state = runtime
            .init(&scenario, &InitialStates::counts(&[99, 1]))
            .unwrap();
        let mut probe = TimeProbe(Vec::new());
        probe.on_period(runtime.protocol(), &runtime.snapshot(&state));
        for _ in 0..3 {
            probe.on_period(runtime.protocol(), &runtime.step(&mut state).unwrap());
        }
        let secs = netsim::PERIOD_SECS;
        assert_eq!(probe.0, vec![0.0, secs, 2.0 * secs, 3.0 * secs]);
    }

    #[test]
    fn boundary_failures_apply_like_batched() {
        let scenario = Scenario::new(1_000, 30)
            .unwrap()
            .with_massive_failure(10, 0.5)
            .unwrap()
            .with_seed(3);
        let result = SsaRuntime::new(epidemic_protocol())
            .run(&scenario, &InitialStates::counts(&[999, 1]))
            .unwrap();
        let alive = result.metrics.series("alive").unwrap();
        assert_eq!(alive.last().unwrap().1, 500.0);
    }

    #[test]
    fn rejects_incompatible_scenarios() {
        let runtime = SsaRuntime::new(epidemic_protocol());
        let initial = InitialStates::counts(&[99, 1]);
        let sharded = Scenario::new(100, 10)
            .unwrap()
            .with_topology(netsim::Topology::sharded(4, 0.05).unwrap());
        assert!(runtime.init(&sharded, &initial).is_err());
        let transported = Scenario::new(100, 10)
            .unwrap()
            .with_transport(netsim::TransportConfig::default())
            .unwrap();
        assert!(runtime.init(&transported, &initial).is_err());
        let mut schedule = netsim::FailureSchedule::new();
        schedule.add(5, netsim::FailureEvent::Crash(netsim::ProcessId(3)));
        let per_id = Scenario::new(100, 10)
            .unwrap()
            .with_failure_schedule(schedule)
            .unwrap();
        assert!(runtime.init(&per_id, &initial).is_err());
    }

    #[test]
    fn sample_epidemic_tracks_batched_closely_at_slow_rates() {
        // With a small normalizing constant the per-period rates are slow,
        // so the synchronized and continuous-time dynamics agree (the
        // within-period compounding gap is O(q²) per period): one seeded SSA
        // path stays close to the batched path all the way through takeoff.
        let sys = EquationSystemBuilder::new()
            .vars(["x", "y"])
            .term("x", -1.0, &[("x", 1), ("y", 1)])
            .term("y", 1.0, &[("x", 1), ("y", 1)])
            .build()
            .unwrap();
        let protocol = ProtocolCompiler::new("epidemic")
            .with_normalizing_constant(0.05)
            .compile(&sys)
            .unwrap();
        let n = 10_000u64;
        let scenario = Scenario::new(n as usize, 250).unwrap().with_seed(21);
        let initial = InitialStates::counts(&[n - 100, 100]);
        let ssa = SsaRuntime::new(protocol.clone())
            .run(&scenario, &initial)
            .unwrap();
        let batched = BatchedRuntime::new(protocol)
            .run(&scenario, &initial)
            .unwrap();
        let (ya, yb) = (
            ssa.state_series("y").unwrap(),
            batched.state_series("y").unwrap(),
        );
        let max_gap = ya
            .iter()
            .zip(&yb)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Single paths, so allow generous noise — but they must share the
        // same takeoff (a compounding bug would shift it by many periods).
        assert!(max_gap < 0.15 * n as f64, "max gap {max_gap}");
    }

    #[test]
    fn observer_plumbing_matches_other_tiers() {
        let scenario = Scenario::new(200, 20).unwrap().with_seed(2);
        let result = Simulation::of(epidemic_protocol())
            .scenario(scenario)
            .initial(InitialStates::counts(&[199, 1]))
            .observe(CountsRecorder::new())
            .run::<SsaRuntime>()
            .unwrap();
        assert_eq!(result.counts.len(), 21);
        let total: f64 = result.final_counts().unwrap().iter().sum();
        assert_eq!(total, 200.0);
    }
}
