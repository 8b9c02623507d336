//! Composable run observers: opt-in recording of simulation output.
//!
//! A [`Runtime`](super::Runtime) produces a stream of [`PeriodEvents`]; an
//! [`Observer`] consumes that stream and folds whatever it recorded into the
//! final [`RunResult`]. Recording is therefore pay-for-what-you-use: a run
//! with no [`MembershipTracker`] never materializes membership snapshots, and
//! a run with no [`CountsRecorder`] never allocates a trajectory.
//!
//! The built-in observers reproduce everything the runtimes used to record
//! unconditionally:
//!
//! | Observer | Fills | Replaces |
//! |---|---|---|
//! | [`CountsRecorder`] | `RunResult::counts` | always-on counts (`count_alive_only` knob) |
//! | [`TransitionRecorder`] | `RunResult::transitions` | always-on transition series |
//! | [`MembershipTracker`] | `RunResult::tracked_members` | `RunConfig::track_members_of` |
//! | [`AliveTracker`] | `metrics["alive"]` | always-on alive series |
//! | [`MessageCounter`] | `metrics["messages"]` | always-on message counting |

use super::{edge_name, MembershipView, RunResult};
use crate::state_machine::{Protocol, StateId};
use netsim::adversary::{Injection, InjectionRecord};
use netsim::MetricsRecorder;
use odekit::integrate::Trajectory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything that happened in (or up to) one protocol period, borrowed from
/// the runtime's execution state.
///
/// `period` is the *snapshot index*: `0` is the initial configuration, and
/// the events returned by the `p`-th `step` carry `period == p + 1` — the
/// `counts` are the end-of-period populations, while `transitions` and
/// `messages` describe what happened *during* the period that just executed
/// (i.e. between snapshots `period - 1` and `period`).
#[derive(Debug, Clone, Copy)]
pub struct PeriodEvents<'a> {
    /// Snapshot index (0 = initial configuration, before any period ran).
    pub period: u64,
    /// Per-state process counts at this snapshot (every process, regardless
    /// of liveness; use [`membership`](Self::membership) for alive-only
    /// counts where host identity exists).
    pub counts: &'a [u64],
    /// `(from, to, count)` for every transition edge that fired during the
    /// period leading up to this snapshot (empty at period 0).
    pub transitions: &'a [(StateId, StateId, u64)],
    /// Sampling messages sent during the period leading up to this snapshot.
    pub messages: u64,
    /// Number of alive processes at this snapshot.
    pub alive: u64,
    /// Per-state counts restricted to alive processes, for runtimes that
    /// track them incrementally (the batched runtime and the tiers built on
    /// it; the agent runtime computes them through
    /// [`membership`](Self::membership) instead).
    pub counts_alive: Option<&'a [u64]>,
    /// Per-process membership access (agent runtime only; `None` for
    /// count-level runtimes, whose `counts` contain alive processes only).
    pub membership: Option<MembershipView<'a>>,
    /// Per-shard alive counts (`shard_counts_alive[shard][state]`), filled
    /// only by the sharded runtime; every other runtime reports `None` (one
    /// well-mixed group). The aggregated views ([`counts`](Self::counts),
    /// [`counts_alive`](Self::counts_alive), [`alive`](Self::alive)) always
    /// sum over shards, so shard-agnostic observers work unchanged.
    pub shard_counts_alive: Option<&'a [Vec<u64>]>,
    /// Transport-layer snapshot (queue depth, cumulative message fates,
    /// recent delivery latency), filled only by the asynchronous runtime;
    /// the period-synchronized runtimes report `None` (their messages are
    /// accounting fictions, not queued deliveries).
    pub transport: Option<TransportProbe>,
    /// Adversary injections applied during the period leading up to this
    /// snapshot (empty when no adversary is attached, at period 0, and in
    /// quiet periods). The `counts` above already reflect them.
    pub injections: &'a [InjectionRecord],
    /// Virtual time of this snapshot in seconds
    /// ([`PERIOD_SECS`](netsim::PERIOD_SECS) to a period), filled only by the
    /// continuous-time runtimes (SSA and tau-leap), whose event clocks run
    /// between period boundaries. `None` for the period-synchronized tiers,
    /// where `period` alone is the time axis. The continuous-time runtimes
    /// report counts at period boundaries, so for them `virtual_time` is
    /// always `period * period_secs` — recorders binning by `period` see
    /// identical figure bins across all tiers.
    pub virtual_time: Option<f64>,
}

/// One snapshot of the asynchronous transport layer, taken at a period
/// boundary: how many messages are in flight right now, the cumulative
/// sent/delivered/dropped totals, and the mean delivery latency over the
/// recent streaming window (seconds of virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportProbe {
    /// Messages queued but not yet resolved at this snapshot.
    pub queue_depth: u64,
    /// Cumulative messages sent since the start of the run.
    pub sent: u64,
    /// Cumulative messages delivered.
    pub delivered: u64,
    /// Cumulative messages dropped (loss or partition).
    pub dropped: u64,
    /// Mean delivery latency over the recent window (seconds; 0 before the
    /// first delivery).
    pub recent_latency_mean: f64,
}

impl PeriodEvents<'_> {
    /// Per-state counts restricted to alive processes: uses the runtime's
    /// incremental alive counts when present, falls back to the membership
    /// view when host identity exists, and otherwise returns
    /// [`counts`](Self::counts) unchanged (count-level runtimes without
    /// failure modelling only track alive processes).
    pub(crate) fn alive_counts(&self) -> Vec<u64> {
        if let Some(alive) = self.counts_alive {
            return alive.to_vec();
        }
        match &self.membership {
            Some(view) => view.alive_counts(),
            None => self.counts.to_vec(),
        }
    }
}

/// An on-period callback attached to a [`Simulation`](super::Simulation).
///
/// Observers receive every [`PeriodEvents`] of a run (including the period-0
/// snapshot) and are asked to fold their recordings into the [`RunResult`]
/// once the run completes. Custom observers can stash arbitrary series in
/// [`RunResult::metrics`].
pub trait Observer: Send {
    /// Called after every period (and once for the initial configuration).
    fn on_period(&mut self, protocol: &Protocol, events: &PeriodEvents<'_>);

    /// Folds the recorded data into the run's result. Called exactly once,
    /// after the last period.
    fn finish(&mut self, result: &mut RunResult);

    /// `true` if this observer needs per-process identity
    /// ([`PeriodEvents::membership`]) to record anything — used by the
    /// automatic fidelity selection to decide whether a count-level runtime
    /// can serve the run. Defaults to `false`.
    fn needs_membership(&self) -> bool {
        false
    }
}

/// Records the per-period state counts into [`RunResult::counts`].
#[derive(Debug, Default)]
pub struct CountsRecorder {
    alive_only: bool,
    trajectory: Trajectory,
}

impl CountsRecorder {
    /// Records every process regardless of liveness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records only alive processes (the paper's churn and massive-failure
    /// figures plot alive populations).
    pub fn alive_only() -> Self {
        CountsRecorder {
            alive_only: true,
            trajectory: Trajectory::new(),
        }
    }
}

impl Observer for CountsRecorder {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        let as_f64 = |counts: &[u64]| counts.iter().map(|&c| c as f64).collect();
        let counts = match (self.alive_only, events.counts_alive) {
            (false, _) => as_f64(events.counts),
            (true, Some(alive)) => as_f64(alive),
            (true, None) => as_f64(&events.alive_counts()),
        };
        self.trajectory.push(events.period as f64, counts);
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.counts = std::mem::take(&mut self.trajectory);
    }
}

/// Records one `from->to` series per transition edge into
/// [`RunResult::transitions`].
#[derive(Debug, Default)]
pub struct TransitionRecorder {
    /// One slot per edge seen so far, sorted by `(from, to)`; the series
    /// name is formatted when the slot is created, not per sample.
    edges: Vec<EdgeSeries>,
}

#[derive(Debug)]
struct EdgeSeries {
    edge: (StateId, StateId),
    name: String,
    samples: Vec<(u64, f64)>,
}

impl TransitionRecorder {
    /// Creates the recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for TransitionRecorder {
    fn on_period(&mut self, protocol: &Protocol, events: &PeriodEvents<'_>) {
        // Transitions in the events of snapshot `p` fired during period
        // `p - 1` (the period that produced the snapshot).
        let period = events.period.saturating_sub(1);
        for &(from, to, count) in events.transitions {
            let slot = match self
                .edges
                .binary_search_by_key(&(from, to), |series| series.edge)
            {
                Ok(slot) => slot,
                Err(slot) => {
                    self.edges.insert(
                        slot,
                        EdgeSeries {
                            edge: (from, to),
                            name: edge_name(protocol, from, to),
                            samples: Vec::new(),
                        },
                    );
                    slot
                }
            };
            // An edge listed twice in one period accumulates, like
            // `MetricsRecorder::add`.
            let samples = &mut self.edges[slot].samples;
            match samples.last_mut() {
                Some((p, v)) if *p == period => *v += count as f64,
                _ => samples.push((period, count as f64)),
            }
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        for series in self.edges.drain(..) {
            result
                .transitions
                .append_series(series.name, series.samples);
        }
    }
}

/// Records `(period, alive members of a state)` snapshots into
/// [`RunResult::tracked_members`] — the paper's untraceability /
/// load-balancing data (Figure 8). Requires a runtime with host identity
/// (silently records nothing under a count-level runtime).
#[derive(Debug)]
pub struct MembershipTracker {
    state: StateId,
    snapshots: Vec<(u64, Vec<netsim::ProcessId>)>,
}

impl MembershipTracker {
    /// Tracks the members of `state`.
    pub fn of(state: StateId) -> Self {
        MembershipTracker {
            state,
            snapshots: Vec::new(),
        }
    }
}

impl Observer for MembershipTracker {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        if let Some(view) = &events.membership {
            self.snapshots
                .push((events.period, view.alive_members_of(self.state)));
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.tracked_members = std::mem::take(&mut self.snapshots);
    }

    fn needs_membership(&self) -> bool {
        true
    }
}

/// Records the alive process count per period into `metrics["alive"]`.
#[derive(Debug, Default)]
pub struct AliveTracker {
    recorder: MetricsRecorder,
}

impl AliveTracker {
    /// Creates the tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for AliveTracker {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        self.recorder
            .record("alive", events.period, events.alive as f64);
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.metrics.merge(&self.recorder);
    }
}

/// Records the number of sampling messages sent per period into
/// `metrics["messages"]`.
#[derive(Debug, Default)]
pub struct MessageCounter {
    recorder: MetricsRecorder,
}

impl MessageCounter {
    /// Creates the counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for MessageCounter {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        if events.period > 0 {
            self.recorder
                .record("messages", events.period - 1, events.messages as f64);
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.metrics.merge(&self.recorder);
    }
}

/// Records per-shard alive counts into `metrics["shard{j}:{state}"]` — one
/// series per (shard, state) pair, so experiments can plot an epidemic
/// front crossing shard boundaries.
///
/// Only the sharded runtime fills [`PeriodEvents::shard_counts_alive`];
/// under every other runtime this observer records nothing (one well-mixed
/// group has no per-shard decomposition worth duplicating).
#[derive(Debug, Default)]
pub struct ShardCountsRecorder {
    recorder: MetricsRecorder,
    /// `shard{j}:{state}` at `[j * states + s]`, formatted when the first
    /// shard counts arrive, not per sample.
    names: Vec<String>,
}

impl ShardCountsRecorder {
    /// Creates the recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for ShardCountsRecorder {
    fn on_period(&mut self, protocol: &Protocol, events: &PeriodEvents<'_>) {
        let Some(shards) = events.shard_counts_alive else {
            return;
        };
        let states = protocol.num_states();
        if self.names.len() != shards.len() * states {
            self.names = (0..shards.len())
                .flat_map(|j| {
                    (0..states)
                        .map(move |s| format!("shard{j}:{}", protocol.state_name(StateId::new(s))))
                })
                .collect();
        }
        for (j, shard) in shards.iter().enumerate() {
            for (s, &count) in shard.iter().enumerate() {
                let name = &self.names[j * states + s];
                self.recorder.record(name, events.period, count as f64);
            }
        }
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.metrics.merge(&self.recorder);
    }
}

/// Streams the asynchronous transport's health while a run is still
/// executing, and records it as `metrics["transport:*"]` series afterwards.
///
/// The streaming half is the point: [`handle`](Self::handle) returns a
/// cloneable, thread-safe [`LiveMetricsHandle`] whose gauges (queue depth,
/// cumulative sent/delivered/dropped, recent mean latency) are updated at
/// every period boundary — a progress thread can poll it mid-run instead of
/// waiting for the [`RunResult`]. The recorded series are per-period:
/// `transport:queue_depth` and `transport:latency_mean` are instantaneous
/// snapshots, `transport:sent` / `transport:delivered` / `transport:dropped`
/// are the counts for the period that just executed.
///
/// Only the asynchronous runtime fills [`PeriodEvents::transport`]; under
/// every other runtime this observer is inert (like
/// [`ShardCountsRecorder`] without shard data).
#[derive(Debug, Default)]
pub struct LiveMetrics {
    recorder: MetricsRecorder,
    gauges: Arc<Gauges>,
    last: TransportProbe,
}

/// The shared gauge block behind [`LiveMetricsHandle`], one atomic per
/// field.
#[derive(Debug, Default)]
struct Gauges {
    queue_depth: AtomicU64,
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    periods: AtomicU64,
}

/// A cloneable, thread-safe view of a [`LiveMetrics`] observer's gauges,
/// readable while the run is still executing.
#[derive(Debug, Clone, Default)]
pub struct LiveMetricsHandle {
    gauges: Arc<Gauges>,
}

impl LiveMetricsHandle {
    /// Messages in flight at the last period boundary.
    pub fn queue_depth(&self) -> u64 {
        self.gauges.queue_depth.load(Ordering::Relaxed)
    }

    /// Cumulative messages sent so far.
    pub fn sent(&self) -> u64 {
        self.gauges.sent.load(Ordering::Relaxed)
    }

    /// Cumulative messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.gauges.delivered.load(Ordering::Relaxed)
    }

    /// Cumulative messages dropped so far (loss or partition).
    pub fn dropped(&self) -> u64 {
        self.gauges.dropped.load(Ordering::Relaxed)
    }

    /// Periods observed so far (including the period-0 snapshot).
    pub fn periods_observed(&self) -> u64 {
        self.gauges.periods.load(Ordering::Relaxed)
    }
}

impl LiveMetrics {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A live handle onto the gauges, safe to read from another thread while
    /// the run executes.
    pub fn handle(&self) -> LiveMetricsHandle {
        LiveMetricsHandle {
            gauges: Arc::clone(&self.gauges),
        }
    }
}

impl Observer for LiveMetrics {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        let Some(probe) = events.transport else {
            return;
        };
        self.gauges
            .queue_depth
            .store(probe.queue_depth, Ordering::Relaxed);
        self.gauges.sent.store(probe.sent, Ordering::Relaxed);
        self.gauges
            .delivered
            .store(probe.delivered, Ordering::Relaxed);
        self.gauges.dropped.store(probe.dropped, Ordering::Relaxed);
        self.gauges.periods.fetch_add(1, Ordering::Relaxed);

        self.recorder.record(
            "transport:queue_depth",
            events.period,
            probe.queue_depth as f64,
        );
        self.recorder.record(
            "transport:latency_mean",
            events.period,
            probe.recent_latency_mean,
        );
        if events.period > 0 {
            let p = events.period - 1;
            let delta = |now: u64, before: u64| now.saturating_sub(before) as f64;
            self.recorder
                .record("transport:sent", p, delta(probe.sent, self.last.sent));
            self.recorder.record(
                "transport:delivered",
                p,
                delta(probe.delivered, self.last.delivered),
            );
            self.recorder.record(
                "transport:dropped",
                p,
                delta(probe.dropped, self.last.dropped),
            );
        }
        self.last = probe;
    }

    fn finish(&mut self, result: &mut RunResult) {
        result.metrics.merge(&self.recorder);
    }
}

/// Summarizes a run's survival under fault injection into
/// `metrics["resilience:*"]` series — the robustness counterpart of
/// [`LiveMetrics`].
///
/// Metric definitions (all over *alive* per-state counts):
///
/// * `resilience:victims` — per attack snapshot, processes crashed by the
///   adversary during the period leading up to it (recoveries not counted).
/// * `resilience:time_to_recovery` — per recovered attack, recorded at the
///   attack snapshot: the number of periods until the leading state's
///   *share* of the alive population first returned to its pre-attack
///   level. An attack whose share never recovers within the run contributes
///   to `resilience:unrecovered` instead.
/// * `resilience:injections_total`, `resilience:recovered`,
///   `resilience:unrecovered` — run totals (single point at period 0).
/// * `resilience:ttr_mean` — mean time-to-recovery over recovered attacks
///   (absent when none recovered).
/// * `resilience:extinct_states` — protocol states with zero alive
///   processes at the end of the run (takeover/extinction indicator).
///
/// Inert when the run applies no injections (no adversary attached, or a
/// quiet one): nothing is recorded, like [`ShardCountsRecorder`] without
/// shard data.
#[derive(Debug, Default)]
pub struct ResilienceReport {
    recorder: MetricsRecorder,
    last_share: Option<f64>,
    /// `(attack snapshot, pre-attack leading share)` awaiting recovery.
    pending: Vec<(u64, f64)>,
    injections_seen: u64,
    recovery_times: Vec<u64>,
    final_alive: Vec<u64>,
}

impl ResilienceReport {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for ResilienceReport {
    fn on_period(&mut self, _protocol: &Protocol, events: &PeriodEvents<'_>) {
        let alive = events.alive_counts();
        let total: u64 = alive.iter().sum();
        let share = if total > 0 {
            alive.iter().max().map(|&m| m as f64 / total as f64)
        } else {
            None
        };

        // Resolve attacks from earlier snapshots whose leading share is back
        // to its pre-attack level.
        if let Some(share) = share {
            self.pending.retain(|&(attacked_at, target)| {
                if events.period > attacked_at && share >= target {
                    self.recovery_times.push(events.period - attacked_at);
                    self.recorder.record(
                        "resilience:time_to_recovery",
                        attacked_at,
                        (events.period - attacked_at) as f64,
                    );
                    false
                } else {
                    true
                }
            });
        }

        if !events.injections.is_empty() {
            self.injections_seen += events.injections.len() as u64;
            let victims: u64 = events
                .injections
                .iter()
                .filter(|r| !matches!(r.injection, Injection::RecoverUniform { .. }))
                .map(|r| r.victims)
                .sum();
            self.recorder
                .record("resilience:victims", events.period, victims as f64);
            if victims > 0 {
                // Recovery target: the leading share *before* the attack.
                let target = self.last_share.or(share).unwrap_or(0.0);
                self.pending.push((events.period, target));
            }
        }

        self.last_share = share.or(self.last_share);
        self.final_alive = alive;
    }

    fn finish(&mut self, result: &mut RunResult) {
        if self.injections_seen == 0 {
            return;
        }
        result.metrics.merge(&self.recorder);
        result.metrics.record(
            "resilience:injections_total",
            0,
            self.injections_seen as f64,
        );
        result
            .metrics
            .record("resilience:recovered", 0, self.recovery_times.len() as f64);
        result
            .metrics
            .record("resilience:unrecovered", 0, self.pending.len() as f64);
        if !self.recovery_times.is_empty() {
            let mean =
                self.recovery_times.iter().sum::<u64>() as f64 / self.recovery_times.len() as f64;
            result.metrics.record("resilience:ttr_mean", 0, mean);
        }
        let extinct = self.final_alive.iter().filter(|&&c| c == 0).count();
        result
            .metrics
            .record("resilience:extinct_states", 0, extinct as f64);
    }
}

/// The observer set that reproduces the legacy always-on recording: counts
/// (all processes), transitions, alive counts and message counts.
pub(crate) fn default_observers() -> Vec<Box<dyn Observer>> {
    vec![
        Box::new(CountsRecorder::new()),
        Box::new(TransitionRecorder::new()),
        Box::new(AliveTracker::new()),
        Box::new(MessageCounter::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::epidemic_protocol as protocol;

    fn events<'a>(
        period: u64,
        counts: &'a [u64],
        transitions: &'a [(StateId, StateId, u64)],
    ) -> PeriodEvents<'a> {
        PeriodEvents {
            period,
            counts,
            transitions,
            messages: 7,
            alive: counts.iter().sum(),
            counts_alive: None,
            membership: None,
            shard_counts_alive: None,
            transport: None,
            injections: &[],
            virtual_time: None,
        }
    }

    #[test]
    fn counts_recorder_fills_trajectory() {
        let p = protocol();
        let mut obs = CountsRecorder::new();
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        obs.on_period(&p, &events(1, &[50, 50], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(result.counts.len(), 2);
        assert_eq!(result.final_counts(), Some(&[50.0, 50.0][..]));
        // Without a membership view, alive-only falls back to raw counts.
        let mut alive = CountsRecorder::alive_only();
        alive.on_period(&p, &events(0, &[90, 10], &[]));
        let mut result = RunResult::new(&p);
        alive.finish(&mut result);
        assert_eq!(result.final_counts(), Some(&[90.0, 10.0][..]));
    }

    #[test]
    fn transition_recorder_names_edges_and_shifts_periods() {
        let p = protocol();
        let x = p.require_state("x").unwrap();
        let y = p.require_state("y").unwrap();
        let mut obs = TransitionRecorder::new();
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        obs.on_period(&p, &events(1, &[50, 50], &[(x, y, 40)]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        // The transition fired during period 0 (between snapshots 0 and 1).
        assert_eq!(result.transitions.series("x->y").unwrap(), &[(0, 40.0)]);
        assert_eq!(result.total_transitions("x", "y"), 40.0);
    }

    #[test]
    fn transition_recorder_matches_per_sample_metrics_recording() {
        // Edges first seen out of order, skipped in some periods and listed
        // twice in another must land exactly where `MetricsRecorder::add`
        // under the formatted edge name would have put them.
        let p = protocol();
        let x = p.require_state("x").unwrap();
        let y = p.require_state("y").unwrap();
        let periods: [&[(StateId, StateId, u64)]; 4] = [
            &[(y, x, 3)],
            &[(x, y, 5), (y, x, 2), (x, y, 1)],
            &[],
            &[(x, x, 4), (x, y, 7)],
        ];
        let mut obs = TransitionRecorder::new();
        let mut expected = MetricsRecorder::new();
        for (period, transitions) in periods.iter().enumerate() {
            obs.on_period(&p, &events(period as u64 + 1, &[50, 50], transitions));
            for &(from, to, count) in *transitions {
                expected.add(&edge_name(&p, from, to), period as u64, count as f64);
            }
        }
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(result.transitions, expected);
        assert_eq!(
            result.transitions.series("x->y").unwrap(),
            &[(1, 6.0), (3, 7.0)]
        );
    }

    #[test]
    fn alive_and_message_observers_record_series() {
        let p = protocol();
        let mut alive = AliveTracker::new();
        let mut msgs = MessageCounter::new();
        for period in 0..3 {
            let ev = events(period, &[90, 10], &[]);
            alive.on_period(&p, &ev);
            msgs.on_period(&p, &ev);
        }
        let mut result = RunResult::new(&p);
        alive.finish(&mut result);
        msgs.finish(&mut result);
        assert_eq!(result.metrics.series("alive").unwrap().len(), 3);
        // No messages at the period-0 snapshot.
        assert_eq!(
            result.metrics.series("messages").unwrap(),
            &[(0, 7.0), (1, 7.0)]
        );
    }

    #[test]
    fn incremental_alive_counts_take_precedence() {
        let p = protocol();
        let alive = [80u64, 5];
        let mut ev = events(0, &[90, 10], &[]);
        ev.counts_alive = Some(&alive);
        assert_eq!(ev.alive_counts(), vec![80, 5]);
        let mut obs = CountsRecorder::alive_only();
        obs.on_period(&p, &ev);
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(result.final_counts(), Some(&[80.0, 5.0][..]));
    }

    #[test]
    fn only_membership_trackers_need_membership() {
        let p = protocol();
        let y = p.require_state("y").unwrap();
        assert!(MembershipTracker::of(y).needs_membership());
        assert!(!CountsRecorder::new().needs_membership());
        assert!(!CountsRecorder::alive_only().needs_membership());
        assert!(!TransitionRecorder::new().needs_membership());
        assert!(!AliveTracker::new().needs_membership());
        assert!(!MessageCounter::new().needs_membership());
    }

    #[test]
    fn shard_counts_recorder_records_per_shard_series() {
        let p = protocol();
        let shards = vec![vec![90u64, 0], vec![0, 10]];
        let totals = [90u64, 10];
        let mut ev = events(0, &totals, &[]);
        ev.shard_counts_alive = Some(&shards);
        let mut obs = ShardCountsRecorder::new();
        obs.on_period(&p, &ev);
        let shards = vec![vec![80u64, 10], vec![3, 7]];
        let mut ev = events(1, &totals, &[]);
        ev.shard_counts_alive = Some(&shards);
        obs.on_period(&p, &ev);
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(
            result.metrics.series("shard0:x").unwrap(),
            &[(0, 90.0), (1, 80.0)]
        );
        assert_eq!(
            result.metrics.series("shard1:y").unwrap(),
            &[(0, 10.0), (1, 7.0)]
        );
        // Without shard data the recorder is inert.
        let mut inert = ShardCountsRecorder::new();
        inert.on_period(&p, &events(0, &totals, &[]));
        let mut result = RunResult::new(&p);
        inert.finish(&mut result);
        assert!(result.metrics.series("shard0:x").is_err());
        assert!(!ShardCountsRecorder::new().needs_membership());
    }

    #[test]
    fn live_metrics_streams_gauges_and_records_series() {
        let p = protocol();
        let mut obs = LiveMetrics::new();
        let handle = obs.handle();
        let mut ev = events(0, &[90, 10], &[]);
        ev.transport = Some(TransportProbe {
            queue_depth: 5,
            sent: 10,
            delivered: 4,
            dropped: 1,
            recent_latency_mean: 2.5,
        });
        obs.on_period(&p, &ev);
        // Gauges are readable mid-run, from a clone, on another thread.
        let h2 = handle.clone();
        std::thread::spawn(move || {
            assert_eq!(h2.queue_depth(), 5);
            assert_eq!(h2.sent(), 10);
        })
        .join()
        .unwrap();
        assert_eq!(handle.queue_depth(), 5);
        assert_eq!(handle.delivered(), 4);
        assert_eq!(handle.dropped(), 1);
        assert_eq!(handle.periods_observed(), 1);

        let mut ev = events(1, &[50, 50], &[]);
        ev.transport = Some(TransportProbe {
            queue_depth: 2,
            sent: 25,
            delivered: 20,
            dropped: 3,
            recent_latency_mean: 1.5,
        });
        obs.on_period(&p, &ev);
        assert_eq!(handle.sent(), 25);
        assert_eq!(handle.periods_observed(), 2);

        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        // Instantaneous series have one point per snapshot...
        assert_eq!(
            result.metrics.series("transport:queue_depth").unwrap(),
            &[(0, 5.0), (1, 2.0)]
        );
        // ...while the fate series are per-period deltas.
        assert_eq!(
            result.metrics.series("transport:sent").unwrap(),
            &[(0, 15.0)]
        );
        assert_eq!(
            result.metrics.series("transport:delivered").unwrap(),
            &[(0, 16.0)]
        );
        assert_eq!(
            result.metrics.series("transport:dropped").unwrap(),
            &[(0, 2.0)]
        );
        assert!(!LiveMetrics::new().needs_membership());
    }

    #[test]
    fn live_metrics_handle_polls_safely_while_a_run_executes() {
        use super::super::{AsyncRuntime, InitialStates, Simulation};
        use netsim::transport::{LatencyModel, LinkModel, TransportConfig};
        use netsim::Scenario;
        // A reader hammers the handle from this thread while the run
        // executes on another: every counter must be monotone and every
        // latency read a sane f64 (no torn reads through the bit-packed
        // gauge), poll after poll.
        let link = LinkModel::new(LatencyModel::Exponential { mean: 30.0 }, 0.05).unwrap();
        let scenario = Scenario::new(20_000, 40)
            .unwrap()
            .with_seed(8)
            .with_transport(TransportConfig::new(link))
            .unwrap();
        let obs = LiveMetrics::new();
        let handle = obs.handle();
        let worker = std::thread::spawn(move || {
            Simulation::of(protocol())
                .scenario(scenario)
                .initial(InitialStates::counts(&[19_990, 10]))
                .observe(obs)
                .run::<AsyncRuntime>()
                .unwrap()
        });
        let (mut sent, mut delivered, mut dropped, mut periods) = (0u64, 0u64, 0u64, 0u64);
        while !worker.is_finished() {
            let s = handle.sent();
            let d = handle.delivered();
            let dr = handle.dropped();
            let p = handle.periods_observed();
            assert!(s >= sent, "sent went backwards: {s} < {sent}");
            assert!(
                d >= delivered,
                "delivered went backwards: {d} < {delivered}"
            );
            assert!(dr >= dropped, "dropped went backwards: {dr} < {dropped}");
            assert!(p >= periods, "periods went backwards: {p} < {periods}");
            (sent, delivered, dropped, periods) = (s, d, dr, p);
            std::thread::yield_now();
        }
        let result = worker.join().unwrap();
        assert!(handle.sent() > 0, "the run sent messages");
        assert_eq!(handle.periods_observed(), 41, "snapshot + 40 periods");
        assert!(result.metrics.series("transport:sent").is_ok());
    }

    #[test]
    fn live_metrics_is_inert_without_transport_data() {
        let p = protocol();
        let mut obs = LiveMetrics::new();
        let handle = obs.handle();
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        assert_eq!(handle.periods_observed(), 0);
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert!(result.metrics.series("transport:queue_depth").is_err());
    }

    #[test]
    fn resilience_report_tracks_recovery_and_totals() {
        let p = protocol();
        let mut obs = ResilienceReport::new();
        // Pre-attack: state x leads with share 0.9.
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        // Attack at snapshot 1: 45 victims out of state x.
        let records = [InjectionRecord {
            period: 1,
            injection: Injection::CrashState {
                state: 0,
                fraction: 0.5,
            },
            victims: 45,
        }];
        let counts = [45u64, 10];
        let mut ev = events(1, &counts, &[]);
        ev.injections = &records;
        obs.on_period(&p, &ev);
        // Leading share dips (45/55 ≈ 0.82 < 0.9), then recovers at
        // snapshot 3 (55/60 ≈ 0.92 ≥ 0.9).
        obs.on_period(&p, &events(2, &[48, 8], &[]));
        obs.on_period(&p, &events(3, &[55, 5], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(
            result.metrics.series("resilience:victims").unwrap(),
            &[(1, 45.0)]
        );
        assert_eq!(
            result
                .metrics
                .series("resilience:time_to_recovery")
                .unwrap(),
            &[(1, 2.0)]
        );
        assert_eq!(
            result
                .metrics
                .series("resilience:injections_total")
                .unwrap(),
            &[(0, 1.0)]
        );
        assert_eq!(
            result.metrics.series("resilience:recovered").unwrap(),
            &[(0, 1.0)]
        );
        assert_eq!(
            result.metrics.series("resilience:unrecovered").unwrap(),
            &[(0, 0.0)]
        );
        assert_eq!(
            result.metrics.series("resilience:ttr_mean").unwrap(),
            &[(0, 2.0)]
        );
        assert_eq!(
            result.metrics.series("resilience:extinct_states").unwrap(),
            &[(0, 0.0)]
        );
        assert!(!ResilienceReport::new().needs_membership());
    }

    #[test]
    fn resilience_report_counts_unrecovered_attacks_and_extinctions() {
        let p = protocol();
        let mut obs = ResilienceReport::new();
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        let records = [InjectionRecord {
            period: 1,
            injection: Injection::CrashUniform { fraction: 0.9 },
            victims: 90,
        }];
        let counts = [5u64, 5];
        let mut ev = events(1, &counts, &[]);
        ev.injections = &records;
        obs.on_period(&p, &ev);
        // The leading share never returns to 0.9.
        obs.on_period(&p, &events(2, &[5, 4], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(
            result.metrics.series("resilience:unrecovered").unwrap(),
            &[(0, 1.0)]
        );
        assert!(result.metrics.series("resilience:ttr_mean").is_err());
        assert_eq!(
            result.metrics.series("resilience:extinct_states").unwrap(),
            &[(0, 0.0)]
        );

        // A takeover after an attack: the surviving state's share hits 1.0
        // (counts as recovered) and the extinct state is reported.
        let mut obs = ResilienceReport::new();
        obs.on_period(&p, &events(0, &[60, 40], &[]));
        let records = [InjectionRecord {
            period: 1,
            injection: Injection::CrashState {
                state: 0,
                fraction: 1.0,
            },
            victims: 60,
        }];
        let counts = [0u64, 40];
        let mut ev = events(1, &counts, &[]);
        ev.injections = &records;
        obs.on_period(&p, &ev);
        obs.on_period(&p, &events(2, &[0, 40], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert_eq!(
            result.metrics.series("resilience:extinct_states").unwrap(),
            &[(0, 1.0)]
        );
        assert_eq!(
            result.metrics.series("resilience:recovered").unwrap(),
            &[(0, 1.0)]
        );
    }

    #[test]
    fn resilience_report_is_inert_without_injections() {
        let p = protocol();
        let mut obs = ResilienceReport::new();
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        obs.on_period(&p, &events(1, &[50, 50], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert!(result.metrics.series("resilience:victims").is_err());
        assert!(result
            .metrics
            .series("resilience:injections_total")
            .is_err());
    }

    #[test]
    fn membership_tracker_is_inert_without_host_identity() {
        let p = protocol();
        let y = p.require_state("y").unwrap();
        let mut obs = MembershipTracker::of(y);
        obs.on_period(&p, &events(0, &[90, 10], &[]));
        let mut result = RunResult::new(&p);
        obs.finish(&mut result);
        assert!(result.tracked_members.is_empty());
    }
}
