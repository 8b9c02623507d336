//! Migratory replication for a persistent distributed file store.
//!
//! This is the application the paper builds the endemic protocol for
//! (Section 4.1): each stored object runs one instance of the endemic
//! protocol on its behalf; the processes currently in the stash state are the
//! only ones holding replicas. [`MigratoryStore`] drives the protocol through
//! the agent runtime and exposes the quantities the paper's evaluation
//! plots: stasher counts, file-flux rate, per-host replica placement over
//! time (untraceability, Figure 8), and load-balancing / fairness statistics.

use super::{EndemicParams, RECEPTIVE, STASH};
use dpde_core::runtime::{
    AgentRuntime, AliveTracker, CountsRecorder, InitialStates, MembershipTracker, MessageCounter,
    RunResult, Simulation, TransitionRecorder,
};
use dpde_core::{CoreError, Protocol};
use netsim::{ProcessId, Scenario};

/// One run of the migratory replication protocol for a single object.
#[derive(Debug, Clone)]
pub struct MigratoryStore {
    params: EndemicParams,
    protocol: Protocol,
    track_stashers: bool,
}

/// Summary of a migratory replication run.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The full simulation output.
    pub run: RunResult,
    /// `true` if at least one replica existed at every recorded period
    /// (probabilistic safety held throughout the run).
    pub object_survived: bool,
    /// Mean number of stashers over the second half of the run.
    pub mean_stashers: f64,
    /// Mean number of receptive→stash transfers (file transmissions) per
    /// period over the second half of the run — the paper's "file flux rate".
    pub mean_flux: f64,
    /// Jaccard similarity between consecutive stasher sets, averaged over the
    /// run (low values = replicas migrate quickly = hard to trace), if
    /// stasher tracking was enabled.
    pub mean_consecutive_jaccard: Option<f64>,
    /// Coefficient of variation of the per-host total stash time (low values =
    /// good load balancing / fairness), if stasher tracking was enabled.
    pub load_balance_cv: Option<f64>,
}

impl MigratoryStore {
    /// Creates a store driven by the Figure 1 endemic protocol with the given
    /// parameters.
    ///
    /// # Errors
    ///
    /// Propagates protocol-construction errors.
    pub fn new(params: EndemicParams) -> Result<Self, CoreError> {
        let protocol = params.figure1_protocol()?;
        Ok(MigratoryStore {
            params,
            protocol,
            track_stashers: false,
        })
    }

    /// Enables per-period tracking of the stasher set (needed for the
    /// untraceability and fairness metrics; costs memory proportional to
    /// `periods × stashers`).
    #[must_use]
    pub fn with_stasher_tracking(mut self) -> Self {
        self.track_stashers = true;
        self
    }

    /// Runs the protocol starting at its analytical equilibrium (the setup of
    /// the paper's Figures 5–7).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn run_from_equilibrium(
        &self,
        scenario: &Scenario,
    ) -> Result<ReplicationReport, CoreError> {
        let n = scenario.group_size() as f64;
        let eq = self.params.equilibria(n).endemic;
        let mut counts = [eq[0].round() as u64, eq[1].round() as u64, 0u64];
        counts[2] = scenario.group_size() as u64 - counts[0] - counts[1];
        self.run_from(scenario, &InitialStates::counts(&counts))
    }

    /// Runs the protocol from an arbitrary initial distribution over
    /// `[receptive, stash, averse]`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub(crate) fn run_from(
        &self,
        scenario: &Scenario,
        initial: &InitialStates,
    ) -> Result<ReplicationReport, CoreError> {
        let receptive = self.protocol.require_state(RECEPTIVE)?;
        let stash = self.protocol.require_state(STASH)?;
        // The paper's figures plot alive populations, so counts are recorded
        // alive-only; stasher-set snapshots are only paid for when tracking
        // was requested.
        let mut sim = Simulation::of(self.protocol.clone())
            .scenario(scenario.clone())
            .initial(initial.clone())
            .rejoin_state(receptive)
            .observe(CountsRecorder::alive_only())
            .observe(TransitionRecorder::new())
            .observe(AliveTracker::new())
            .observe(MessageCounter::new());
        if self.track_stashers {
            sim = sim.observe(MembershipTracker::of(stash));
        }
        let run = sim.run::<AgentRuntime>()?;
        Ok(self.report(run, scenario.group_size()))
    }

    fn report(&self, run: RunResult, n: usize) -> ReplicationReport {
        let stashers = run.state_series(STASH).unwrap_or_default();
        let object_survived = stashers.iter().all(|&c| c > 0.0);
        let half = stashers.len() / 2;
        let mean_stashers = mean(&stashers[half..]);

        let flux_edge = format!("{RECEPTIVE}->{STASH}");
        let flux: Vec<f64> = run
            .transitions
            .series(&flux_edge)
            .map(|s| s.iter().map(|(_, v)| *v).collect())
            .unwrap_or_default();
        let flux_half = flux.len() / 2;
        let mean_flux = mean(&flux[flux_half..]);

        let (mean_consecutive_jaccard, load_balance_cv) = if self.track_stashers {
            (
                Some(mean_consecutive_jaccard(&run.tracked_members)),
                Some(load_balance_cv(&run.tracked_members, n)),
            )
        } else {
            (None, None)
        };

        ReplicationReport {
            run,
            object_survived,
            mean_stashers,
            mean_flux,
            mean_consecutive_jaccard,
            load_balance_cv,
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Average Jaccard similarity between consecutive snapshots of a member set.
/// Values near 1 mean the set barely changes (easy to trace); values near 0
/// mean it turns over completely between snapshots.
pub fn mean_consecutive_jaccard(snapshots: &[(u64, Vec<ProcessId>)]) -> f64 {
    if snapshots.len() < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for window in snapshots.windows(2) {
        let a: std::collections::HashSet<_> = window[0].1.iter().collect();
        let b: std::collections::HashSet<_> = window[1].1.iter().collect();
        let intersection = a.intersection(&b).count();
        let union = a.union(&b).count();
        if union > 0 {
            total += intersection as f64 / union as f64;
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

/// Coefficient of variation (standard deviation / mean) of the total time each
/// host spent in the tracked set. Zero means perfectly even load; the paper's
/// Fairness property asks for this to stay small over long runs.
pub fn load_balance_cv(snapshots: &[(u64, Vec<ProcessId>)], n: usize) -> f64 {
    if snapshots.is_empty() || n == 0 {
        return 0.0;
    }
    let mut per_host = vec![0.0_f64; n];
    for (_, members) in snapshots {
        for id in members {
            if id.index() < n {
                per_host[id.index()] += 1.0;
            }
        }
    }
    let m = mean(&per_host);
    if m == 0.0 {
        return 0.0;
    }
    let var = per_host.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
    var.sqrt() / m
}

/// Fraction of hosts that ever appear in the tracked set — 1.0 means every
/// host eventually bears responsibility (the paper's Fairness property,
/// observed over a long enough run).
pub fn coverage(snapshots: &[(u64, Vec<ProcessId>)], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut seen = vec![false; n];
    for (_, members) in snapshots {
        for id in members {
            if id.index() < n {
                seen[id.index()] = true;
            }
        }
    }
    seen.iter().filter(|&&s| s).count() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EndemicParams {
        // Figure 8 setting: b = 2, γ = 0.1, and γ/α = 10, which reproduces the
        // caption's stable stasher count of 88.63 at N = 1000.
        EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap()
    }

    #[test]
    fn object_survives_and_stasher_count_matches_analysis() {
        let p = params();
        let store = MigratoryStore::new(p).unwrap();
        let scenario = Scenario::new(1000, 400).unwrap().with_seed(8);
        let report = store.run_from_equilibrium(&scenario).unwrap();
        assert!(report.object_survived);
        // The paper quotes ≈ 88.6 stashers at N = 1000 for these parameters.
        let expected = p.expected_stashers(1000.0);
        assert!(
            (report.mean_stashers - expected).abs() < 0.25 * expected,
            "measured {} vs analysis {expected}",
            report.mean_stashers
        );
        // Flux at equilibrium ≈ γ·y∞ ≈ 8.9 transfers per period.
        assert!(
            (report.mean_flux - 0.1 * expected).abs() < 0.5 * 0.1 * expected,
            "flux {}",
            report.mean_flux
        );
        assert!(report.mean_consecutive_jaccard.is_none());
    }

    #[test]
    fn replicas_migrate_and_load_is_balanced() {
        let store = MigratoryStore::new(params())
            .unwrap()
            .with_stasher_tracking();
        let scenario = Scenario::new(500, 600).unwrap().with_seed(9);
        let report = store.run_from_equilibrium(&scenario).unwrap();
        let jaccard = report.mean_consecutive_jaccard.unwrap();
        // With γ = 0.1 roughly 10 % of stashers turn over per period, so the
        // consecutive overlap sits well below 1 but above ~0.5.
        assert!(
            jaccard < 0.98,
            "stasher set must migrate, jaccard {jaccard}"
        );
        assert!(
            jaccard > 0.3,
            "stasher set should not vanish every period, jaccard {jaccard}"
        );
        // Over 600 periods most hosts bear responsibility at least once.
        let cov = coverage(&report.run.tracked_members, 500);
        assert!(cov > 0.8, "coverage {cov}");
        // Load balancing: no host hoards the file (CV stays moderate).
        let cv = report.load_balance_cv.unwrap();
        assert!(cv < 1.5, "load-balance coefficient of variation {cv}");
    }

    #[test]
    fn simple_handoff_loses_objects_but_endemic_does_not() {
        // Section 4.1.1: a hand-off protocol (equivalent to γ ≈ 1 with no
        // averse dwell and a single replica) loses the object quickly under
        // failures, while the endemic protocol with a healthy equilibrium
        // keeps it alive. Here we emulate the contrast by starting the endemic
        // protocol with a single replica and letting it grow to equilibrium.
        let p = params();
        let store = MigratoryStore::new(p).unwrap();
        let scenario = Scenario::new(1000, 300).unwrap().with_seed(10);
        let report = store
            .run_from(&scenario, &InitialStates::counts(&[999, 1, 0]))
            .unwrap();
        assert!(
            report.object_survived,
            "a single seed replica multiplies before it can vanish"
        );
        assert!(report.mean_stashers > 10.0);
    }

    #[test]
    fn massive_failure_halves_stashers_but_object_survives() {
        // Figure 5, scaled down: 50 % of hosts crash mid-run.
        let p = EndemicParams::from_contact_count(2, 0.05, 0.002).unwrap();
        let store = MigratoryStore::new(p).unwrap();
        let scenario = Scenario::new(2000, 600)
            .unwrap()
            .with_massive_failure(300, 0.5)
            .unwrap()
            .with_seed(11);
        let report = store.run_from_equilibrium(&scenario).unwrap();
        assert!(report.object_survived);
        let stashers = report.run.state_series(STASH).unwrap();
        let before = mean(&stashers[250..300]);
        let after = mean(&stashers[550..]);
        let ratio = after / before;
        assert!(
            (0.3..0.8).contains(&ratio),
            "stashers should drop by roughly half: before {before}, after {after}"
        );
    }

    #[test]
    fn metric_helpers_handle_edge_cases() {
        assert_eq!(mean_consecutive_jaccard(&[]), 1.0);
        assert_eq!(mean_consecutive_jaccard(&[(0, vec![ProcessId(1)])]), 1.0);
        let snaps = vec![
            (0, vec![ProcessId(0), ProcessId(1)]),
            (1, vec![ProcessId(1), ProcessId(2)]),
        ];
        assert!((mean_consecutive_jaccard(&snaps) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(load_balance_cv(&[], 10), 0.0);
        assert_eq!(load_balance_cv(&snaps, 0), 0.0);
        assert!(load_balance_cv(&snaps, 3) > 0.0);
        assert_eq!(coverage(&snaps, 4), 0.75);
        assert_eq!(coverage(&[], 0), 0.0);
        // Empty-union snapshots do not blow up.
        let empty = vec![(0, vec![]), (1, vec![])];
        assert_eq!(mean_consecutive_jaccard(&empty), 1.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
