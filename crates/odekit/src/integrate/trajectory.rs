//! Time series produced by integrators (and reused by the protocol runtimes).

use std::fmt;

/// A discretely sampled trajectory: a sequence of `(time, state)` points.
///
/// Trajectories are produced by the [`Integrator`](super::Integrator)
/// implementations and also by the protocol runtimes in `dpde-core`, which
/// lets the equivalence checker compare the two directly.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Trajectory {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trajectory with room for `capacity` points.
    pub fn with_capacity(capacity: usize) -> Self {
        Trajectory {
            times: Vec::with_capacity(capacity),
            states: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample point.
    ///
    /// # Panics
    ///
    /// Panics if `state` has a different length than previously pushed states.
    pub fn push(&mut self, time: f64, state: Vec<f64>) {
        if let Some(first) = self.states.first() {
            assert_eq!(
                first.len(),
                state.len(),
                "state dimension changed mid-trajectory"
            );
        }
        self.times.push(time);
        self.states.push(state);
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Dimension of the state vectors (0 if the trajectory is empty).
    pub fn dim(&self) -> usize {
        self.states.first().map_or(0, Vec::len)
    }

    /// The recorded sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The recorded states, one per sample time.
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// The final recorded state.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_state(&self) -> &[f64] {
        self.states.last().expect("trajectory is empty")
    }

    /// The final recorded time.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_time(&self) -> f64 {
        *self.times.last().expect("trajectory is empty")
    }

    /// Iterates over `(time, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        self.times
            .iter()
            .copied()
            .zip(self.states.iter().map(Vec::as_slice))
    }

    /// The time series of a single state component.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range for a non-empty trajectory.
    pub fn component(&self, var: usize) -> Vec<f64> {
        self.states.iter().map(|s| s[var]).collect()
    }

    /// Projects the trajectory onto two components, e.g. for a phase portrait.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range for a non-empty trajectory.
    pub(crate) fn projection(&self, a: usize, b: usize) -> Vec<(f64, f64)> {
        self.states.iter().map(|s| (s[a], s[b])).collect()
    }

    /// Linearly interpolates the state at time `t`.
    ///
    /// Returns `None` if the trajectory is empty or `t` lies outside the
    /// recorded time range.
    pub fn state_at(&self, t: f64) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        let first = self.times[0];
        let last = *self.times.last().unwrap();
        if t < first || t > last {
            return None;
        }
        // Find the bracketing segment (times are non-decreasing).
        let idx = match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&t).unwrap())
        {
            Ok(i) => return Some(self.states[i].clone()),
            Err(i) => i,
        };
        let (i0, i1) = (idx - 1, idx);
        let (t0, t1) = (self.times[i0], self.times[i1]);
        let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        Some(
            self.states[i0]
                .iter()
                .zip(&self.states[i1])
                .map(|(a, b)| a + w * (b - a))
                .collect(),
        )
    }
}

impl fmt::Display for Trajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trajectory({} points, dim {})", self.len(), self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        let mut t = Trajectory::new();
        t.push(0.0, vec![0.0, 10.0]);
        t.push(1.0, vec![1.0, 9.0]);
        t.push(2.0, vec![2.0, 8.0]);
        t
    }

    #[test]
    fn push_and_accessors() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.last_time(), 2.0);
        assert_eq!(t.last_state(), &[2.0, 8.0]);
        assert_eq!(t.component(1), vec![10.0, 9.0, 8.0]);
        assert_eq!(t.projection(0, 1)[1], (1.0, 9.0));
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn interpolation() {
        let t = sample();
        assert_eq!(t.state_at(1.0), Some(vec![1.0, 9.0]));
        assert_eq!(t.state_at(0.5), Some(vec![0.5, 9.5]));
        assert_eq!(t.state_at(-1.0), None);
        assert_eq!(t.state_at(3.0), None);
        assert_eq!(Trajectory::new().state_at(0.0), None);
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn dimension_change_panics() {
        let mut t = sample();
        t.push(3.0, vec![1.0]);
    }

    #[test]
    fn display_and_default() {
        let t = Trajectory::default();
        assert!(t.is_empty());
        assert!(format!("{}", sample()).contains("3 points"));
        let _ = Trajectory::with_capacity(16);
    }
}
