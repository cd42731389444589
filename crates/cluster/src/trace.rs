//! Convergence traces: the (time, updates, RMSE) series that every figure
//! in the paper plots.

use crate::metrics::SimMetrics;
use crate::time::SimTime;

/// One sample of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Virtual (or wall-clock, for the threaded implementation) seconds
    /// since the start of the run.
    pub seconds: f64,
    /// Cumulative number of SGD (or equivalent) updates applied.
    pub updates: u64,
    /// Test RMSE at this point.
    pub test_rmse: f64,
    /// Training objective (Eq. 1) at this point, when the solver computes
    /// it (bulk-synchronous solvers do at epoch boundaries; asynchronous
    /// solvers may report `None`).
    pub objective: Option<f64>,
}

/// A full convergence curve plus run metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Solver name, e.g. `"NOMAD"`, `"DSGD"`.
    pub solver: String,
    /// Dataset name, e.g. `"netflix-sim"`.
    pub dataset: String,
    /// Number of machines used.
    pub machines: usize,
    /// Computation cores per machine.
    pub cores_per_machine: usize,
    /// The samples, in increasing time order.
    pub points: Vec<TracePoint>,
    /// Execution counters of the run.
    pub metrics: SimMetrics,
}

impl RunTrace {
    /// Creates an empty trace.
    pub fn new(
        solver: impl Into<String>,
        dataset: impl Into<String>,
        machines: usize,
        cores_per_machine: usize,
        num_workers: usize,
    ) -> Self {
        Self {
            solver: solver.into(),
            dataset: dataset.into(),
            machines,
            cores_per_machine,
            points: Vec::new(),
            metrics: SimMetrics::new(num_workers),
        }
    }

    /// Appends a sample; times must be non-decreasing.
    pub fn push(&mut self, point: TracePoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.seconds >= last.seconds,
                "trace times must be non-decreasing: {} after {}",
                point.seconds,
                last.seconds
            );
        }
        self.points.push(point);
    }

    /// The last (most converged) test RMSE, if any samples exist.
    pub fn final_rmse(&self) -> Option<f64> {
        self.points.last().map(|p| p.test_rmse)
    }

    /// The best (lowest) test RMSE seen during the run.
    pub fn best_rmse(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.test_rmse)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
    }

    /// Virtual seconds needed to first reach `target` test RMSE, if ever.
    /// This is the "time to convergence quality" comparison the paper's
    /// curves encode visually.
    pub fn time_to_rmse(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.test_rmse <= target)
            .map(|p| p.seconds)
    }

    /// Total elapsed seconds covered by the trace.
    pub fn elapsed(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.seconds)
    }

    /// Scales the time axis by `machines × cores`, producing the
    /// "seconds × machines × cores" axis of Figures 7, 9 and 17.
    pub fn resource_time_axis(&self) -> Vec<(f64, f64)> {
        let factor = (self.machines * self.cores_per_machine) as f64;
        self.points
            .iter()
            .map(|p| (p.seconds * factor, p.test_rmse))
            .collect()
    }

    /// Renders the trace as CSV rows `seconds,updates,test_rmse`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("seconds,updates,test_rmse,objective\n");
        for p in &self.points {
            let obj = p.objective.map(|o| format!("{o:.6}")).unwrap_or_default();
            out.push_str(&format!(
                "{:.6},{},{:.6},{}\n",
                p.seconds, p.updates, p.test_rmse, obj
            ));
        }
        out
    }

    /// Convenience used by metrics: `finished_at` as seconds.
    pub fn finished_at(&self) -> SimTime {
        self.metrics.finished_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mut t = RunTrace::new("NOMAD", "netflix-sim", 4, 4, 16);
        for (s, u, r) in [
            (0.0, 0, 1.2),
            (1.0, 100, 1.0),
            (2.0, 200, 0.95),
            (3.0, 300, 0.96),
        ] {
            t.push(TracePoint {
                seconds: s,
                updates: u,
                test_rmse: r,
                objective: None,
            });
        }
        t
    }

    #[test]
    fn push_and_accessors() {
        let t = sample_trace();
        assert_eq!(t.points.len(), 4);
        assert_eq!(t.final_rmse(), Some(0.96));
        assert_eq!(t.best_rmse(), Some(0.95));
        assert_eq!(t.elapsed(), 3.0);
    }

    #[test]
    fn time_to_rmse_finds_first_crossing() {
        let t = sample_trace();
        assert_eq!(t.time_to_rmse(1.0), Some(1.0));
        assert_eq!(t.time_to_rmse(0.95), Some(2.0));
        assert_eq!(t.time_to_rmse(0.5), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_time_panics() {
        let mut t = sample_trace();
        t.push(TracePoint {
            seconds: 1.0,
            updates: 400,
            test_rmse: 0.9,
            objective: None,
        });
    }

    #[test]
    fn resource_axis_multiplies_by_machines_and_cores() {
        let t = sample_trace();
        let scaled = t.resource_time_axis();
        assert_eq!(scaled[1].0, 16.0);
        assert_eq!(scaled[1].1, 1.0);
    }

    #[test]
    fn empty_trace_has_no_rmse() {
        let t = RunTrace::new("X", "d", 1, 1, 1);
        assert_eq!(t.final_rmse(), None);
        assert_eq!(t.best_rmse(), None);
        assert_eq!(t.elapsed(), 0.0);
    }

    #[test]
    fn csv_contains_header_and_rows() {
        let csv = sample_trace().to_csv();
        assert!(csv.starts_with("seconds,updates,test_rmse"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("2.000000,200,0.950000"));
    }
}
