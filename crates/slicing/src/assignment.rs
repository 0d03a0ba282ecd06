//! The product of deadline distribution: per-subtask execution windows.

use std::fmt;

use serde::{Deserialize, Serialize};
use taskgraph::{EdgeId, SubtaskId, TaskGraph, Time};

/// A static execution window (*slice*): an absolute release time and an
/// absolute deadline.
///
/// The relative deadline d_i of the paper is
/// [`relative_deadline`](Window::relative_deadline) and the absolute
/// deadline D_i is [`deadline`](Window::deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Window {
    release: Time,
    deadline: Time,
}

impl Window {
    /// Creates a window from absolute release and deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline < release` — the slicing algorithm clamps
    /// degenerate windows before constructing them.
    pub fn new(release: Time, deadline: Time) -> Self {
        assert!(
            deadline >= release,
            "window deadline {deadline} precedes release {release}"
        );
        Window { release, deadline }
    }

    /// The absolute release time rᵢ.
    #[inline]
    pub fn release(self) -> Time {
        self.release
    }

    /// The absolute deadline Dᵢ.
    #[inline]
    pub fn deadline(self) -> Time {
        self.deadline
    }

    /// The relative deadline dᵢ = Dᵢ − rᵢ.
    #[inline]
    pub fn relative_deadline(self) -> Time {
        self.deadline - self.release
    }

    /// The same window translated `offset` time units into the future.
    ///
    /// Deadline distribution works in graph-local time (inputs released at
    /// their given releases, typically 0); an admission service re-anchors
    /// the result at the arrival instant by shifting every window.
    #[inline]
    #[must_use]
    pub fn shifted(self, offset: Time) -> Self {
        Window {
            release: self.release + offset,
            deadline: self.deadline + offset,
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.release, self.deadline)
    }
}

/// A complete deadline distribution over a task graph.
///
/// Produced by [`Slicer::distribute`]; consumed by the scheduler (windows
/// drive EDF priorities and, under the time-driven model, earliest start
/// times) and by analyses (laxity, lateness).
///
/// [`Slicer::distribute`]: crate::Slicer::distribute
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadlineAssignment {
    task_windows: Vec<Window>,
    /// Per edge, in edge order; empty when no message was materialized
    /// (every window `None`, as under CCNE).
    comm_windows: Vec<Option<Window>>,
    edges: usize,
    inverted_paths: usize,
    metric: String,
    estimate: String,
}

impl DeadlineAssignment {
    /// An assignment of `comm_windows` (one per edge, in edge order); when
    /// none is materialized, none is stored.
    pub(crate) fn new(
        task_windows: Vec<Window>,
        mut comm_windows: Vec<Option<Window>>,
        inverted_paths: usize,
        metric: String,
        estimate: String,
    ) -> Self {
        let edges = comm_windows.len();
        if comm_windows.iter().all(Option::is_none) {
            comm_windows = Vec::new();
        }
        DeadlineAssignment {
            task_windows,
            comm_windows,
            edges,
            inverted_paths,
            metric,
            estimate,
        }
    }

    /// The execution window of a subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the distributed graph.
    #[inline]
    pub fn window(&self, id: SubtaskId) -> Window {
        self.task_windows[id.index()]
    }

    /// The execution window of a communication subtask, or `None` if the
    /// message's estimated cost was negligible (§4.2).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the distributed graph.
    #[inline]
    pub fn comm_window(&self, id: EdgeId) -> Option<Window> {
        assert!(
            id.index() < self.edges,
            "edge {id} is not in the distributed graph"
        );
        self.comm_windows.get(id.index()).copied().flatten()
    }

    /// The assigned release time of a subtask.
    pub fn release(&self, id: SubtaskId) -> Time {
        self.window(id).release()
    }

    /// The assigned absolute deadline of a subtask.
    pub fn absolute_deadline(&self, id: SubtaskId) -> Time {
        self.window(id).deadline()
    }

    /// The laxity of a subtask: how long its start may be delayed without
    /// missing its absolute deadline (window length minus execution time).
    pub fn laxity(&self, graph: &TaskGraph, id: SubtaskId) -> Time {
        self.window(id).relative_deadline() - graph.subtask(id).wcet()
    }

    /// The minimum laxity over all subtasks — the quantity BST maximizes
    /// under strict locality constraints.
    pub fn min_laxity(&self, graph: &TaskGraph) -> Time {
        graph
            .subtask_ids()
            .map(|id| self.laxity(graph, id))
            .min()
            .expect("validated graphs are non-empty")
    }

    /// Number of critical paths whose window was inverted (deadline anchor
    /// before release anchor) and had to be clamped. Non-zero values
    /// indicate an overconstrained instance.
    pub fn inverted_paths(&self) -> usize {
        self.inverted_paths
    }

    /// Name of the metric that produced this assignment.
    pub fn metric_name(&self) -> &str {
        &self.metric
    }

    /// Label of the communication-cost estimation strategy used.
    pub fn estimate_name(&self) -> &str {
        &self.estimate
    }

    /// Number of subtasks covered by this assignment.
    pub fn subtask_count(&self) -> usize {
        self.task_windows.len()
    }

    /// The same assignment translated `offset` time units into the future:
    /// every task and communication window is [`Window::shifted`] uniformly,
    /// preserving all relative deadlines, laxities, and edge orderings.
    ///
    /// This is how an admission service re-anchors a graph-local
    /// distribution at its arrival instant before trial-scheduling it
    /// against the platform's committed load. Validate **before** shifting:
    /// [`validate`](DeadlineAssignment::validate) compares assigned output
    /// deadlines against the graph's *given* (graph-local) deadlines, which
    /// a shifted assignment legitimately exceeds.
    #[must_use]
    pub fn shifted(&self, offset: Time) -> Self {
        DeadlineAssignment {
            task_windows: self
                .task_windows
                .iter()
                .map(|w| w.shifted(offset))
                .collect(),
            comm_windows: self
                .comm_windows
                .iter()
                .map(|w| w.map(|w| w.shifted(offset)))
                .collect(),
            edges: self.edges,
            inverted_paths: self.inverted_paths,
            metric: self.metric.clone(),
            estimate: self.estimate.clone(),
        }
    }

    /// Checks the structural soundness of the assignment against its graph:
    /// window ordering along every precedence edge, input releases and
    /// output deadlines.
    pub fn validate(&self, graph: &TaskGraph) -> ValidationReport {
        let mut violations = Vec::new();

        for eid in graph.edge_ids() {
            let edge = graph.edge(eid);
            let producer_deadline = self.absolute_deadline(edge.src());
            let consumer_release = self.release(edge.dst());
            let ordered = match self.comm_window(eid) {
                Some(chi) => {
                    producer_deadline <= chi.release() && chi.deadline() <= consumer_release
                }
                None => producer_deadline <= consumer_release,
            };
            if !ordered {
                violations.push(SliceViolation::EdgeOrdering {
                    edge: eid,
                    producer_deadline,
                    consumer_release,
                });
            }
        }

        for &id in graph.inputs() {
            let given = graph.subtask(id).release().expect("inputs are anchored");
            let assigned = self.release(id);
            if assigned < given {
                violations.push(SliceViolation::InputRelease {
                    subtask: id,
                    assigned,
                    given,
                });
            }
        }
        for &id in graph.outputs() {
            let given = graph.subtask(id).deadline().expect("outputs are anchored");
            let assigned = self.absolute_deadline(id);
            if assigned > given {
                violations.push(SliceViolation::OutputDeadline {
                    subtask: id,
                    assigned,
                    given,
                });
            }
        }

        ValidationReport { violations }
    }
}

/// A structural violation found by [`DeadlineAssignment::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SliceViolation {
    /// A producer's window ends after its consumer's begins.
    EdgeOrdering {
        /// The offending precedence edge.
        edge: EdgeId,
        /// Absolute deadline of the producer.
        producer_deadline: Time,
        /// Assigned release of the consumer.
        consumer_release: Time,
    },
    /// An input subtask was assigned a release before its given release.
    InputRelease {
        /// The input subtask.
        subtask: SubtaskId,
        /// Assigned release.
        assigned: Time,
        /// Given release.
        given: Time,
    },
    /// An output subtask was assigned a deadline after its end-to-end
    /// deadline.
    OutputDeadline {
        /// The output subtask.
        subtask: SubtaskId,
        /// Assigned absolute deadline.
        assigned: Time,
        /// Given end-to-end deadline.
        given: Time,
    },
}

impl fmt::Display for SliceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceViolation::EdgeOrdering {
                edge,
                producer_deadline,
                consumer_release,
            } => write!(
                f,
                "edge {edge}: producer deadline {producer_deadline} exceeds consumer release {consumer_release}"
            ),
            SliceViolation::InputRelease {
                subtask,
                assigned,
                given,
            } => write!(
                f,
                "input {subtask}: assigned release {assigned} precedes given release {given}"
            ),
            SliceViolation::OutputDeadline {
                subtask,
                assigned,
                given,
            } => write!(
                f,
                "output {subtask}: assigned deadline {assigned} exceeds end-to-end deadline {given}"
            ),
        }
    }
}

/// Result of validating a [`DeadlineAssignment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    violations: Vec<SliceViolation>,
}

impl ValidationReport {
    /// Returns `true` if no violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, most recently discovered last.
    pub fn violations(&self) -> &[SliceViolation] {
        &self.violations
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(f, "assignment is structurally sound")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_accessors() {
        let w = Window::new(Time::new(10), Time::new(35));
        assert_eq!(w.release(), Time::new(10));
        assert_eq!(w.deadline(), Time::new(35));
        assert_eq!(w.relative_deadline(), Time::new(25));
        assert_eq!(w.to_string(), "[10, 35]");
        let degenerate = Window::new(Time::new(5), Time::new(5));
        assert_eq!(degenerate.relative_deadline(), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "precedes release")]
    fn window_rejects_inversion() {
        let _ = Window::new(Time::new(10), Time::new(9));
    }

    #[test]
    fn shifted_translates_uniformly() {
        let w = Window::new(Time::new(10), Time::new(35));
        let s = w.shifted(Time::new(100));
        assert_eq!(s.release(), Time::new(110));
        assert_eq!(s.deadline(), Time::new(135));
        assert_eq!(s.relative_deadline(), w.relative_deadline());

        let a = DeadlineAssignment::new(
            vec![w, Window::new(Time::new(35), Time::new(50))],
            vec![None, Some(Window::new(Time::new(35), Time::new(40)))],
            1,
            "norm".into(),
            "ccne".into(),
        );
        let shifted = a.shifted(Time::new(7));
        assert_eq!(shifted.release(SubtaskId::new(0)), Time::new(17));
        assert_eq!(shifted.absolute_deadline(SubtaskId::new(1)), Time::new(57));
        assert_eq!(shifted.comm_window(EdgeId::new(0)), None);
        assert_eq!(
            shifted.comm_window(EdgeId::new(1)),
            Some(Window::new(Time::new(42), Time::new(47)))
        );
        assert_eq!(shifted.inverted_paths(), 1);
        assert_eq!(shifted.metric_name(), "norm");
        assert_eq!(shifted.estimate_name(), "ccne");
        // Zero offset is the identity.
        assert_eq!(a.shifted(Time::ZERO), a);
    }

    /// A three-subtask chain, sliced under `estimate` on two processors.
    fn sliced_chain(estimate: crate::CommEstimate) -> (TaskGraph, DeadlineAssignment) {
        let mut b = TaskGraph::builder();
        let a = b.add_subtask(taskgraph::Subtask::new(Time::new(10)).released_at(Time::ZERO));
        let m = b.add_subtask(taskgraph::Subtask::new(Time::new(30)));
        let z = b.add_subtask(taskgraph::Subtask::new(Time::new(20)).due_at(Time::new(200)));
        b.add_edge(a, m, 10).unwrap();
        b.add_edge(m, z, 10).unwrap();
        let g = b.build().unwrap();
        let p = platform::Platform::paper(2).unwrap();
        let asg = crate::Slicer::bst_pure()
            .with_estimate(estimate)
            .distribute(&g, &p)
            .unwrap();
        (g, asg)
    }

    #[test]
    fn no_comm_windows_are_stored_when_none_is_materialized() {
        let (g, ccne) = sliced_chain(crate::CommEstimate::Ccne);
        assert!(ccne.comm_windows.is_empty());
        assert_eq!(ccne.edges, g.edge_count());
        for eid in g.edge_ids() {
            assert_eq!(ccne.comm_window(eid), None);
        }
        let (_, ccaa) = sliced_chain(crate::CommEstimate::Ccaa);
        assert_eq!(ccaa.comm_windows.len(), g.edge_count());
        assert!(g.edge_ids().all(|eid| ccaa.comm_window(eid).is_some()));
    }

    #[test]
    #[should_panic(expected = "not in the distributed graph")]
    fn comm_window_panics_on_a_foreign_edge_without_stored_windows() {
        let (g, ccne) = sliced_chain(crate::CommEstimate::Ccne);
        let _ = ccne.comm_window(EdgeId::new(g.edge_count() as u32));
    }

    #[test]
    fn shifted_keeps_an_assignment_without_stored_comm_windows() {
        let (g, ccne) = sliced_chain(crate::CommEstimate::Ccne);
        let shifted = ccne.shifted(Time::new(7));
        assert!(shifted.comm_windows.is_empty());
        assert_eq!(shifted.edges, g.edge_count());
        assert_eq!(shifted.comm_window(EdgeId::new(1)), None);
        for id in g.subtask_ids() {
            assert_eq!(shifted.window(id), ccne.window(id).shifted(Time::new(7)));
        }
        assert_eq!(ccne.shifted(Time::ZERO), ccne);
    }

    #[test]
    fn baseline_and_sliced_assignments_equal_their_explicit_form() {
        let (g, ccne) = sliced_chain(crate::CommEstimate::Ccne);
        let baseline = crate::distribute_baseline(&g, crate::BaselineStrategy::Effective);
        for asg in [ccne, baseline] {
            let explicit = DeadlineAssignment::new(
                g.subtask_ids().map(|id| asg.window(id)).collect(),
                vec![None; g.edge_count()],
                asg.inverted_paths(),
                asg.metric_name().to_owned(),
                asg.estimate_name().to_owned(),
            );
            assert_eq!(explicit, asg);
        }
    }

    #[test]
    fn violation_display() {
        let e = SliceViolation::EdgeOrdering {
            edge: EdgeId::new(0),
            producer_deadline: Time::new(10),
            consumer_release: Time::new(5),
        };
        assert!(e.to_string().contains("m0"));
        let i = SliceViolation::InputRelease {
            subtask: SubtaskId::new(1),
            assigned: Time::ZERO,
            given: Time::new(4),
        };
        assert!(i.to_string().contains("t1"));
        let o = SliceViolation::OutputDeadline {
            subtask: SubtaskId::new(2),
            assigned: Time::new(100),
            given: Time::new(90),
        };
        assert!(o.to_string().contains("end-to-end"));
    }
}
