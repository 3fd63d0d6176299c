//! Workload classification for decision queries.
//!
//! A dependable decision service serves very different callers from the
//! same replicas: a clinician blocking on a chart open (latency
//! matters), routine service traffic, and bulk audit sweeps replaying
//! thousands of historical queries (throughput matters, latency does
//! not). [`Priority`] names those three lanes and [`DecisionClass`]
//! carries the lane — plus an optional wall-clock deadline — alongside
//! a query as it descends from the enforcement point through the
//! cluster's fan-out scheduler.
//!
//! These types live in `dacs-pdp` because both the enforcement layer
//! (`dacs-pep`) and the replication layer (`dacs-cluster`) need them
//! and neither depends on the other.

/// The scheduling lane of a decision query.
///
/// Lanes are strict-priority at the fan-out scheduler: an
/// [`Priority::Interactive`] query overtakes every queued
/// [`Priority::Default`] and [`Priority::Bulk`] job, so a flooded bulk
/// lane cannot starve interactive decisions (a small anti-starvation
/// quota keeps the lower lanes draining).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Priority {
    /// A caller is blocking on this decision right now.
    Interactive,
    /// Ordinary service traffic (the default lane).
    #[default]
    Default,
    /// Bulk work — audit sweeps, cache warmers, replays — that must
    /// never delay the other two lanes.
    Bulk,
}

impl Priority {
    /// All lanes, highest priority first (experiment sweeps, per-lane
    /// metric registration).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Default, Priority::Bulk];

    /// Stable lowercase label, used in metric names
    /// (`dacs_sched_interactive_queue_wait_ns`, …).
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Default => "default",
            Priority::Bulk => "bulk",
        }
    }

    /// The lane's index in [`Priority::ALL`] (runqueue slot).
    pub fn lane(&self) -> usize {
        *self as usize
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The workload class of one decision query: its scheduling lane and,
/// optionally, a wall-clock deadline.
///
/// The deadline is *real* microseconds from submission, not simulated
/// `now_ms` time: it bounds how long the query may sit in a runqueue
/// before the scheduler must pop it, and lets deadline-aware pop
/// promote an about-to-expire job from a lower lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DecisionClass {
    /// The scheduling lane.
    pub priority: Priority,
    /// Wall-clock budget (µs from submission) for the query to be
    /// scheduled and answered; `None` means no deadline.
    pub deadline_us: Option<u64>,
}

impl DecisionClass {
    /// An interactive-lane class with no deadline.
    pub fn interactive() -> Self {
        DecisionClass {
            priority: Priority::Interactive,
            ..Default::default()
        }
    }

    /// A bulk-lane class with no deadline.
    pub fn bulk() -> Self {
        DecisionClass {
            priority: Priority::Bulk,
            ..Default::default()
        }
    }

    /// Sets the wall-clock deadline, in microseconds from submission.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_order_highest_first() {
        assert!(Priority::Interactive < Priority::Default);
        assert!(Priority::Default < Priority::Bulk);
        assert_eq!(Priority::ALL[Priority::Bulk.lane()], Priority::Bulk);
        assert_eq!(Priority::default(), Priority::Default);
        assert_eq!(Priority::Interactive.to_string(), "interactive");
    }

    #[test]
    fn class_builders() {
        let c = DecisionClass::interactive().with_deadline_us(500);
        assert_eq!(c.priority, Priority::Interactive);
        assert_eq!(c.deadline_us, Some(500));
        assert_eq!(DecisionClass::default().priority, Priority::Default);
        assert_eq!(DecisionClass::bulk().deadline_us, None);
    }
}
