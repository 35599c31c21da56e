//! Participant willingness preferences.
//!
//! §3.2 condition (5) for service availability: "whether the participant
//! is willing (according to their preferences) to perform the service."

use std::collections::BTreeSet;

use openwf_core::TaskId;

/// A participant's willingness policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Preferences {
    /// Upper bound on simultaneous commitments (people have finite days).
    pub max_commitments: usize,
    /// Tasks this participant refuses regardless of capability.
    pub refused_tasks: BTreeSet<TaskId>,
}

impl Default for Preferences {
    fn default() -> Self {
        Preferences {
            max_commitments: usize::MAX,
            refused_tasks: BTreeSet::new(),
        }
    }
}

impl Preferences {
    /// Fully willing: no refusals, unlimited commitments.
    pub fn willing() -> Self {
        Preferences::default()
    }

    /// Caps the number of simultaneous commitments.
    pub fn with_max_commitments(mut self, max: usize) -> Self {
        self.max_commitments = max;
        self
    }

    /// Refuses a specific task.
    pub fn refusing(mut self, task: impl Into<TaskId>) -> Self {
        self.refused_tasks.insert(task.into());
        self
    }

    /// Whether the participant is willing to take `task` given the
    /// number of commitments it currently has open (made and not yet
    /// ended).
    pub fn is_willing(&self, task: &TaskId, current_commitments: usize) -> bool {
        current_commitments < self.max_commitments && !self.refused_tasks.contains(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_willing() {
        let p = Preferences::willing();
        assert!(p.is_willing(&TaskId::new("anything"), 0));
        assert!(p.is_willing(&TaskId::new("anything"), 10_000));
    }

    #[test]
    fn commitment_cap_limits_willingness() {
        let p = Preferences::willing().with_max_commitments(2);
        assert!(p.is_willing(&TaskId::new("t"), 1));
        assert!(!p.is_willing(&TaskId::new("t"), 2));
    }

    #[test]
    fn refusals_are_task_specific() {
        let p = Preferences::willing().refusing("serve tables");
        assert!(!p.is_willing(&TaskId::new("serve tables"), 0));
        assert!(p.is_willing(&TaskId::new("serve buffet"), 0));
    }
}
