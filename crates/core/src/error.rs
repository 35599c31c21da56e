//! Error types for the open workflow model.

use std::error::Error;
use std::fmt;

use crate::ids::{Mode, NodeKey, TaskId};
use crate::validate::ValidityError;

/// Errors raised while building or mutating workflow graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// An edge was added between two nodes of the same kind; workflow graphs
    /// are bipartite (label ↔ task only).
    NotBipartite {
        /// Edge origin.
        from: NodeKey,
        /// Edge destination.
        to: NodeKey,
    },
    /// A task appears with both conjunctive and disjunctive modes.
    ConflictingTaskMode {
        /// The conflicting task.
        task: TaskId,
        /// Mode already recorded for this task.
        existing: Mode,
        /// Mode that was being added.
        requested: Mode,
    },
    /// The mutation produced a structurally invalid workflow.
    Invalid(ValidityError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NotBipartite { from, to } => {
                write!(
                    f,
                    "edge {from} -> {to} is not bipartite: edges must connect a label and a task"
                )
            }
            ModelError::ConflictingTaskMode {
                task,
                existing,
                requested,
            } => write!(
                f,
                "task `{task}` is already {existing} and cannot also be {requested}"
            ),
            ModelError::Invalid(e) => write!(f, "resulting workflow is invalid: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidityError> for ModelError {
    fn from(e: ValidityError) -> Self {
        ModelError::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = ModelError::ConflictingTaskMode {
            task: TaskId::new("t"),
            existing: Mode::Conjunctive,
            requested: Mode::Disjunctive,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("task `t`"), "{msg}");
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn model_error_wraps_validity_error() {
        let ve = ValidityError::Cyclic;
        let me: ModelError = ve.into();
        assert!(matches!(me, ModelError::Invalid(_)));
        assert!(me.source().is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<ModelError>();
    }
}
