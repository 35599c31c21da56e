//! Repair (§5.1): an attempt that cannot allocate, or whose execution
//! watchdog expires, is retired and the whole pipeline retried under a
//! fresh attempt id — until the repair budget runs out and the problem
//! fails for good. The `repair` span marks the hand-over.
//!
//! Either way the attempt is over on every host: the initiator releases
//! what it holds for it and sends [`Msg::Abandon`] to each other host the
//! attempt awarded a task, whose handler releases the same. A bidder
//! that lost was already told so by its award, so the assignees are the
//! only hosts left holding anything of the attempt.

use std::collections::BTreeSet;

use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimTime};

use super::{Action, ActionQueue, HostCore, WorkflowEvent};
use crate::messages::{Msg, ProblemId};
use crate::report::ProblemStatus;
use crate::workflow_mgr::Workspace;

impl HostCore {
    /// `Watchdog`: execution overran its budget with goals still
    /// undelivered.
    pub(super) fn on_watchdog(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let unfinished = self
            .workspaces
            .get(&problem)
            .map(|ws| ws.report.status == ProblemStatus::Executing)
            .unwrap_or(false);
        if unfinished {
            self.repair_or_fail(
                problem,
                "execution watchdog expired before all goals were delivered".into(),
                now,
                q,
            );
        }
    }

    pub(super) fn repair_or_fail(
        &mut self,
        problem: ProblemId,
        reason: String,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let me = self.id();
        let (attempts_used, spec, original_start, assignees) =
            match self.workspaces.get_mut(&problem) {
                Some(ws) => {
                    ws.report.status = ProblemStatus::Failed {
                        reason: reason.clone(),
                    };
                    let assignees: BTreeSet<HostId> = ws
                        .assignments
                        .iter()
                        .map(|(_, a)| a.host)
                        .filter(|&host| host != me)
                        .collect();
                    (
                        ws.report.repair_attempts,
                        ws.spec.clone(),
                        ws.report.timings.initiated_at,
                        assignees,
                    )
                }
                None => return,
            };
        self.retire(problem);
        self.release(problem);
        for host in assignees {
            self.emit(q, host, Msg::Abandon { problem });
        }
        if attempts_used >= self.params.max_repair_attempts {
            if self.obs.trace.is_enabled() {
                self.trace(
                    now,
                    problem,
                    "failed",
                    SpanPhase::Instant,
                    0,
                    reason.clone(),
                );
            }
            self.span(now, problem, "problem", SpanPhase::End);
            q.push(Action::Event(WorkflowEvent::Failed { problem, reason }));
            return;
        }
        // "A failure … should result in a revised or repaired workflow,
        // which requires reconstruction [and] reallocation" (§5.1): retry
        // the whole pipeline under a fresh attempt id. Crashed hosts
        // simply never answer; round timeouts carry construction forward
        // with the knowledge that is still alive.
        let next = problem.next_attempt();
        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                problem,
                "repair",
                SpanPhase::Instant,
                0,
                format!("{reason}; retrying as attempt {}", next.attempt),
            );
        }
        self.span(now, problem, "problem", SpanPhase::End);
        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                next,
                "problem",
                SpanPhase::Begin,
                0,
                format!("repair attempt {}", next.attempt),
            );
        }
        self.span(now, next, "construct", SpanPhase::Begin);
        let n_peers = self.community.len().saturating_sub(1);
        let mut workspace = Workspace::new(next, spec, now, n_peers);
        workspace.report.repair_attempts = attempts_used + 1;
        // End-to-end timing spans the failed attempt too.
        workspace.report.timings.initiated_at = original_start;
        self.workspaces.insert(next, workspace);
        self.begin_construction(next, now, q);
    }
}
