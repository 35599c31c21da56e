//! The sans-io protocol core: one host's complete OWMS state machine,
//! free of any transport.
//!
//! [`HostCore`] owns the paper's §4.2 components — the construction
//! subsystem (the Workflow Manager's workspaces, with the query rounds
//! in `construct.rs` and the Auction Manager in `allocate.rs`, both over
//! the attempt's working set) and the execution subsystem (Fragment,
//! Service and Schedule Managers, with auction participation in
//! `allocate.rs` and the Execution Manager in `execute.rs`, both over
//! the schedule's commitments) — but performs **no I/O**. Every input
//! arrives through a narrow poll surface:
//!
//! * [`HostCore::handle_frame`] — a protocol message from a peer, as
//!   the encoded wire frame it travelled in (decoded through the host's
//!   vocabulary trust boundary): the one way a message enters a core,
//!   on every transport,
//! * [`HostCore::handle_timer`] — a timer the driver armed on the
//!   core's behalf fired,
//! * [`HostCore::tick`] — a clock poll for drivers without a timer
//!   facility: fires every armed timer that has come due.
//!
//! Each call returns an [`ActionQueue`] of typed effects — messages to
//! send, as encoded frames ([`Action::SendBytes`]), timers to arm
//! ([`Action::SetTimer`]), observability events
//! ([`Action::Event`]) — plus the modeled compute time the call
//! charged. A *driver* (see [`crate::driver`]) owns the transport: the
//! deterministic simulator, the TCP server, or any future async executor
//! can drive the identical protocol logic. [`HostCore::initiate`] is the
//! local Workflow Initiator's entry, not a peer's.
//!
//! # Where things live
//!
//! This file holds the struct, its accessors, the poll surface, the
//! outbound / timer helpers and two routers — `dispatch_msg` and
//! `fire_timer` — whose arms are one call each. The protocol itself is
//! one file per phase, named as the trace spans name them; `config.rs`
//! ([`HostConfig`]), `action.rs` ([`Action`], [`ActionQueue`]) and
//! `observe.rs` (metrics, trace spans) are what the phases share.
//!
//! | [`Msg`] variant | sent by | owner |
//! |---|---|---|
//! | `Initiate` | this host, for a problem it initiates | `construct.rs` |
//! | `FragmentQuery` (the frontier labels the recipient's knowhow consumes) | the problem's initiator, a member | `construct.rs` |
//! | `FragmentReply` (fragments) | another member | `construct.rs` |
//! | `CallForBids` (the tasks the recipient serves, one per member) | the problem's initiator, a member | `allocate.rs` |
//! | `Bids` (an answer per task called) | another member | `allocate.rs` |
//! | `Award` (tasks won and lost) | the problem's initiator, a member | `allocate.rs` |
//! | `Execute` | the problem's initiator, a member | `execute.rs` |
//! | `InputDelivery`, `GoalDelivered` | a member | `execute.rs` |
//! | `Abandon` | the problem's initiator, a member | `repair.rs` sends it, `release` (here) handles it |
//! | `Advertise` (what the sender can answer) | another member, about itself | `advertise.rs` |
//!
//! The "sent by" column is the core's whole rule on senders, and
//! `dispatch_msg` checks it (`admits`) before any handler runs: a frame
//! from anyone else is charged and counted like any message, then
//! answered by absence and counted as `core.sender_refused`. So no
//! handler asks who sent its message, and a new variant does not compile
//! before it has a rule. Honest traffic never meets a refusal: an
//! initiator is a member of the community it asks and of its executors',
//! an executor of its consumers'.
//!
//! | `TimerPurpose` | guards | owner |
//! |---|---|---|
//! | `RoundTimeout` | the open round | `construct.rs` |
//! | `AuctionDeadline(t)` | `t`'s open auction, which has a best bid | `allocate.rs` |
//! | `AuctionTimeout` | the open auctions of an allocating attempt | `allocate.rs` |
//! | `Commitment(t)` | the commitment for `t`, short of `Done` | `execute.rs` |
//! | `Watchdog` | the executing attempt's working set | `repair.rs` |
//!
//! A timer is named by its problem and purpose (with the task, where the
//! purpose has one); arming a name replaces its timer. `retire` disarms
//! an attempt's guards, and `release` every timer of a superseded
//! attempt. A commitment's one timer, due at its state's next deadline
//! (`execute.rs`), ends it on its holder whether or not the initiator's
//! `Abandon` arrives.
//!
//! # What a core may hold
//!
//! The "guards" column is rule 1 of one statement, `audit.rs`, of what a
//! core may hold between inputs ([`Inconsistency`] lists the rules).
//! [`HostCore::audit`] names each broken rule; debug builds check the
//! problem each input named at the end of `dispatch_msg` and
//! `fire_timer`, and [`audit_quiescent`](crate::driver::audit_quiescent)
//! adds what holds across hosts at rest. New state adds its rule there.
//! The flight recorder ([`HostCore::flight`], `observe.rs`) is the one
//! exception, and needs no rule: it is bounded by its type, the core
//! only ever writes to it, and no protocol decision reads it.
//!
//! What each member can answer is `advertise.rs`: this host's own
//! summary, which it advertises when asked by a query naming another
//! version of it (backing off while one asker keeps doing so) and to
//! every member after its knowhow or services
//! changed (checked at the start of every input), and the summary each
//! other member advertised, which the first round of a problem is
//! planned from, every round and call for bids reads to ask each member
//! only what it can answer, and every round's close reads to refute the
//! tasks nobody serves. A core talks to the community but
//! itself and the members it quarantined (`peers`): it asks, calls and
//! advertises to no one else.
//!
//! `construct.rs` hands over to `allocate.rs` when the frontier
//! construction finishes (`start_allocation` opens one auction per
//! task), `allocate.rs` to `execute.rs` when `settle` finds the last one
//! decided (`finalize_allocation` sends the plans), and both to
//! `repair.rs` (`repair_or_fail`) when an attempt cannot go on; repair
//! tells the attempt's assignees to `Abandon` it and opens the new
//! attempt's first round through `begin_construction`, as `Initiate`
//! does.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use openwf_core::TaskId;
use openwf_obs::{Detail, FlightRecorder, SpanPhase};
use openwf_simnet::{HostId, SimTime, TimerToken};
use openwf_wire::{DecodeScratch, VocabularyBudget, WireError};

use crate::codec;
use crate::fragment_mgr::FragmentManager;
use crate::messages::{Msg, ProblemId};
use crate::params::RuntimeParams;
use crate::prefs::Preferences;
use crate::schedule::ScheduleManager;
use crate::service::ServiceManager;
use crate::timers::TimerTable;
use crate::workflow_mgr::Workspace;

mod action;
mod advertise;
mod allocate;
mod audit;
mod config;
mod construct;
mod execute;
mod observe;
mod repair;
#[cfg(test)]
mod tests;

pub use action::{Action, ActionQueue, OutboundMode, WorkflowEvent};
use advertise::OwnSummary;
pub(crate) use advertise::PeerSummary;
pub use audit::Inconsistency;
pub use config::{HostConfig, StorageConfig};
use observe::CoreMetrics;

/// What a timer guards, beside its problem (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum TimerPurpose {
    RoundTimeout,
    AuctionDeadline(TaskId),
    AuctionTimeout,
    Commitment(TaskId),
    Watchdog,
}

impl TimerPurpose {
    /// True for the timers an initiator arms over an open attempt, which
    /// the attempt's end makes moot — all but a member's own commitment
    /// timers, which go on.
    fn guards_attempt(&self) -> bool {
        !matches!(self, Self::Commitment(_))
    }
}

/// One participant's complete protocol state machine (all §4.2 managers),
/// driven sans-io through the poll surface described in the module docs.
pub struct HostCore {
    /// Identity, fixed at first [`HostCore::bind`].
    me: Option<HostId>,
    community: Vec<HostId>,
    params: RuntimeParams,
    prefs: Preferences,
    /// Execution subsystem.
    fragment_mgr: FragmentManager,
    service_mgr: ServiceManager,
    schedule: ScheduleManager,
    /// This host's summary as last taken (see `advertise.rs`).
    own: OwnSummary,
    /// The summary each other member advertised, while it is a member
    /// and not quarantined.
    summaries: BTreeMap<HostId, Arc<PeerSummary>>,
    /// Per asker whose last query named another version of this host's
    /// summary: this host's version then, and how many queries in a row
    /// named another (see `advertise.rs`).
    advertised: BTreeMap<HostId, (u64, u32)>,
    /// Construction subsystem: the Workflow Manager's workspaces, one
    /// per attempt this host initiated. Keyed by problem, so a problem's
    /// attempts sit side by side and the latest is the last of them.
    workspaces: BTreeMap<ProblemId, Workspace>,
    /// Vocabulary trust boundary: the decode-side budget every peer
    /// frame's name table is charged against (see
    /// [`HostCore::handle_frame`]).
    vocab: VocabularyBudget,
    /// Per-host decode state: recycled frame/name/staging buffers plus
    /// the fragment-identity cache (primed with own knowhow at
    /// construction, so an echoed fragment decodes to the shared `Arc`).
    decode: DecodeScratch,
    vocabulary_rejections: u64,
    /// Per-peer vocabulary rejection tallies;
    /// [`HostConfig::max_vocabulary_rejections`] acts on them.
    vocab_rejections_by_peer: HashMap<HostId, u64>,
    max_vocab_rejections: Option<u64>,
    quarantined: HashSet<HostId>,
    outbound: OutboundMode,
    /// Armed timers in firing order, each named by its problem and
    /// purpose. Due times let [`HostCore::tick`]
    /// fire timers on a clock poll and [`HostCore::next_timer_due`]
    /// tell a poll-based driver how long it may sleep.
    timers: TimerTable<TimerPurpose>,
    /// The registry's resolved metric handles + publish baselines (see
    /// [`HostConfig::metrics`]).
    metrics: CoreMetrics,
    /// The newest trace events of this host, always on; written here,
    /// read only by whoever inspects the core (see the module docs).
    flight: FlightRecorder,
}

impl HostCore {
    /// Builds a core from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`StorageConfig::Durable`] storage cannot be opened
    /// or an insert cannot be persisted (I/O failure, corrupt log).
    pub fn new(config: HostConfig, params: RuntimeParams) -> Self {
        let mut fragment_mgr = match config.storage {
            StorageConfig::InMemory => FragmentManager::new(),
            StorageConfig::Durable {
                dir,
                segment_bytes,
                policy,
            } => FragmentManager::durable_with(dir, segment_bytes, policy)
                .expect("open the durable fragment log"),
        };
        for f in config.fragments {
            // A durable store may have replayed this exact fragment
            // from its log already (a restarted host re-running its
            // config): re-appending it would grow the log by one
            // replace-by-id record per restart, so skip byte-identical
            // knowhow. A *changed* fragment under the same id still
            // replaces the logged one.
            let already_logged = fragment_mgr.store().get(f.id()).is_some_and(|existing| {
                let mut a = Vec::new();
                let mut b = Vec::new();
                openwf_wire::encode_fragment(existing, &mut a);
                openwf_wire::encode_fragment(&f, &mut b);
                a == b
            });
            if !already_logged {
                fragment_mgr.add(f);
            }
        }
        let mut vocab = VocabularyBudget::new(config.max_interned_names);
        if vocab.cap().is_some() {
            // Own knowhow is trusted: it seeds the vocabulary instead of
            // being checked against the cap. Seed from the *manager*,
            // not the config, so knowhow replayed from a durable log
            // keeps its budget headroom across restarts.
            for f in fragment_mgr.fragments() {
                vocab.seed_fragment(f);
            }
        }
        let mut decode = DecodeScratch::new();
        fragment_mgr.prime_cache(decode.cache_mut());
        let mut service_mgr = ServiceManager::new();
        for s in config.services {
            service_mgr.register(s);
        }
        let schedule = ScheduleManager::new(config.position, config.motion, config.site);
        let own = OwnSummary::take(&fragment_mgr, &service_mgr);
        HostCore {
            me: None,
            community: Vec::new(),
            params,
            prefs: config.prefs,
            fragment_mgr,
            service_mgr,
            schedule,
            own,
            summaries: BTreeMap::new(),
            advertised: BTreeMap::new(),
            workspaces: BTreeMap::new(),
            vocab,
            decode,
            vocabulary_rejections: 0,
            vocab_rejections_by_peer: HashMap::new(),
            max_vocab_rejections: config.max_vocabulary_rejections,
            quarantined: HashSet::new(),
            outbound: OutboundMode::Encoded,
            timers: TimerTable::new(),
            metrics: CoreMetrics::resolve(config.metrics),
            flight: FlightRecorder::default(),
        }
    }

    /// Fixes this core's host identity. Drivers call it once, when they
    /// take the core in (re-binding the same id is a no-op).
    ///
    /// # Panics
    ///
    /// Panics on an attempt to re-bind to a *different* id — one core
    /// drives one host.
    pub fn bind(&mut self, me: HostId) {
        match self.me {
            None => self.me = Some(me),
            Some(bound) => assert_eq!(bound, me, "a HostCore drives exactly one host identity"),
        }
    }

    /// The bound identity.
    ///
    /// # Panics
    ///
    /// Panics before the first [`HostCore::bind`].
    pub fn id(&self) -> HostId {
        self.me.expect("HostCore::bind before driving")
    }

    /// Selects how outbound messages are emitted (see [`OutboundMode`]).
    pub fn set_outbound_mode(&mut self, mode: OutboundMode) {
        self.outbound = mode;
    }

    /// Number of peer frames/replies rejected at the vocabulary trust
    /// boundary (see [`HostConfig::max_interned_names`]).
    pub fn vocabulary_rejections(&self) -> u64 {
        self.vocabulary_rejections
    }

    /// Vocabulary rejections attributed to one peer (what
    /// [`HostConfig::max_vocabulary_rejections`] acts on).
    pub fn vocabulary_rejections_from(&self, peer: HostId) -> u64 {
        self.vocab_rejections_by_peer
            .get(&peer)
            .copied()
            .unwrap_or(0)
    }

    /// Distinct names recorded in the vocabulary budget (own knowhow —
    /// including knowhow replayed from a durable log — plus admitted
    /// peer names). Always 0 for uncapped hosts, which track nothing.
    pub fn vocabulary_names(&self) -> usize {
        self.vocab.len()
    }

    /// True when `peer` has been quarantined for minting past the
    /// vocabulary cap (see [`HostConfig::max_vocabulary_rejections`]).
    pub fn is_quarantined(&self, peer: HostId) -> bool {
        self.quarantined.contains(&peer)
    }

    /// Sets the community membership (all host ids, including this one).
    /// Called by the driver before traffic flows. The summaries of hosts
    /// that are no longer members are dropped, and so are the counts of
    /// their queries that named another version of this host's summary.
    pub fn set_community(&mut self, community: Vec<HostId>) {
        self.summaries.retain(|peer, _| community.contains(peer));
        self.advertised.retain(|peer, _| community.contains(peer));
        self.community = community;
    }

    /// The workspace of one attempt this host initiated, for
    /// inspection.
    pub fn workspace(&self, problem: ProblemId) -> Option<&Workspace> {
        self.workspaces.get(&problem)
    }

    /// Every workspace of this host (one per attempt it initiated), in
    /// problem order.
    pub fn workspaces(&self) -> impl Iterator<Item = &Workspace> + '_ {
        self.workspaces.values()
    }

    /// The fragment manager, for inspection and late configuration.
    pub fn fragment_mgr_mut(&mut self) -> &mut FragmentManager {
        &mut self.fragment_mgr
    }

    /// The fragment manager (read-only).
    pub fn fragment_mgr(&self) -> &FragmentManager {
        &self.fragment_mgr
    }

    /// The service manager, for inspection, hooks and late configuration.
    pub fn service_mgr_mut(&mut self) -> &mut ServiceManager {
        &mut self.service_mgr
    }

    /// The service manager (read-only).
    pub fn service_mgr(&self) -> &ServiceManager {
        &self.service_mgr
    }

    /// The schedule manager (commitments, from bid holds to finished
    /// tasks), for inspection.
    pub fn schedule(&self) -> &ScheduleManager {
        &self.schedule
    }

    /// The workspace of the **latest attempt** of the problem `base`
    /// belongs to, if any: the last of the problem's attempts, which sit
    /// side by side in the workspace map.
    pub fn latest_attempt(&self, base: ProblemId) -> Option<&Workspace> {
        self.workspaces
            .range(audit::attempts_of(base))
            .next_back()
            .map(|(_, ws)| ws)
    }

    /// Earliest due time among armed timers — how long a poll-based
    /// driver may sleep before the next [`HostCore::tick`] has work.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.timers.next_due()
    }

    /// Number of timers currently armed. A timer is disarmed once it can
    /// no longer matter — a round's timeout when the round closes, an
    /// attempt's guards when it turns terminal — and a commitment keeps
    /// its one timer only until it is done or dropped, so on a long-lived
    /// host this tracks the work in flight, not the problems ever served.
    pub fn armed_timer_count(&self) -> usize {
        self.timers.len()
    }

    /// This host's flight recorder: its newest trace events, oldest
    /// first (see [`FlightRecorder`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Decode-side fragment-identity cache statistics `(hits, misses)`
    /// — how often a peer-sent fragment decoded to an already-known
    /// shared `Arc` instead of rebuilding the graph.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        let cache = self.decode.cache();
        (cache.hits(), cache.misses())
    }

    // ---- the poll surface ------------------------------------------------

    /// Handles one delivered wire frame (a complete `TAG_MSG` frame as
    /// produced by [`crate::codec::encode_msg`]): decodes it and
    /// dispatches the message. **Every peer frame's whole name table is
    /// charged against this host's vocabulary budget before anything is
    /// interned** — at a networked boundary the interner can only grow
    /// through decode, so the cap must guard every frame, not just
    /// fragment replies. Frames from *self* (a driver looping back the
    /// host's own traffic) are trusted like own knowhow and bypass the
    /// budget.
    ///
    /// Decode failures never panic and never poison the core. A
    /// [`WireError::VocabularyExceeded`] drops the frame with the
    /// interner untouched; it additionally books a rejection against
    /// the sending peer (possibly quarantining it, see
    /// [`HostConfig::max_vocabulary_rejections`]) only when the frame
    /// was a `FragmentReply` — the family through which a peer mints
    /// *knowhow* names of its own choosing. Other over-budget frames
    /// (a query echoing a third party's rich frontier, say) are not
    /// evidence of minting by the sender and are dropped without
    /// blame. Any other wire error is transport-level loss: dropped
    /// silently, like a message the network never delivered.
    ///
    /// An over-budget reply cannot be attributed to its query round
    /// (nothing of it decodes), so that round completes via its
    /// timeout.
    pub fn handle_frame(&mut self, from: HostId, bytes: &[u8], now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        self.advertise_changes(&mut q);
        if self.quarantined.contains(&from) {
            return q;
        }
        let decoded = if from == self.id() {
            codec::decode_msg_with(bytes, &mut VocabularyBudget::unlimited(), &mut self.decode)
        } else {
            codec::decode_msg_with(bytes, &mut self.vocab, &mut self.decode)
        };
        match decoded {
            Ok((msg, _consumed)) => self.dispatch_msg(from, msg, now, &mut q),
            Err(WireError::VocabularyExceeded { .. }) => {
                // Cold path: re-parse only to classify the offence.
                if codec::frame_is_fragment_reply(bytes).unwrap_or(false) {
                    self.note_rejection(from, now, &mut q);
                }
            }
            Err(_) => {}
        }
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Handles a fired timer (one the driver armed from an
    /// [`Action::SetTimer`]).
    pub fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        self.advertise_changes(&mut q);
        let Some((due, problem, purpose)) = self.timers.take(token.0) else {
            return q; // already fired, or disarmed since it was armed
        };
        self.metrics.timer_lag_us.record(now.since(due).as_micros());
        self.fire_timer(problem, purpose, now, &mut q);
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Clock poll: fires every armed timer whose due time is at or
    /// before `now`, in due order. For drivers without a timer facility
    /// — a transport that can only say "this much time has passed" calls
    /// `tick` instead of scheduling [`Action::SetTimer`] deliveries
    /// (drivers that do deliver timers must not *also* tick past them,
    /// or timers fire twice... which the protocol tolerates but models
    /// nothing).
    pub fn tick(&mut self, now: SimTime) -> ActionQueue {
        let mut q = ActionQueue::new();
        self.advertise_changes(&mut q);
        // One at a time, in `(due, token)` order: firing a timer can arm
        // new (already-due) timers, which an upfront snapshot would miss.
        while let Some((due, problem, purpose)) = self.timers.pop_due(now) {
            self.metrics.timer_lag_us.record(now.since(due).as_micros());
            self.fire_timer(problem, purpose, now, &mut q);
        }
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    /// Submits a problem specification locally — what the paper's
    /// Workflow Initiator does on the initiating host. Equivalent to
    /// delivering an encoded [`Msg::Initiate`] from self; provided so
    /// embedders driving a bare core need no self-addressed message
    /// plumbing.
    pub fn initiate(
        &mut self,
        problem: ProblemId,
        spec: openwf_core::Spec,
        now: SimTime,
    ) -> ActionQueue {
        let mut q = ActionQueue::new();
        self.advertise_changes(&mut q);
        self.dispatch_msg(self.id(), Msg::Initiate { problem, spec }, now, &mut q);
        self.metrics.queue_depth.record(q.len() as u64);
        q
    }

    // ---- outbound helpers ------------------------------------------------

    fn emit(&self, q: &mut ActionQueue, to: HostId, msg: Msg) {
        match self.outbound {
            OutboundMode::Typed => q.push(Action::Send { to, msg }),
            OutboundMode::Encoded => {
                let mut bytes = Vec::new();
                codec::encode_msg(&msg, &mut bytes);
                q.push(Action::SendBytes { to, bytes });
            }
        }
    }

    /// Arms `problem`'s `purpose` timer for `due` (at the earliest
    /// `now`), replacing the one armed under that name. A driver that delivers timers
    /// still hands a replaced or disarmed timer's token back when it is
    /// due; [`HostCore::handle_timer`] answers that with an empty queue.
    fn arm(
        &mut self,
        q: &mut ActionQueue,
        now: SimTime,
        due: SimTime,
        problem: ProblemId,
        purpose: TimerPurpose,
    ) {
        let delay = due.since(now);
        let token = TimerToken(self.timers.arm(now + delay, problem, purpose));
        q.push(Action::SetTimer { delay, token });
    }

    /// The attempt `problem` turned terminal: its workspace keeps the
    /// record and drops the working set (see [`Workspace`]), and the
    /// timers that guarded the attempt — its round, auctions, allocation
    /// and execution — are disarmed: none of them can matter any more.
    fn retire(&mut self, problem: ProblemId) {
        if let Some(ws) = self.workspaces.get_mut(&problem) {
            ws.working = None;
        }
        self.timers
            .disarm_problem(problem, TimerPurpose::guards_attempt);
    }

    /// Drops everything this host holds for `problem`, an attempt its
    /// initiator gave up (superseded by a repair, or failed for good):
    /// its commitments in any state, the inputs parked for its plan and
    /// every timer armed for it. Its workspace keeps the record.
    fn release(&mut self, problem: ProblemId) {
        self.schedule.release_problem(problem);
        self.timers.disarm_problem(problem, |_| true);
    }

    /// The members this core talks to: the community but itself and the
    /// members it quarantined (whose frames it drops on receipt, so
    /// asking them anything would only wait out a timeout).
    fn peers(&self) -> impl Iterator<Item = HostId> + '_ {
        let me = self.id();
        self.community
            .iter()
            .copied()
            .filter(move |&h| h != me && !self.quarantined.contains(&h))
    }

    fn note_rejection(&mut self, from: HostId, now: SimTime, q: &mut ActionQueue) {
        self.vocabulary_rejections += 1;
        self.metrics.vocab_rejections.inc();
        let count = self.vocab_rejections_by_peer.entry(from).or_insert(0);
        *count += 1;
        let count = *count;
        if let Some(cap) = self.max_vocab_rejections {
            if count >= cap && self.quarantined.insert(from) {
                self.summaries.remove(&from);
                self.advertised.remove(&from);
                self.metrics.quarantines.inc();
                // Quarantine is host- not problem-scoped: trace id 0.
                self.trace(
                    now,
                    0,
                    "quarantine",
                    SpanPhase::Instant,
                    0,
                    Detail::Text(format!("peer host{} after {count} rejections", from.0)),
                );
                q.push(Action::Event(WorkflowEvent::PeerQuarantined {
                    peer: from,
                    rejections: count,
                }));
            }
        }
    }

    // ---- routing ---------------------------------------------------------

    /// True when `from` may send `msg`: the "sent by" column of the
    /// table in the module docs, one rule per variant.
    fn admits(&self, from: HostId, msg: &Msg) -> bool {
        let me = self.id();
        let member = self.community.contains(&from);
        match msg {
            Msg::Initiate { problem, .. } => from == me && problem.initiator == me,
            Msg::FragmentQuery { problem, .. }
            | Msg::CallForBids { problem, .. }
            | Msg::Award { problem, .. }
            | Msg::Execute { problem, .. }
            | Msg::Abandon { problem } => from == problem.initiator && member,
            Msg::FragmentReply { .. } | Msg::Bids { .. } | Msg::Advertise { .. } => {
                from != me && member
            }
            Msg::InputDelivery { .. } | Msg::GoalDelivered { .. } => member,
        }
    }

    /// Routes one message to the phase that owns it (see the table in
    /// the module docs), once [`HostCore::admits`] has admitted its
    /// sender.
    fn dispatch_msg(&mut self, from: HostId, msg: Msg, now: SimTime, q: &mut ActionQueue) {
        q.charge(self.params.per_message_cost);
        self.metrics.messages.inc();
        self.trace(
            now,
            msg.trace_id(),
            msg.kind(),
            SpanPhase::Instant,
            0,
            Detail::From(from.0),
        );
        if !self.admits(from, &msg) {
            self.metrics.sender_refused.inc();
            return;
        }
        #[cfg(debug_assertions)]
        let named = msg.problem();
        match msg {
            Msg::Initiate { problem, spec } => self.on_initiate(problem, spec, now, q),
            Msg::FragmentQuery {
                problem,
                round,
                labels,
                known,
            } => self.on_fragment_query(problem, round, labels, known, q),
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            } => self.on_query_reply(from, problem, round, fragments, now, q),

            Msg::CallForBids { problem, tasks } => self.on_call_for_bids(problem, tasks, now, q),
            Msg::Bids { problem, answers } => self.on_bids(from, problem, answers, now, q),
            Msg::Award { problem, won, lost } => self.on_award(problem, won, lost),
            Msg::Abandon { problem } => self.release(problem),

            Msg::Execute { problem, plan } => self.on_execute(problem, plan, now, q),
            Msg::InputDelivery { problem, label } => self.on_input_delivery(problem, label, now, q),
            Msg::GoalDelivered { problem, label } => self.on_goal_delivered(problem, label, now, q),

            Msg::Advertise { edges, serves } => self.on_advertise(from, edges, serves),
        }
        #[cfg(debug_assertions)]
        self.audit_input(named);
    }

    /// Routes one fired timer to the phase that owns it.
    fn fire_timer(
        &mut self,
        problem: ProblemId,
        purpose: TimerPurpose,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        match purpose {
            TimerPurpose::RoundTimeout => self.close_round(problem, now, q),
            TimerPurpose::AuctionDeadline(task) => self.on_auction_deadline(problem, task, now, q),
            TimerPurpose::AuctionTimeout => self.on_auction_timeout(problem, now, q),
            TimerPurpose::Commitment(task) => self.on_commitment_due(problem, task, now, q),
            TimerPurpose::Watchdog => self.on_watchdog(problem, now, q),
        }
        #[cfg(debug_assertions)]
        self.audit_input(Some(problem));
    }
}

impl fmt::Debug for HostCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostCore")
            .field("id", &self.me)
            .field("community", &self.community.len())
            .field("fragments", &self.fragment_mgr.len())
            .field("services", &self.service_mgr.service_count())
            .field("workspaces", &self.workspaces.len())
            .field("outbound", &self.outbound)
            .finish()
    }
}
