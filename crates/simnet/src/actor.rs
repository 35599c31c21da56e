//! Host actors and their interaction context.
//!
//! A host in the open workflow system is a pure state machine: it reacts to
//! messages and timers by updating local state and emitting messages/timers
//! through a [`Context`], so the actor never sees the transport — the
//! architecture's communications layer indirection. The deterministic
//! [`crate::SimNetwork`] is the driver in this crate.

use std::fmt;

use crate::message::{HostId, Message};
use crate::time::{SimDuration, SimTime};

/// Identifies a timer within one host; the value is chosen by the actor and
/// handed back verbatim in [`Actor::on_timer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

impl fmt::Debug for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The per-callback interface an actor uses to act on the world.
///
/// Everything an actor does — send messages, arm timers, read the clock —
/// goes through the context, so actors stay transport-agnostic.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    self_id: HostId,
    outbox: &'a mut Vec<(HostId, M)>,
    timers: &'a mut Vec<(SimDuration, TimerToken)>,
    charged: SimDuration,
}

impl<'a, M: Message> Context<'a, M> {
    /// Creates a context; used by network drivers, not by actors.
    pub fn new(
        now: SimTime,
        self_id: HostId,
        outbox: &'a mut Vec<(HostId, M)>,
        timers: &'a mut Vec<(SimDuration, TimerToken)>,
    ) -> Self {
        Context {
            now,
            self_id,
            outbox,
            timers,
            charged: SimDuration::ZERO,
        }
    }

    /// Charges virtual *compute* time to this callback: everything the
    /// actor emits (messages, timers) is delayed by the total charged so
    /// far. This is how host-side processing cost (graph coloring, bid
    /// evaluation…) becomes visible on the virtual clock.
    pub fn charge(&mut self, cost: SimDuration) {
        self.charged += cost;
    }

    /// Total compute time charged in this callback.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the host this actor runs on.
    pub fn self_id(&self) -> HostId {
        self.self_id
    }

    /// Sends a message to another host (or to self, which is delivered like
    /// any other message).
    pub fn send(&mut self, to: HostId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Arms a timer that fires after `delay`, delivering `token` to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.timers.push((delay, token));
    }
}

/// A host state machine.
///
/// All methods have empty defaults so actors implement only what they use.
pub trait Actor<M: Message>: Send {
    /// Called once when the network starts (before any message flows).
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, from: HostId, msg: M, ctx: &mut Context<'_, M>) {
        let _ = (from, msg, ctx);
    }

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M>) {
        let _ = (token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Note(#[allow(dead_code)] &'static str);
    impl Message for Note {}

    struct Fanout;
    impl Actor<Note> for Fanout {
        fn on_start(&mut self, ctx: &mut Context<'_, Note>) {
            ctx.send(HostId(0), Note("hello"));
            ctx.send(HostId(2), Note("hello"));
            ctx.set_timer(SimDuration::from_millis(5), TimerToken(9));
        }
    }

    #[test]
    fn context_collects_outputs() {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut ctx = Context::new(SimTime::ZERO, HostId(1), &mut outbox, &mut timers);
        let mut a = Fanout;
        a.on_start(&mut ctx);
        let to: Vec<HostId> = outbox.iter().map(|(h, _)| *h).collect();
        assert_eq!(to, vec![HostId(0), HostId(2)]);
        assert_eq!(timers, vec![(SimDuration::from_millis(5), TimerToken(9))]);
    }

    #[test]
    fn default_handlers_do_nothing() {
        struct Inert;
        impl Actor<Note> for Inert {}
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut ctx = Context::new(SimTime::ZERO, HostId(0), &mut outbox, &mut timers);
        let mut a = Inert;
        a.on_start(&mut ctx);
        a.on_message(HostId(1), Note("x"), &mut ctx);
        a.on_timer(TimerToken(0), &mut ctx);
        assert!(outbox.is_empty());
        assert!(timers.is_empty());
    }

    #[test]
    fn context_exposes_time_and_identity() {
        let mut outbox: Vec<(HostId, Note)> = Vec::new();
        let mut timers = Vec::new();
        let t = SimTime::from_micros(777);
        let ctx = Context::new(t, HostId(4), &mut outbox, &mut timers);
        assert_eq!(ctx.now(), t);
        assert_eq!(ctx.self_id(), HostId(4));
    }
}
