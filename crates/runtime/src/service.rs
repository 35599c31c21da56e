//! The Service Manager: local capabilities and invocation.
//!
//! §2.2: "A service is a concrete implementation of a task and may involve
//! a computation by the device, an activity performed by the user, or some
//! combination of the two." §4.2: the Service Manager "maintains the list
//! of services exposed by this host and responds to capability queries …
//! It also provides a uniform service invocation interface to the
//! Execution Manager."

use std::fmt;

use openwf_core::{FxHashMap, Label, TaskId};
use openwf_simnet::SimDuration;

/// Description of one service a host offers.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceDescription {
    /// The abstract task this service implements.
    pub task: TaskId,
    /// Where the service must be performed (symbolic place name), if it is
    /// location-bound.
    pub location: Option<String>,
    /// How long one invocation takes (human activity or computation).
    pub duration: SimDuration,
    /// Specialization weight: used for documentation/tests; the auction's
    /// specialization rank is the *count* of services a host offers.
    pub note: Option<String>,
}

impl ServiceDescription {
    /// A service for `task` taking `duration`, performable anywhere.
    pub fn new(task: impl Into<TaskId>, duration: SimDuration) -> Self {
        ServiceDescription {
            task: task.into(),
            location: None,
            duration,
            note: None,
        }
    }

    /// Binds the service to a named location.
    pub fn at_location(mut self, place: impl Into<String>) -> Self {
        self.location = Some(place.into());
        self
    }

    /// Attaches a human-readable note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

impl fmt::Display for ServiceDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service for `{}` ({})", self.task, self.duration)?;
        if let Some(l) = &self.location {
            write!(f, " @ {l}")?;
        }
        Ok(())
    }
}

/// A record of one service invocation (for hooks, logs and tests).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceCall {
    /// The task whose service ran.
    pub task: TaskId,
    /// The inputs that were available when it ran.
    pub inputs: Vec<Label>,
}

/// Observer invoked on every service execution (e.g. examples printing
/// "cooking omelets…", or tests recording invocation order).
pub type ServiceHook = Box<dyn FnMut(&ServiceCall) + Send>;

/// The per-host service registry.
#[derive(Default)]
pub struct ServiceManager {
    /// Keyed by task and hashed by its interner symbol, which the
    /// process assigns and a peer cannot choose, so the fast hash is
    /// safe here. Nothing reads the map in order.
    services: FxHashMap<TaskId, ServiceDescription>,
    /// Bumped by every registration: how the host core notices that what
    /// it advertised may have changed.
    revision: u64,
    hook: Option<ServiceHook>,
    invocations: Vec<ServiceCall>,
}

impl ServiceManager {
    /// An empty registry.
    pub fn new() -> Self {
        ServiceManager::default()
    }

    /// Registers (or replaces) a service.
    pub fn register(&mut self, service: ServiceDescription) {
        self.services.insert(service.task.clone(), service);
        self.revision += 1;
    }

    /// How many registrations this registry has seen.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// The tasks this host offers a service for, in no particular order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = &TaskId> + '_ {
        self.services.keys()
    }

    /// Installs an invocation hook.
    pub fn set_hook(&mut self, hook: ServiceHook) {
        self.hook = Some(hook);
    }

    /// True if this host offers a service for `task`.
    pub fn can_serve(&self, task: &TaskId) -> bool {
        self.services.contains_key(task)
    }

    /// The service description for `task`, if offered.
    pub fn describe(&self, task: &TaskId) -> Option<&ServiceDescription> {
        self.services.get(task)
    }

    /// Number of services offered — the auction's specialization measure:
    /// "a participant which provides fewer services is preferred over a
    /// participant with a wider array of services" (§3.2).
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Invokes the service for `task` (the Execution Manager calls this
    /// once inputs and time conditions are met). Records the call and
    /// fires the hook.
    ///
    /// # Panics
    ///
    /// Panics if no service for `task` is registered — the auction only
    /// awards tasks to hosts that bid, and hosts only bid on tasks they
    /// can serve, so this indicates a protocol bug.
    pub fn invoke(&mut self, task: &TaskId, inputs: Vec<Label>) -> &ServiceDescription {
        assert!(
            self.services.contains_key(task),
            "invoked unregistered service `{task}`"
        );
        let call = ServiceCall {
            task: task.clone(),
            inputs,
        };
        if let Some(hook) = &mut self.hook {
            hook(&call);
        }
        self.invocations.push(call);
        &self.services[task]
    }

    /// All invocations so far, in order.
    pub fn invocations(&self) -> &[ServiceCall] {
        &self.invocations
    }
}

impl fmt::Debug for ServiceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceManager")
            .field("services", &self.services.len())
            .field("invocations", &self.invocations.len())
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn sm() -> ServiceManager {
        let mut m = ServiceManager::new();
        m.register(ServiceDescription::new(
            "cook omelets",
            SimDuration::from_secs(600),
        ));
        m.register(
            ServiceDescription::new("serve buffet", SimDuration::from_secs(300))
                .at_location("dining room"),
        );
        m
    }

    #[test]
    fn capability_queries() {
        let m = sm();
        assert!(m.can_serve(&TaskId::new("cook omelets")));
        assert!(!m.can_serve(&TaskId::new("serve tables")));
        assert!(m.can_serve(&TaskId::new("serve buffet")));
        assert_eq!(m.service_count(), 2);
    }

    #[test]
    fn invocation_records_and_hooks() {
        let mut m = sm();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        m.set_hook(Box::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let desc = m.invoke(
            &TaskId::new("cook omelets"),
            vec![Label::new("omelet bar setup")],
        );
        assert_eq!(desc.duration, SimDuration::from_secs(600));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(m.invocations().len(), 1);
        assert_eq!(m.invocations()[0].task, TaskId::new("cook omelets"));
    }

    #[test]
    #[should_panic(expected = "unregistered service")]
    fn invoking_unknown_service_panics() {
        let mut m = sm();
        m.invoke(&TaskId::new("nope"), vec![]);
    }

    #[test]
    fn description_builder_and_display() {
        let d = ServiceDescription::new("t", SimDuration::from_micros(1_500))
            .at_location("kitchen")
            .with_note("only weekdays");
        assert_eq!(d.location.as_deref(), Some("kitchen"));
        assert_eq!(d.note.as_deref(), Some("only weekdays"));
        assert_eq!(d.to_string(), "service for `t` (1.500ms) @ kitchen");
    }
}
