//! A field-hospital scenario (§1 names "field hospitals" among the
//! motivating domains).
//!
//! A casualty arrives at a forward field hospital. The response depends
//! on who is on shift: triage, imaging, surgery and recovery each need
//! both knowhow (fragments) and capabilities (services). The scenario
//! exercises two open-workflow behaviors the catering example does not:
//!
//! * a **conjunctive** decision task (`plan treatment` needs the triage
//!   report *and* the imaging results);
//! * **capability-driven rerouting** between alternatives of different
//!   cost: surgery when a surgeon is present, stabilize-and-evacuate
//!   otherwise.

use openwf_core::{Fragment, Mode, Spec};
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_runtime::{HostConfig, ServiceDescription};
use openwf_simnet::SimDuration;

/// Who is on shift.
#[derive(Clone, Debug)]
pub struct FieldHospitalScenario {
    /// A surgeon is present (enables the surgical branch).
    pub surgeon_present: bool,
}

impl Default for FieldHospitalScenario {
    fn default() -> Self {
        FieldHospitalScenario {
            surgeon_present: true,
        }
    }
}

fn minutes(m: u64) -> SimDuration {
    SimDuration::from_secs(m * 60)
}

impl FieldHospitalScenario {
    /// Full staff.
    pub fn new() -> Self {
        FieldHospitalScenario::default()
    }

    /// The surgeon is off-site; treatment must fall back to
    /// stabilize-and-evacuate.
    pub fn without_surgeon(mut self) -> Self {
        self.surgeon_present = false;
        self
    }

    /// Tent positions (meters).
    pub fn site() -> SiteMap {
        SiteMap::new()
            .with("triage tent", Point::new(0.0, 0.0))
            .with("imaging tent", Point::new(25.0, 0.0))
            .with("operating tent", Point::new(50.0, 10.0))
            .with("helipad", Point::new(120.0, 60.0))
    }

    /// The goal: the casualty is stabilized, given their arrival.
    pub fn spec(&self) -> Spec {
        Spec::new(["casualty arrived"], ["patient stable"])
    }

    /// Host configurations `[nurse, radiologist, surgeon?, medevac]`.
    pub fn host_configs(&self) -> Vec<HostConfig> {
        let mut hosts = vec![self.triage_nurse(), self.radiologist()];
        if self.surgeon_present {
            hosts.push(self.surgeon());
        }
        hosts.push(self.medevac());
        hosts
    }

    /// Triage nurse: assessment knowhow + the conjunctive treatment plan.
    pub fn triage_nurse(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(0.0, 0.0), Motion::WALKING)
            .with_fragment(
                Fragment::builder("triage")
                    .task("triage casualty", Mode::Conjunctive)
                    .inputs(["casualty arrived"])
                    .outputs(["triage report"])
                    .done()
                    .task("plan treatment", Mode::Conjunctive)
                    .inputs(["triage report", "imaging results"])
                    .outputs(["treatment planned"])
                    .done()
                    .build()
                    .expect("static fragment is valid"),
            )
            .with_service(
                ServiceDescription::new("triage casualty", minutes(10)).at_location("triage tent"),
            )
            .with_service(ServiceDescription::new("plan treatment", minutes(5)))
    }

    /// Radiologist: imaging.
    pub fn radiologist(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(25.0, 0.0), Motion::WALKING)
            .with_fragment(
                Fragment::builder("imaging")
                    .task("image injuries", Mode::Conjunctive)
                    .inputs(["casualty arrived"])
                    .outputs(["imaging results"])
                    .done()
                    .build()
                    .expect("static fragment is valid"),
            )
            .with_service(
                ServiceDescription::new("image injuries", minutes(15)).at_location("imaging tent"),
            )
    }

    /// Surgeon: the surgical branch (fast stabilization).
    pub fn surgeon(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(50.0, 10.0), Motion::WALKING)
            .with_fragment(
                Fragment::builder("surgery")
                    .task("operate", Mode::Conjunctive)
                    .inputs(["treatment planned"])
                    .outputs(["patient stable"])
                    .done()
                    .build()
                    .expect("static fragment is valid"),
            )
            .with_service(
                ServiceDescription::new("operate", minutes(90)).at_location("operating tent"),
            )
    }

    /// Medevac crew: the evacuate branch (always available).
    pub fn medevac(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(120.0, 60.0), Motion::CART)
            .with_fragment(
                Fragment::builder("evacuation")
                    .task("stabilize and evacuate", Mode::Conjunctive)
                    .inputs(["treatment planned"])
                    .outputs(["patient stable"])
                    .done()
                    .build()
                    .expect("static fragment is valid"),
            )
            .with_service(
                ServiceDescription::new("stabilize and evacuate", minutes(30))
                    .at_location("helipad"),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Constructor, Supergraph, TaskId};
    use openwf_runtime::{CommunityBuilder, Driver, ProblemStatus};

    fn knowledge(s: &FieldHospitalScenario) -> (Supergraph, Vec<TaskId>) {
        let mut sg = Supergraph::new();
        let mut services = Vec::new();
        for cfg in s.host_configs() {
            for f in &cfg.fragments {
                sg.merge_fragment(f);
            }
            services.extend(cfg.services.iter().map(|svc| svc.task.clone()));
        }
        (sg, services)
    }

    #[test]
    fn treatment_plan_requires_both_reports() {
        let s = FieldHospitalScenario::new();
        let (sg, services) = knowledge(&s);
        let c = Constructor::new()
            .construct_filtered(&sg, &s.spec(), |t| services.contains(t))
            .unwrap();
        let w = c.workflow();
        // Conjunctive join keeps both inputs.
        assert_eq!(w.task_inputs(&TaskId::new("plan treatment")).len(), 2);
        assert!(w.contains_task(&TaskId::new("triage casualty")));
        assert!(w.contains_task(&TaskId::new("image injuries")));
    }

    #[test]
    fn exactly_one_stabilization_branch_is_chosen() {
        let s = FieldHospitalScenario::new();
        let (sg, services) = knowledge(&s);
        let c = Constructor::new()
            .construct_filtered(&sg, &s.spec(), |t| services.contains(t))
            .unwrap();
        let w = c.workflow();
        let branches = ["operate", "stabilize and evacuate"]
            .iter()
            .filter(|t| w.contains_task(&TaskId::new(**t)))
            .count();
        assert_eq!(branches, 1, "label `patient stable` keeps one producer");
    }

    #[test]
    fn absent_surgeon_forces_evacuation() {
        let s = FieldHospitalScenario::new().without_surgeon();
        let (sg, services) = knowledge(&s);
        let c = Constructor::new()
            .construct_filtered(&sg, &s.spec(), |t| services.contains(t))
            .unwrap();
        let w = c.workflow();
        assert!(w.contains_task(&TaskId::new("stabilize and evacuate")));
        assert!(!w.contains_task(&TaskId::new("operate")));
    }

    #[test]
    fn full_staff_runs_end_to_end() {
        let s = FieldHospitalScenario::new();
        let mut community = CommunityBuilder::new(77).hosts(s.host_configs()).build();
        let nurse = community.hosts()[0];
        let handle = community.submit(nurse, s.spec());
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "{report}"
        );
        assert_eq!(report.assignments.len(), 4);
        // Triage and imaging are independent (level 0): both level-0
        // executors must have run before `plan treatment` (implied by
        // completion, asserted via invocation presence).
        let radiologist = community.hosts()[1];
        assert_eq!(
            community
                .core(radiologist)
                .service_mgr()
                .invocations()
                .len(),
            1
        );
    }
}
