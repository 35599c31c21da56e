//! The §2.1 corporate catering scenario — Figure 1's knowledge base.
//!
//! "Suppose an executive assistant calls the manager at the catering
//! office and requests breakfast and lunch for the upcoming meeting." The
//! community: the manager (initiator), the master chef, kitchen staff and
//! wait staff. Figure 1's boxes/ovals become tasks/labels:
//!
//! * breakfast ingredients → {make pancakes, set out ingredients}
//! * set out ingredients → {buffet items prepared, omelet bar setup}
//! * buffet items prepared → serve breakfast buffet → breakfast served
//! * omelet bar setup → cook omelets → breakfast served
//! * doughnuts ordered → pick up doughnuts → doughnuts available
//!   → set out doughnuts → breakfast served
//! * lunch ingredients → prepare soup and salad → lunch prepared
//!   → {serve tables, serve buffet} → lunch served
//! * box lunches ordered → pick up box lunches → box lunches available
//!   → set out box lunches → lunch served
//!
//! The variations of §2.1 are exposed as builder flags: an absent master
//! chef removes the omelet knowhow+capability; absent wait staff removes
//! the `serve tables` capability so construction must pick buffet service.

use openwf_core::{Fragment, Mode, Spec};
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_runtime::{HostConfig, Preferences, ServiceDescription};
use openwf_simnet::SimDuration;

/// Builder for catering-office communities.
#[derive(Clone, Debug)]
pub struct CateringScenario {
    /// Master chef present (knows omelets, can cook them).
    pub chef_present: bool,
    /// Wait staff present (only they can serve tables).
    pub waitstaff_present: bool,
    /// Doughnuts have been ordered (trigger available).
    pub doughnuts_ordered: bool,
}

impl Default for CateringScenario {
    fn default() -> Self {
        CateringScenario {
            chef_present: true,
            waitstaff_present: true,
            doughnuts_ordered: false,
        }
    }
}

/// Minutes of simulated time, for readable service durations.
fn minutes(m: u64) -> SimDuration {
    SimDuration::from_secs(m * 60)
}

impl CateringScenario {
    /// The default scenario: everyone present.
    pub fn new() -> Self {
        CateringScenario::default()
    }

    /// Marks the master chef as out of the office: "the workflow fragment
    /// concerning the preparation of omelets will never be collected."
    pub fn without_chef(mut self) -> Self {
        self.chef_present = false;
        self
    }

    /// Marks the wait staff as absent: "the open workflow engine must
    /// select buffet service since no one in the available community is
    /// capable of serving tables."
    pub fn without_waitstaff(mut self) -> Self {
        self.waitstaff_present = false;
        self
    }

    /// Makes `doughnuts ordered` / `box lunches ordered` available
    /// triggers.
    pub fn with_orders_placed(mut self) -> Self {
        self.doughnuts_ordered = true;
        self
    }

    /// The office site map.
    pub fn site() -> SiteMap {
        SiteMap::new()
            .with("kitchen", Point::new(0.0, 0.0))
            .with("dining room", Point::new(40.0, 0.0))
            .with("office", Point::new(20.0, 30.0))
            .with("bakery", Point::new(200.0, 100.0))
    }

    /// The standard breakfast+lunch request (§2.1).
    pub fn breakfast_and_lunch_spec(&self) -> Spec {
        let mut triggers = vec!["breakfast ingredients", "lunch ingredients"];
        if self.doughnuts_ordered {
            triggers.push("doughnuts ordered");
            triggers.push("box lunches ordered");
        }
        Spec::new(triggers, ["breakfast served", "lunch served"])
    }

    /// Host configurations: `[manager, chef?, kitchen staff, wait staff?]`.
    /// Absent members are simply not in the community — their devices (and
    /// knowhow) are out of radio range.
    pub fn host_configs(&self) -> Vec<HostConfig> {
        let mut hosts = vec![self.manager()];
        if self.chef_present {
            hosts.push(self.chef());
        }
        hosts.push(self.kitchen_staff());
        if self.waitstaff_present {
            hosts.push(self.wait_staff());
        }
        hosts
    }

    /// The manager's device: coordination knowhow about ordered goods.
    pub fn manager(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(20.0, 30.0), Motion::WALKING)
            .with_fragment(doughnut_fragment())
            .with_fragment(box_lunch_fragment())
            .with_service(
                ServiceDescription::new("pick up doughnuts", minutes(20)).at_location("bakery"),
            )
            .with_service(
                ServiceDescription::new("pick up box lunches", minutes(20)).at_location("bakery"),
            )
    }

    /// The master chef's PDA: omelets and lunch knowhow, cooking skills.
    pub fn chef(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(0.0, 0.0), Motion::WALKING)
            .with_fragment(omelet_fragment())
            .with_fragment(lunch_fragment())
            .with_service(
                ServiceDescription::new("cook omelets", minutes(30)).at_location("kitchen"),
            )
            .with_service(
                ServiceDescription::new("prepare soup and salad", minutes(45))
                    .at_location("kitchen"),
            )
    }

    /// Kitchen staff: setup/buffet knowhow and services.
    pub fn kitchen_staff(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(5.0, 0.0), Motion::WALKING)
            .with_fragment(breakfast_buffet_fragment())
            .with_service(
                ServiceDescription::new("set out ingredients", minutes(15)).at_location("kitchen"),
            )
            .with_service(
                ServiceDescription::new("make pancakes", minutes(25)).at_location("kitchen"),
            )
            .with_service(
                ServiceDescription::new("serve breakfast buffet", minutes(10))
                    .at_location("dining room"),
            )
            .with_service(
                ServiceDescription::new("serve buffet", minutes(10)).at_location("dining room"),
            )
            .with_service(
                ServiceDescription::new("set out doughnuts", minutes(5)).at_location("dining room"),
            )
            .with_service(
                ServiceDescription::new("set out box lunches", minutes(5))
                    .at_location("dining room"),
            )
    }

    /// Wait staff: table service (their exclusive capability).
    pub fn wait_staff(&self) -> HostConfig {
        HostConfig::new()
            .with_site(Self::site())
            .located(Point::new(40.0, 0.0), Motion::WALKING)
            .with_service(
                ServiceDescription::new("serve tables", minutes(40)).at_location("dining room"),
            )
            .with_prefs(Preferences::willing())
    }
}

/// Breakfast-buffet knowhow (kitchen staff).
pub fn breakfast_buffet_fragment() -> Fragment {
    Fragment::builder("breakfast-buffet")
        .task("make pancakes", Mode::Conjunctive)
        .inputs(["breakfast ingredients"])
        .outputs(["buffet items prepared"])
        .done()
        .task("set out ingredients", Mode::Conjunctive)
        .inputs(["breakfast ingredients"])
        .outputs(["omelet bar setup"])
        .done()
        .task("serve breakfast buffet", Mode::Conjunctive)
        .inputs(["buffet items prepared"])
        .outputs(["breakfast served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

/// Omelet knowhow (master chef). Note: `breakfast served` is produced by
/// several tasks across the *knowledge base* (fine in a supergraph; the
/// constructed workflow keeps exactly one producer).
pub fn omelet_fragment() -> Fragment {
    Fragment::builder("omelets")
        .task("cook omelets", Mode::Conjunctive)
        .inputs(["omelet bar setup"])
        .outputs(["breakfast served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

/// Doughnut knowhow (manager).
pub fn doughnut_fragment() -> Fragment {
    Fragment::builder("doughnuts")
        .task("pick up doughnuts", Mode::Conjunctive)
        .inputs(["doughnuts ordered"])
        .outputs(["doughnuts available"])
        .done()
        .task("set out doughnuts", Mode::Conjunctive)
        .inputs(["doughnuts available"])
        .outputs(["breakfast served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

/// Lunch knowhow (master chef): soup+salad, then buffet *or* table
/// service — `lunch served` is reachable via a disjunctive choice realized
/// as two alternative producer tasks.
pub fn lunch_fragment() -> Fragment {
    Fragment::builder("lunch")
        .task("prepare soup and salad", Mode::Conjunctive)
        .inputs(["lunch ingredients"])
        .outputs(["lunch prepared"])
        .done()
        .task("serve buffet", Mode::Conjunctive)
        .inputs(["lunch prepared"])
        .outputs(["lunch served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

/// The chef also knows lunch can be served at tables; kept as a separate
/// fragment so the supergraph (not any single fragment) holds the
/// multi-producer alternative.
pub fn table_service_fragment() -> Fragment {
    Fragment::builder("table-service")
        .task("serve tables", Mode::Conjunctive)
        .inputs(["lunch prepared"])
        .outputs(["lunch served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

/// Box-lunch knowhow (manager).
pub fn box_lunch_fragment() -> Fragment {
    Fragment::builder("box-lunches")
        .task("pick up box lunches", Mode::Conjunctive)
        .inputs(["box lunches ordered"])
        .outputs(["box lunches available"])
        .done()
        .task("set out box lunches", Mode::Conjunctive)
        .inputs(["box lunches available"])
        .outputs(["lunch served"])
        .done()
        .build()
        .expect("static fragment is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Constructor, Label, Supergraph, TaskId};

    fn full_knowledge(s: &CateringScenario) -> Supergraph {
        let mut sg = Supergraph::new();
        for cfg in s.host_configs() {
            for f in &cfg.fragments {
                sg.merge_fragment(f);
            }
        }
        sg.merge_fragment(&table_service_fragment());
        sg
    }

    #[test]
    fn figure1_knowledge_is_not_a_valid_workflow() {
        // "The graph represents the available knowledge of the catering
        // facility but is not a valid workflow because some labels have
        // multiple incoming edges."
        let s = CateringScenario::new().with_orders_placed();
        let sg = full_knowledge(&s);
        let violations = openwf_core::validate::violations(sg.graph());
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, openwf_core::ValidityError::LabelMultipleProducers { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn breakfast_and_lunch_are_constructible() {
        let s = CateringScenario::new();
        let sg = full_knowledge(&s);
        let spec = s.breakfast_and_lunch_spec();
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert!(spec.accepts(c.workflow()));
        // Exactly one breakfast alternative chosen.
        let w = c.workflow();
        let breakfast_producers = [
            "cook omelets",
            "serve breakfast buffet",
            "set out doughnuts",
        ]
        .iter()
        .filter(|t| w.contains_task(&TaskId::new(**t)))
        .count();
        assert_eq!(breakfast_producers, 1);
    }

    /// "If lunch was not requested, then no lunch activities will be
    /// included in the final workflow" (§2.1).
    #[test]
    fn breakfast_only_excludes_lunch_tasks() {
        let s = CateringScenario::new();
        let sg = full_knowledge(&s);
        let spec = Spec::new(["breakfast ingredients"], ["breakfast served"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        let w = c.workflow();
        assert!(!w.contains_task(&TaskId::new("prepare soup and salad")));
        assert!(!w.contains_task(&TaskId::new("serve buffet")));
        assert!(!w.contains_label(&Label::new("lunch served")));
    }

    #[test]
    fn absent_chef_removes_omelet_alternative() {
        let s = CateringScenario::new().without_chef().with_orders_placed();
        // Chef absent ⇒ no omelet fragment in the community knowledge.
        let mut sg = Supergraph::new();
        for cfg in s.host_configs() {
            for f in &cfg.fragments {
                sg.merge_fragment(f);
            }
        }
        assert!(sg.graph().find_task(&TaskId::new("cook omelets")).is_none());
        // Breakfast still achievable (doughnuts or buffet).
        let spec = Spec::new(
            ["breakfast ingredients", "doughnuts ordered"],
            ["breakfast served"],
        );
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        let w = c.workflow();
        assert!(
            w.contains_task(&TaskId::new("serve breakfast buffet"))
                || w.contains_task(&TaskId::new("set out doughnuts"))
        );
    }

    #[test]
    fn absent_waitstaff_forces_buffet_service() {
        // Knowledge contains both alternatives, but no host can serve
        // tables: the capability filter must exclude it.
        let s = CateringScenario::new().without_waitstaff();
        let sg = full_knowledge(&s);
        let all_services: Vec<TaskId> = s
            .host_configs()
            .iter()
            .flat_map(|c| c.services.iter().map(|svc| svc.task.clone()))
            .collect();
        let spec = Spec::new(["lunch ingredients"], ["lunch served"]);
        let c = Constructor::new()
            .construct_filtered(&sg, &spec, |t| all_services.contains(t))
            .unwrap();
        let w = c.workflow();
        assert!(w.contains_task(&TaskId::new("serve buffet")));
        assert!(!w.contains_task(&TaskId::new("serve tables")));
    }

    #[test]
    fn host_configs_match_presence_flags() {
        assert_eq!(CateringScenario::new().host_configs().len(), 4);
        assert_eq!(
            CateringScenario::new().without_chef().host_configs().len(),
            3
        );
        assert_eq!(
            CateringScenario::new()
                .without_chef()
                .without_waitstaff()
                .host_configs()
                .len(),
            2
        );
    }
}
