//! Writing host configurations back to XML.
//!
//! Round-trips with [`crate::config::parse_host_config`]: a parsed
//! configuration serializes to an equivalent document, which makes the
//! XML format usable as the persistent deployment artifact the paper's
//! §4.1 describes (dump a device's knowhow/services, edit, redeploy).

use std::fmt::Write as _;

use openwf_core::NodeKind;

use crate::core_sm::HostConfig;

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders a [`HostConfig`] as a `<host>` XML document.
///
/// Only configuration the XML schema can express is emitted: position,
/// motion, preferences, site map, fragments and services. (Service hooks
/// are code and cannot round-trip.)
pub fn write_host_config(config: &HostConfig) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<host>\n");

    let p = config.position;
    let _ = writeln!(out, "  <position x=\"{}\" y=\"{}\"/>", p.x, p.y);
    let _ = writeln!(out, "  <motion speed=\"{}\"/>", config.motion.speed_mps);

    if config.prefs.max_commitments != usize::MAX || !config.prefs.refused_tasks.is_empty() {
        if config.prefs.max_commitments != usize::MAX {
            let _ = writeln!(
                out,
                "  <preferences max-commitments=\"{}\">",
                config.prefs.max_commitments
            );
        } else {
            let _ = writeln!(out, "  <preferences>");
        }
        for t in &config.prefs.refused_tasks {
            let _ = writeln!(out, "    <refuse task=\"{}\"/>", escape(t.as_str()));
        }
        let _ = writeln!(out, "  </preferences>");
    }

    if !config.site.is_empty() {
        let _ = writeln!(out, "  <site>");
        for place in config.site.iter() {
            let _ = writeln!(
                out,
                "    <place name=\"{}\" x=\"{}\" y=\"{}\"/>",
                escape(&place.name),
                place.position.x,
                place.position.y
            );
        }
        let _ = writeln!(out, "  </site>");
    }

    for fragment in &config.fragments {
        let _ = writeln!(
            out,
            "  <fragment id=\"{}\">",
            escape(fragment.id().as_str())
        );
        let g = fragment.graph();
        for idx in g.node_indices() {
            if g.kind(idx) != NodeKind::Task {
                continue;
            }
            let task = g.key(idx).as_task().expect("task kind");
            let mode = g.mode(idx);
            let _ = writeln!(
                out,
                "    <task name=\"{}\" mode=\"{}\">",
                escape(task.as_str()),
                mode
            );
            for &parent in g.parents(idx) {
                if let Some(l) = g.key(parent).as_label() {
                    let _ = writeln!(out, "      <input label=\"{}\"/>", escape(l.as_str()));
                }
            }
            for &child in g.children(idx) {
                if let Some(l) = g.key(child).as_label() {
                    let _ = writeln!(out, "      <output label=\"{}\"/>", escape(l.as_str()));
                }
            }
            let _ = writeln!(out, "    </task>");
        }
        let _ = writeln!(out, "  </fragment>");
    }

    for svc in &config.services {
        let _ = write!(
            out,
            "  <service task=\"{}\" duration-ms=\"{}\"",
            escape(svc.task.as_str()),
            svc.duration.as_micros() / 1_000
        );
        if let Some(loc) = &svc.location {
            let _ = write!(out, " location=\"{}\"", escape(loc));
        }
        let _ = writeln!(out, "/>");
    }

    out.push_str("</host>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_host_config;
    use crate::prefs::Preferences;
    use crate::service::ServiceDescription;
    use openwf_core::{Fragment, Mode, TaskId};
    use openwf_mobility::{Motion, Point, SiteMap};
    use openwf_simnet::SimDuration;

    fn sample_config() -> HostConfig {
        HostConfig::new()
            .located(Point::new(5.0, 10.0), Motion::WALKING)
            .with_site(SiteMap::new().with("kitchen", Point::new(0.0, 0.0)))
            .with_prefs(
                Preferences::willing()
                    .with_max_commitments(3)
                    .refusing("wash dishes"),
            )
            .with_fragment(
                Fragment::builder("omelets")
                    .task("cook omelets", Mode::Conjunctive)
                    .inputs(["omelet bar setup"])
                    .outputs(["breakfast served"])
                    .done()
                    .build()
                    .unwrap(),
            )
            .with_service(
                ServiceDescription::new("cook omelets", SimDuration::from_secs(600))
                    .at_location("kitchen"),
            )
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let original = sample_config();
        let xml = write_host_config(&original);
        let parsed = parse_host_config(&xml).expect("written config parses");

        assert_eq!(parsed.position, original.position);
        assert!((parsed.motion.speed_mps - original.motion.speed_mps).abs() < 1e-9);
        assert_eq!(parsed.prefs, original.prefs);
        assert_eq!(parsed.site.len(), original.site.len());
        assert_eq!(parsed.fragments.len(), 1);
        assert_eq!(
            parsed.fragments[0].tasks().collect::<Vec<_>>(),
            vec![TaskId::new("cook omelets")]
        );
        assert_eq!(parsed.services.len(), 1);
        assert_eq!(parsed.services[0].task, TaskId::new("cook omelets"));
        assert_eq!(parsed.services[0].duration, SimDuration::from_secs(600));
        assert_eq!(parsed.services[0].location.as_deref(), Some("kitchen"));
    }

    #[test]
    fn empty_config_round_trips() {
        let xml = write_host_config(&HostConfig::new());
        let parsed = parse_host_config(&xml).unwrap();
        assert!(parsed.fragments.is_empty());
        assert!(parsed.services.is_empty());
        assert_eq!(parsed.prefs, Preferences::willing());
    }

    #[test]
    fn special_characters_are_escaped() {
        let cfg = HostConfig::new().with_fragment(
            Fragment::builder("q&a")
                .task("say \"hi\" <loudly>", Mode::Disjunctive)
                .inputs(["a & b"])
                .outputs(["c > d"])
                .done()
                .build()
                .unwrap(),
        );
        let xml = write_host_config(&cfg);
        let parsed = parse_host_config(&xml).expect("escaped names parse");
        assert_eq!(parsed.fragments[0].id().as_str(), "q&a");
        assert_eq!(
            parsed.fragments[0].tasks().next().unwrap(),
            TaskId::new("say \"hi\" <loudly>")
        );
    }

    #[test]
    fn multi_task_fragments_keep_structure() {
        let cfg = HostConfig::new().with_fragment(
            Fragment::builder("chain")
                .task("t1", Mode::Conjunctive)
                .inputs(["a"])
                .outputs(["b"])
                .done()
                .task("t2", Mode::Disjunctive)
                .inputs(["b"])
                .outputs(["c"])
                .done()
                .build()
                .unwrap(),
        );
        let xml = write_host_config(&cfg);
        let parsed = parse_host_config(&xml).unwrap();
        let f = &parsed.fragments[0];
        assert_eq!(f.tasks().count(), 2);
        assert_eq!(
            f.workflow().task_mode(&TaskId::new("t2")),
            Some(Mode::Disjunctive)
        );
        assert_eq!(
            f.workflow().producer(&openwf_core::Label::new("b")),
            Some(TaskId::new("t1"))
        );
    }
}
