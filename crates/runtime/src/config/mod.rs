//! Host configuration files.
//!
//! §4.1: "In our implementation, we use XML configuration files to provide
//! the task and service definitions for each device." This module parses
//! that format (over the from-scratch XML subset in [`xml`]) into
//! [`HostConfig`]s.
//!
//! ```xml
//! <host>
//!   <position x="0" y="0"/>
//!   <motion speed="1.4"/>
//!   <preferences max-commitments="3">
//!     <refuse task="serve tables"/>
//!   </preferences>
//!   <site>
//!     <place name="kitchen" x="0" y="0"/>
//!   </site>
//!   <fragment id="omelets">
//!     <task name="cook omelets" mode="conjunctive">
//!       <input label="omelet bar setup"/>
//!       <output label="breakfast served"/>
//!     </task>
//!   </fragment>
//!   <service task="cook omelets" duration-ms="600000" location="kitchen"/>
//! </host>
//! ```

pub mod writer;
pub mod xml;

use std::error::Error;
use std::fmt;

use openwf_core::{Fragment, Mode};
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_simnet::SimDuration;

use crate::core_sm::HostConfig;
use crate::prefs::Preferences;
use crate::service::ServiceDescription;

pub use writer::write_host_config;
pub use xml::{Element, XmlError};

/// Errors loading a host configuration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The document is not well-formed.
    Xml(XmlError),
    /// The root element is not `<host>`.
    WrongRoot(String),
    /// A numeric attribute failed to parse.
    BadNumber {
        /// Element name.
        element: String,
        /// Attribute name.
        attribute: String,
        /// Raw value.
        value: String,
    },
    /// A `mode` attribute is neither `conjunctive` nor `disjunctive`.
    BadMode(String),
    /// A fragment failed validation.
    BadFragment(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Xml(e) => write!(f, "malformed configuration: {e}"),
            ConfigError::WrongRoot(r) => write!(f, "expected `<host>` root, found `<{r}>`"),
            ConfigError::BadNumber {
                element,
                attribute,
                value,
            } => write!(
                f,
                "attribute `{attribute}` of `<{element}>` is not a number: `{value}`"
            ),
            ConfigError::BadMode(m) => {
                write!(
                    f,
                    "task mode must be `conjunctive` or `disjunctive`, found `{m}`"
                )
            }
            ConfigError::BadFragment(e) => write!(f, "invalid fragment: {e}"),
        }
    }
}

impl Error for ConfigError {}

impl From<XmlError> for ConfigError {
    fn from(e: XmlError) -> Self {
        ConfigError::Xml(e)
    }
}

fn num_attr(el: &Element, attr: &str) -> Result<Option<f64>, ConfigError> {
    match el.attr(attr) {
        None => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| ConfigError::BadNumber {
                element: el.name.clone(),
                attribute: attr.to_string(),
                value: v.to_string(),
            }),
    }
}

fn u64_attr(el: &Element, attr: &str) -> Result<Option<u64>, ConfigError> {
    match el.attr(attr) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ConfigError::BadNumber {
                element: el.name.clone(),
                attribute: attr.to_string(),
                value: v.to_string(),
            }),
    }
}

/// Parses one `<host>` document into a [`HostConfig`].
///
/// # Errors
///
/// Returns a [`ConfigError`] for malformed XML, an unexpected root, bad
/// numbers/modes, or fragments that violate workflow validity.
pub fn parse_host_config(input: &str) -> Result<HostConfig, ConfigError> {
    let root = xml::parse(input)?;
    if root.name != "host" {
        return Err(ConfigError::WrongRoot(root.name));
    }
    let mut config = HostConfig::new();

    if let Some(pos) = root.child("position") {
        let x = num_attr(pos, "x")?.unwrap_or(0.0);
        let y = num_attr(pos, "y")?.unwrap_or(0.0);
        config.position = Point::new(x, y);
    }
    if let Some(motion) = root.child("motion") {
        let speed = num_attr(motion, "speed")?.unwrap_or(0.0);
        config.motion = Motion::new(speed);
    }
    if let Some(prefs) = root.child("preferences") {
        let mut p = Preferences::willing();
        if let Some(max) = u64_attr(prefs, "max-commitments")? {
            p = p.with_max_commitments(max as usize);
        }
        for refuse in prefs.children_named("refuse") {
            p = p.refusing(refuse.require_attr("task")?);
        }
        config.prefs = p;
    }
    if let Some(site) = root.child("site") {
        let mut map = SiteMap::new();
        for place in site.children_named("place") {
            let name = place.require_attr("name")?;
            let x = num_attr(place, "x")?.unwrap_or(0.0);
            let y = num_attr(place, "y")?.unwrap_or(0.0);
            map.insert(name, Point::new(x, y));
        }
        config.site = map;
    }
    for frag_el in root.children_named("fragment") {
        let id = frag_el.require_attr("id")?;
        let mut builder = Fragment::builder(id);
        for task_el in frag_el.children_named("task") {
            let name = task_el.require_attr("name")?;
            let mode = match task_el.attr("mode").unwrap_or("conjunctive") {
                "conjunctive" => Mode::Conjunctive,
                "disjunctive" => Mode::Disjunctive,
                other => return Err(ConfigError::BadMode(other.to_string())),
            };
            let inputs: Vec<String> = task_el
                .children_named("input")
                .map(|i| i.require_attr("label").map(str::to_string))
                .collect::<Result<_, _>>()?;
            let outputs: Vec<String> = task_el
                .children_named("output")
                .map(|o| o.require_attr("label").map(str::to_string))
                .collect::<Result<_, _>>()?;
            builder = builder.add_task(name, mode, inputs, outputs);
        }
        let fragment = builder
            .build()
            .map_err(|e| ConfigError::BadFragment(e.to_string()))?;
        config.fragments.push(fragment.into());
    }
    for svc in root.children_named("service") {
        let task = svc.require_attr("task")?;
        let duration = SimDuration::from_millis(u64_attr(svc, "duration-ms")?.unwrap_or(1_000));
        let mut desc = ServiceDescription::new(task, duration);
        if let Some(loc) = svc.attr("location") {
            desc = desc.at_location(loc);
        }
        config.services.push(desc);
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::TaskId;

    const CHEF: &str = r#"
        <host>
          <position x="5" y="10"/>
          <motion speed="1.4"/>
          <preferences max-commitments="3">
            <refuse task="wash dishes"/>
          </preferences>
          <site>
            <place name="kitchen" x="0" y="0"/>
            <place name="dining room" x="50" y="0"/>
          </site>
          <fragment id="omelets">
            <task name="cook omelets" mode="conjunctive">
              <input label="omelet bar setup"/>
              <output label="breakfast served"/>
            </task>
          </fragment>
          <service task="cook omelets" duration-ms="600000" location="kitchen"/>
        </host>
    "#;

    #[test]
    fn parses_full_host_config() {
        let cfg = parse_host_config(CHEF).unwrap();
        assert_eq!(cfg.position, Point::new(5.0, 10.0));
        assert!((cfg.motion.speed_mps - 1.4).abs() < 1e-9);
        assert_eq!(cfg.prefs.max_commitments, 3);
        assert!(cfg
            .prefs
            .refused_tasks
            .contains(&TaskId::new("wash dishes")));
        assert_eq!(cfg.site.len(), 2);
        assert_eq!(cfg.fragments.len(), 1);
        assert_eq!(
            cfg.fragments[0].tasks().collect::<Vec<_>>(),
            vec![TaskId::new("cook omelets")]
        );
        assert_eq!(cfg.services.len(), 1);
        assert_eq!(cfg.services[0].location.as_deref(), Some("kitchen"));
        assert_eq!(cfg.services[0].duration, SimDuration::from_millis(600_000));
    }

    #[test]
    fn minimal_host_is_valid() {
        let cfg = parse_host_config("<host/>").unwrap();
        assert!(cfg.fragments.is_empty());
        assert!(cfg.services.is_empty());
    }

    #[test]
    fn wrong_root_is_rejected() {
        let err = parse_host_config("<device/>").unwrap_err();
        assert!(matches!(err, ConfigError::WrongRoot(_)), "{err}");
    }

    #[test]
    fn bad_numbers_are_reported() {
        let err = parse_host_config(r#"<host><position x="wide"/></host>"#).unwrap_err();
        assert!(matches!(err, ConfigError::BadNumber { .. }), "{err}");
    }

    #[test]
    fn bad_mode_is_reported() {
        let doc = r#"
            <host>
              <fragment id="f">
                <task name="t" mode="sometimes">
                  <input label="a"/><output label="b"/>
                </task>
              </fragment>
            </host>"#;
        let err = parse_host_config(doc).unwrap_err();
        assert!(matches!(err, ConfigError::BadMode(_)), "{err}");
    }

    #[test]
    fn invalid_fragment_is_reported() {
        let doc = r#"
            <host>
              <fragment id="f">
                <task name="t"><input label="a"/></task>
              </fragment>
            </host>"#;
        let err = parse_host_config(doc).unwrap_err();
        assert!(matches!(err, ConfigError::BadFragment(_)), "{err}");
    }
}
