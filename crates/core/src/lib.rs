//! # openwf-core — the open workflow model and construction algorithm
//!
//! This crate implements the *formal core* of the open workflow paradigm
//! introduced by Thomas, Wilson, Roman and Gill in *"Achieving Coordination
//! Through Dynamic Construction of Open Workflows"* (WUCSE-2009-14, 2009):
//!
//! * **Workflow graphs** (§2.2 of the paper): bipartite directed acyclic
//!   graphs whose nodes are [`Label`]s and tasks (see [`TaskId`], [`Mode`]),
//!   with the paper's three validity constraints — all sources and sinks are
//!   labels, a label has at most one incoming edge, and there are no
//!   duplicate nodes ([`Workflow`], [`validate`]).
//! * **Workflow fragments** ([`Fragment`]). §2.2's composition and pruning
//!   are Algorithm 1's own steps: merging fragments into the [`Supergraph`]
//!   is the composition, and the back-sweep is the pruning.
//! * **Specifications** `S(W.in, W.out)` in the paper's canonical form
//!   `W.in ⊆ ι ∧ W.out = ω` ([`Spec`]).
//! * **Algorithm 1** — the supergraph coloring construction: an exploration
//!   phase that colors reachable nodes *green* with distances, and a pruning
//!   phase that sweeps *purple*/*blue* backwards from the goal to extract one
//!   feasible, valid workflow ([`construct`], [`Supergraph`]).
//! * The **incremental** variant, extending the supergraph only along the
//!   boundary of the colored region: one resumable engine
//!   ([`FrontierConstruction`]) that [`IncrementalConstructor`] drives
//!   against a local [`FragmentSource`] and the distributed runtime drives
//!   against its peers (`construct::incremental`).
//!
//! The distributed runtime (managers, auctions, execution) lives in the
//! `openwf-runtime` crate; this crate is purely algorithmic and has no
//! networking or time dependencies, which makes it easy to test exhaustively
//! and to embed anywhere.
//!
//! ## Quick example
//!
//! Build the two-fragment breakfast knowledge base, then construct a workflow
//! that serves breakfast from available ingredients:
//!
//! ```rust
//! use openwf_core::{Fragment, Mode, Spec, Supergraph, construct::Constructor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let setup = Fragment::builder("setup")
//!     .task("set out ingredients", Mode::Conjunctive)
//!     .inputs(["breakfast ingredients"])
//!     .outputs(["omelet bar setup"])
//!     .done()
//!     .build()?;
//! let cook = Fragment::builder("cook")
//!     .task("cook omelets", Mode::Conjunctive)
//!     .inputs(["omelet bar setup"])
//!     .outputs(["breakfast served"])
//!     .done()
//!     .build()?;
//!
//! let mut sg = Supergraph::new();
//! sg.merge_fragment(&setup);
//! sg.merge_fragment(&cook);
//!
//! let spec = Spec::new(["breakfast ingredients"], ["breakfast served"]);
//! let built = Constructor::new().construct(&sg, &spec)?;
//! assert!(spec.accepts(built.workflow()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod construct;
pub mod error;
pub mod fragment;
pub mod fx;
pub mod graph;
pub mod ids;
pub mod spec;
pub mod store;
pub mod supergraph;
pub mod validate;
pub mod workflow;

pub use construct::incremental::{
    FragmentSource, FrontierConstruction, IncrementalConstructor, SizeHints,
};
pub use construct::plan::LabelEdges;
pub use construct::{ConstructError, Construction, Constructor, PickOrder};
pub use error::ModelError;
pub use fragment::{Fragment, FragmentBuilder, FragmentId};
pub use fx::{FxHashMap, FxHashSet};
pub use graph::{Graph, NodeIdx, TraversalScratch};
pub use ids::{Interned, Label, Mode, NodeKey, NodeKind, Sym, TaskId};
pub use spec::Spec;
pub use store::ShardedFragmentStore;
pub use supergraph::Supergraph;
pub use validate::ValidityError;
pub use workflow::Workflow;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::construct::{Constructor, PickOrder};
    pub use crate::fragment::{Fragment, FragmentBuilder};
    pub use crate::ids::{Label, Mode, TaskId};
    pub use crate::spec::Spec;
    pub use crate::store::ShardedFragmentStore;
    pub use crate::supergraph::Supergraph;
    pub use crate::workflow::Workflow;
}
