#![warn(missing_docs)]

//! `epidb-mc` — an exhaustive protocol model checker for the epidemic
//! update-propagation protocol.
//!
//! The simulator and chaos harness sample schedules; this crate
//! *enumerates* them. A [`Scenario`] fixes a bounded world — topology,
//! conflict policy, a finite set of actions (writes and protocol-round
//! starts), and fault budgets for crashes and message losses — and
//! [`explore`] walks **every** interleaving of action firings, message
//! deliveries, message losses, node crashes, and revivals up to a depth
//! bound, deduplicating states by canonical fingerprint
//! ([`epidb_core::mc_state`]).
//!
//! Three layers of the workspace make this possible:
//!
//! * **Step-wise rounds** ([`epidb_core::rounds`]): the initiator is an
//!   explicit state machine, and it is the *only* initiator — the blocking
//!   `Engine` drivers every runtime calls are a loop over the same
//!   `Round`. The checker can park a round between messages, fork the
//!   system, and interleave everything, and what it explores is the code
//!   production runs.
//! * **Snapshot/fingerprint surface** ([`epidb_core::mc_state`]): cheap
//!   forking and a canonical 64-bit digest of behaviorally relevant state.
//! * **Grounded crash semantics** (`epidb_durable::crash_recovered_twin`,
//!   [`epidb_core::ShardedNode::crash_recovered`]): a crash replaces a
//!   node with exactly the state real disk recovery would rebuild, pinned
//!   against an actual crash-and-reopen by the durable crate's tests.
//!
//! Every explored state is checked against the seven protocol invariants
//! (the pure predicates of [`epidb_core::paranoid`]); every *quiescent*
//! state — all actions fired, nothing in flight — is additionally checked
//! against the paper's §2.1 eventual-consistency statement, by reviving
//! crashed nodes and running healing anti-entropy sweeps on a copy. A
//! violation stops the search; the offending schedule is shrunk by greedy
//! event-drop minimization and rendered as a replayable counterexample
//! with per-replica protocol traces.
//!
//! # Quick start
//!
//! ```
//! use epidb_mc::{explore, Limits, Scenario, Strategy};
//!
//! // Every interleaving of the 2-node scenario (updates, pulls, a delta
//! // round, an OOB copy, one crash, one loss) preserves every invariant:
//! let report = explore(
//!     &Scenario::two_node_full(),
//!     Strategy::Bfs,
//!     &Limits { max_depth: 6, max_states: 50_000 },
//! )
//! .unwrap();
//! assert!(report.is_clean());
//!
//! // And the checker proves it can catch bugs: a seeded mutant that
//! // adopts concurrent copies without DBVV absorption is found and
//! // minimized.
//! let caught = explore(&Scenario::seeded_mutant(), Strategy::Bfs, &Limits::smoke()).unwrap();
//! let cx = caught.counterexample.expect("mutant must be caught");
//! assert_eq!(cx.check, "dbvv-sum");
//! ```

mod consistency;
mod explore;
mod report;
mod scenario;
mod system;

pub use explore::{explore, Limits, McReport, McStats, Strategy};
pub use report::CounterExample;
pub use scenario::{Action, Expectation, Scenario, Topology};
pub use system::{Applied, Event, System};
