#![warn(missing_docs)]

//! In-memory replicated-database storage substrate.
//!
//! The paper's system model (§2) treats a database as a collection of data
//! items replicated, as a whole, on a fixed set of servers. User operations
//! execute against a single replica; propagation copies whole data items
//! (the presentation context the paper chose — §2 notes the ideas also work
//! for log-record shipping, which the auxiliary log in fact uses).
//!
//! This crate provides:
//!
//! * [`UpdateOp`] — a *re-doable* update operation. Auxiliary-log records
//!   must "contain information sufficient to re-do the update (e.g., the
//!   byte range of the update and the new value of data in the range)"
//!   (§4.4), so operations carry their payload.
//! * [`ItemValue`] — a data item's value: an owned byte buffer.
//! * [`StoredItem`] — value plus its item version vector (IVV).
//! * [`ItemStore`] — the dense collection of a replica's regular item
//!   copies, with the cached reconciliation digest tree ([`digest`]) that
//!   its mutations keep current.

pub mod digest;
pub mod op;
pub mod store;
pub mod value;

pub use op::UpdateOp;
pub use store::{ItemStore, StoredItem};
pub use value::ItemValue;
