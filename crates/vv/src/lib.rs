#![warn(missing_docs)]

//! Version vectors — the foundation of the paper's protocol.
//!
//! Two flavours are provided:
//!
//! * [`VersionVector`] — the classic per-data-item version vector (IVV) of
//!   Parker et al., as reviewed in §3 of the paper: entry `v_ij(x)` counts
//!   the updates originally performed by server `j` and reflected in server
//!   `i`'s copy of item `x`.
//! * [`DbVersionVector`] — the paper's contribution (§4.1): a version vector
//!   associated with an entire *database* replica, whose entry `V_ij` counts
//!   the updates performed by server `j` *to any item* and reflected at `i`.
//!
//! Comparing two vectors yields a [`VvOrd`]: equality, domination in either
//! direction, or mutual inconsistency (`Concurrent`) — corollaries 1–4 of
//! the paper's Theorem 3. The algebra itself lives once in [`row`], over
//! borrowed `&[u64]` rows, so an IVV stored in a replica's dense arena and
//! a shipped [`VersionVector`] are compared by the same code.

pub mod dbvv;
pub mod row;
pub mod vector;

pub use dbvv::DbVersionVector;
pub use vector::{VersionVector, VvOrd, VV_INLINE_CAP};
