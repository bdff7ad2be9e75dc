//! Conflict handling policies.
//!
//! The paper leaves conflict *resolution* to the application ("resolved in
//! an application-specific manner, which often involves manual
//! intervention", §2). The default [`ConflictPolicy::Report`] is exactly the
//! paper's behaviour: declare the inconsistency, refuse the copy, and strip
//! the conflicting item's records from the received tail vector so the
//! refusal is remembered (Fig. 3).
//!
//! [`ConflictPolicy::ResolveLww`] is the common application-level resolver
//! (deterministic last-writer-wins merge) offered so that long-running
//! randomized simulations converge after injected conflicts; it is built on
//! the standard version-vector technique of adopting the component-wise
//! maximum of the two vectors and then performing the resolution as a fresh
//! local update, so the merged copy dominates both parents and wins
//! everywhere through normal propagation.

/// What a replica does when `AcceptPropagation` detects inconsistent
/// copies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConflictPolicy {
    /// Declare the conflict and refuse the copy (the paper's behaviour).
    /// Propagation for the item is suspended until the conflict is resolved
    /// externally; the conflict keeps being re-detected on later rounds.
    #[default]
    Report,
    /// Declare the conflict, then auto-resolve: merge version vectors
    /// (component-wise max), pick the winning value deterministically, and
    /// record the resolution as a new local update.
    ResolveLww,
}

/// Deterministically decide whether the *remote* copy survives a conflict:
/// the copy that reflects more updates wins; ties break on the value bytes
/// (larger lexicographically), then in favour of the local copy. Any
/// deterministic rule works — resolution is installed as a fresh update
/// that dominates both parents.
///
/// Borrow-based (no value is cloned to make the decision); the caller
/// installs whichever copy won.
pub fn lww_remote_wins(
    local_value: &[u8],
    local_ivv: &[u64],
    remote_value: &[u8],
    remote_ivv: &[u64],
) -> bool {
    let lt: u64 = local_ivv.iter().sum();
    let rt: u64 = remote_ivv.iter().sum();
    rt > lt || (rt == lt && remote_value > local_value)
}

#[cfg(test)]
mod tests {
    use epidb_vv::VersionVector;

    use super::*;

    fn vv(e: &[u64]) -> VersionVector {
        VersionVector::from_entries(e.to_vec())
    }

    fn winner<'a>(
        local: &'a [u8],
        lv: &VersionVector,
        remote: &'a [u8],
        rv: &VersionVector,
    ) -> &'a [u8] {
        if lww_remote_wins(local, lv, remote, rv) {
            remote
        } else {
            local
        }
    }

    #[test]
    fn more_updates_wins() {
        assert_eq!(winner(b"local", &vv(&[1, 0]), b"remote", &vv(&[0, 3])), b"remote");
    }

    #[test]
    fn tie_breaks_on_bytes() {
        assert_eq!(winner(b"bbb", &vv(&[1, 0]), b"aaa", &vv(&[0, 1])), b"bbb");
        assert_eq!(winner(b"aaa", &vv(&[1, 0]), b"bbb", &vv(&[0, 1])), b"bbb");
    }

    #[test]
    fn full_tie_keeps_local() {
        assert!(!lww_remote_wins(b"same", &vv(&[1, 0]), b"same", &vv(&[0, 1])));
    }

    #[test]
    fn winner_is_symmetric_under_swap() {
        // Whatever one side picks, the other side must pick the same value
        // when roles are swapped — determinism across replicas.
        let (a, av) = (b"alpha".as_slice(), vv(&[2, 0]));
        let (b, bv) = (b"beta".as_slice(), vv(&[0, 2]));
        assert_eq!(winner(a, &av, b, &bv), winner(b, &bv, a, &av));
    }
}
