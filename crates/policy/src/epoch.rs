//! Policy epochs: the stamp the syndication root gives every policy
//! push (`SyndicationTree::propagate`) and each PAP keeps as its
//! position (`Pap::policy_epoch`). A PDP stamps every answer with its
//! PAP's epoch ([`crate::eval::Response::epoch`]), and whoever holds
//! the answer — a replica group, a PEP cache, the capability mint —
//! judges it against the one epoch its domain announced. `dacs-pap`
//! re-exports this module.

/// A monotonically increasing policy-state stamp.
///
/// Epoch 0 ([`PolicyEpoch::ZERO`]) means "has never seen a syndicated
/// update". The syndication root assigns `1, 2, 3, …` to successive
/// pushes; a node's epoch is the highest stamp it has processed with no
/// gaps before it.
///
/// # Examples
///
/// ```
/// use dacs_policy::epoch::PolicyEpoch;
///
/// let e = PolicyEpoch::ZERO;
/// assert_eq!(e.next(), PolicyEpoch(1));
/// assert!(PolicyEpoch(3) > PolicyEpoch(2));
/// assert_eq!(PolicyEpoch(5).lag_behind(PolicyEpoch(2)), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PolicyEpoch(pub u64);

impl PolicyEpoch {
    /// The pre-syndication epoch: no update ever seen.
    pub const ZERO: PolicyEpoch = PolicyEpoch(0);

    /// The stamp following this one.
    pub fn next(self) -> PolicyEpoch {
        PolicyEpoch(self.0 + 1)
    }

    /// How far `behind` trails this epoch (0 if it does not).
    pub fn lag_behind(self, behind: PolicyEpoch) -> u64 {
        self.0.saturating_sub(behind.0)
    }
}

impl std::fmt::Display for PolicyEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        assert_eq!(PolicyEpoch::ZERO.next(), PolicyEpoch(1));
        assert!(PolicyEpoch(2) < PolicyEpoch(3));
        assert_eq!(PolicyEpoch(7).lag_behind(PolicyEpoch(4)), 3);
        assert_eq!(PolicyEpoch(4).lag_behind(PolicyEpoch(7)), 0);
        assert_eq!(PolicyEpoch(9).to_string(), "epoch:9");
    }
}
