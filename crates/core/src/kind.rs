//! Runtime selection of a protocol by name.

use std::fmt;
use std::str::FromStr;

/// The protocols this crate implements, as a data value.
///
/// [`ProtocolKind`] lets harnesses, CLIs and configuration files select a
/// protocol dynamically; the actual state machines stay monomorphized (see
/// `rdt-sim`'s `run_protocol_kind`).
///
/// # Example
///
/// ```rust
/// use rdt_core::ProtocolKind;
///
/// let kind: ProtocolKind = "bhmr".parse()?;
/// assert!(kind.ensures_rdt());
/// assert_eq!(ProtocolKind::all().len(), 10);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's protocol (predicate `C1 ∨ C2`).
    Bhmr,
    /// Variant without the `simple` vector (predicate `C1 ∨ C2'`).
    BhmrNoSimple,
    /// Variant with `C1` only and a permanently-false `causal` diagonal.
    BhmrCausalOnly,
    /// Wang's Fixed-Dependency-After-Send.
    Fdas,
    /// Wang's Fixed-Dependency-Interval.
    Fdi,
    /// No-Receive-After-Send.
    Nras,
    /// Checkpoint-After-Send.
    Cas,
    /// Checkpoint-Before-Receive.
    Cbr,
    /// Briatico–Ciuffoletti–Simoncini index-based protocol (Z-cycle
    /// freedom only, not RDT).
    Bcs,
    /// No forced checkpoints (violates RDT; negative control).
    Uncoordinated,
}

impl ProtocolKind {
    /// All implemented protocols, most to least sophisticated.
    pub fn all() -> &'static [ProtocolKind] {
        &[
            ProtocolKind::Bhmr,
            ProtocolKind::BhmrNoSimple,
            ProtocolKind::BhmrCausalOnly,
            ProtocolKind::Fdas,
            ProtocolKind::Fdi,
            ProtocolKind::Nras,
            ProtocolKind::Cas,
            ProtocolKind::Cbr,
            ProtocolKind::Bcs,
            ProtocolKind::Uncoordinated,
        ]
    }

    /// Short stable name, matching [`CicProtocol::name`](crate::CicProtocol::name).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Bhmr => "bhmr",
            ProtocolKind::BhmrNoSimple => "bhmr-nosimple",
            ProtocolKind::BhmrCausalOnly => "bhmr-causalonly",
            ProtocolKind::Fdas => "fdas",
            ProtocolKind::Fdi => "fdi",
            ProtocolKind::Nras => "nras",
            ProtocolKind::Cas => "cas",
            ProtocolKind::Cbr => "cbr",
            ProtocolKind::Bcs => "bcs",
            ProtocolKind::Uncoordinated => "uncoordinated",
        }
    }

    /// Whether every pattern the protocol produces satisfies RDT.
    pub fn ensures_rdt(self) -> bool {
        !matches!(self, ProtocolKind::Uncoordinated | ProtocolKind::Bcs)
    }

    /// Whether every pattern the protocol produces is Z-cycle-free (no
    /// useless checkpoints). RDT implies Z-cycle-freedom; BCS provides it
    /// without RDT.
    pub fn ensures_z_cycle_freedom(self) -> bool {
        self.ensures_rdt() || matches!(self, ProtocolKind::Bcs)
    }

    /// Whether the protocol piggybacks a transitive dependency vector (and
    /// therefore reports minimum consistent global checkpoints with each
    /// checkpoint record).
    pub fn tracks_dependencies(self) -> bool {
        matches!(
            self,
            ProtocolKind::Bhmr
                | ProtocolKind::BhmrNoSimple
                | ProtocolKind::BhmrCausalOnly
                | ProtocolKind::Fdas
                | ProtocolKind::Fdi
        )
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtocolKind::all()
            .iter()
            .copied()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown protocol {s:?}; expected one of: {}", names()))
    }
}

fn names() -> String {
    ProtocolKind::all()
        .iter()
        .map(|kind| kind.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_names() {
        for &kind in ProtocolKind::all() {
            assert_eq!(kind.name().parse::<ProtocolKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn unknown_name_is_a_helpful_error() {
        let err = "nope".parse::<ProtocolKind>().unwrap_err();
        assert!(err.contains("unknown protocol"));
        assert!(err.contains("bhmr"));
    }

    #[test]
    fn rdt_ensuring_excludes_bcs_and_uncoordinated() {
        let ensuring: Vec<_> = ProtocolKind::all()
            .iter()
            .copied()
            .filter(|k| k.ensures_rdt())
            .collect();
        assert_eq!(ensuring.len(), ProtocolKind::all().len() - 2);
        assert!(!ensuring.contains(&ProtocolKind::Uncoordinated));
        assert!(!ensuring.contains(&ProtocolKind::Bcs));
    }

    #[test]
    fn z_cycle_freedom_classification() {
        assert!(ProtocolKind::Bcs.ensures_z_cycle_freedom());
        assert!(!ProtocolKind::Bcs.ensures_rdt());
        assert!(ProtocolKind::Bhmr.ensures_z_cycle_freedom());
        assert!(!ProtocolKind::Uncoordinated.ensures_z_cycle_freedom());
    }

    #[test]
    fn protocols_are_send_sync_clone() {
        // Guide C-SEND-SYNC: embedding in threaded transports requires the
        // state machines to move across threads (see the
        // `threaded_transport` example).
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<crate::Bhmr>();
        assert_traits::<crate::BhmrNoSimple>();
        assert_traits::<crate::BhmrCausalOnly>();
        assert_traits::<crate::Fdas>();
        assert_traits::<crate::Fdi>();
        assert_traits::<crate::Nras>();
        assert_traits::<crate::Cas>();
        assert_traits::<crate::Cbr>();
        assert_traits::<crate::Bcs>();
        assert_traits::<crate::Uncoordinated>();
        assert_traits::<crate::BhmrPiggyback>();
        assert_traits::<crate::TdvPiggyback>();
    }

    #[test]
    fn dependency_tracking_classification() {
        assert!(ProtocolKind::Bhmr.tracks_dependencies());
        assert!(ProtocolKind::Fdi.tracks_dependencies());
        assert!(!ProtocolKind::Cbr.tracks_dependencies());
    }
}
