//! Durability domains (paper §II-B and §IV).
//!
//! A durability domain defines which components of the memory system are
//! inside the "red box": stores that have reached a component inside the
//! domain survive a power failure. The domain therefore determines both
//!
//! * the **cost** of persistence: whether `clwb`/`sfence` are required
//!   (ADR) or elidable (eADR and beyond), and which latency class a pool's
//!   accesses pay (PDRAM serves persistent pages at DRAM speed);
//! * the **crash semantics**: what the simulated power failure preserves.

use crate::pool::{MediaKind, PersistenceClass};

/// The five durability domains discussed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DurabilityDomain {
    /// Deprecated pre-ADR behaviour: only the Optane DIMMs themselves are
    /// durable; even flushed-and-fenced stores may be lost in the WPQ.
    /// Included for completeness and for adversarial recovery tests.
    NoPowerReserve,
    /// Asynchronous DRAM Refresh: stores that reached the memory
    /// controller's write-pending queues persist. Programs must `clwb` +
    /// `sfence` to guarantee that.
    Adr,
    /// Extended ADR: enough reserve power to flush CPU caches on failure.
    /// Stores to persistent media become durable on reaching L2/L3; no
    /// explicit flushes or fences are needed.
    Eadr,
    /// The paper's proposal (§IV-A): the Memory-Mode directory plus a large
    /// battery make *all* of DRAM a persistent cache of Optane. Persistent
    /// pools are served at DRAM latency and everything cache-visible
    /// survives.
    Pdram,
    /// The paper's lightweight variant (§IV-B): only a bounded set of
    /// DRAM pages (the redo logs) are a persistent cache of Optane; the
    /// rest of the system behaves like eADR.
    PdramLite,
}

impl DurabilityDomain {
    /// All domains, in paper order.
    pub const ALL: [DurabilityDomain; 5] = [
        DurabilityDomain::NoPowerReserve,
        DurabilityDomain::Adr,
        DurabilityDomain::Eadr,
        DurabilityDomain::Pdram,
        DurabilityDomain::PdramLite,
    ];

    /// Whether software must issue `clwb`/`sfence` for durability.
    ///
    /// Under eADR/PDRAM/PDRAM-Lite the flush instructions are elided by
    /// the PTM (the paper transforms the ADR algorithms to eADR exactly
    /// this way, §III-C).
    pub fn requires_flushes(self) -> bool {
        matches!(
            self,
            DurabilityDomain::NoPowerReserve | DurabilityDomain::Adr
        )
    }

    /// Whether a pool with the given media/class is served at DRAM latency
    /// despite being persistent.
    pub fn serves_at_dram_speed(self, media: MediaKind, class: PersistenceClass) -> bool {
        match self {
            DurabilityDomain::Pdram => media == MediaKind::Optane,
            DurabilityDomain::PdramLite => {
                media == MediaKind::Optane && class == PersistenceClass::PdramLite
            }
            _ => false,
        }
    }

    /// Whether a power failure preserves *all* cache-visible contents of a
    /// pool (as opposed to only explicitly persisted lines).
    pub fn preserves_cache_visible(self, media: MediaKind, _class: PersistenceClass) -> bool {
        if media == MediaKind::Dram {
            // Plain DRAM pools are volatile under every domain.
            return false;
        }
        match self {
            DurabilityDomain::NoPowerReserve | DurabilityDomain::Adr => false,
            DurabilityDomain::Eadr | DurabilityDomain::Pdram => true,
            DurabilityDomain::PdramLite => true,
        }
        // Note: `class` currently only matters on the latency side; for
        // crash semantics every Optane-backed pool is preserved by
        // eADR-or-stronger domains. The distinguishing PDRAM-Lite case —
        // a *DRAM*-backed region that persists — is modeled by giving the
        // lite region Optane media with `PersistenceClass::PdramLite`,
        // which the latency model serves at DRAM speed.
        // (`class` intentionally unused here.)
    }

    /// Short label used by the benchmark harness (matches the paper's
    /// curve names).
    pub fn label(self) -> &'static str {
        match self {
            DurabilityDomain::NoPowerReserve => "NoRes",
            DurabilityDomain::Adr => "ADR",
            DurabilityDomain::Eadr => "eADR",
            DurabilityDomain::Pdram => "PDRAM",
            DurabilityDomain::PdramLite => "PDRAM-Lite",
        }
    }
}

impl DurabilityDomain {
    /// Short stable name used in reproducer lines and CLI flags (the
    /// inverse of [`std::str::FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            DurabilityDomain::NoPowerReserve => "nores",
            DurabilityDomain::Adr => "adr",
            DurabilityDomain::Eadr => "eadr",
            DurabilityDomain::Pdram => "pdram",
            DurabilityDomain::PdramLite => "pdram-lite",
        }
    }
}

impl std::str::FromStr for DurabilityDomain {
    type Err = String;

    fn from_str(s: &str) -> Result<DurabilityDomain, String> {
        DurabilityDomain::ALL
            .into_iter()
            .find(|d| d.name() == s)
            .ok_or_else(|| {
                format!("unknown domain `{s}` (known: nores, adr, eadr, pdram, pdram-lite)")
            })
    }
}

impl std::fmt::Display for DurabilityDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{MediaKind, PersistenceClass};

    #[test]
    fn only_adr_class_domains_require_flushes() {
        assert!(DurabilityDomain::NoPowerReserve.requires_flushes());
        assert!(DurabilityDomain::Adr.requires_flushes());
        assert!(!DurabilityDomain::Eadr.requires_flushes());
        assert!(!DurabilityDomain::Pdram.requires_flushes());
        assert!(!DurabilityDomain::PdramLite.requires_flushes());
    }

    #[test]
    fn pdram_serves_all_optane_at_dram_speed() {
        let d = DurabilityDomain::Pdram;
        assert!(d.serves_at_dram_speed(MediaKind::Optane, PersistenceClass::Normal));
        assert!(d.serves_at_dram_speed(MediaKind::Optane, PersistenceClass::PdramLite));
        assert!(!d.serves_at_dram_speed(MediaKind::Dram, PersistenceClass::Normal));
    }

    #[test]
    fn pdram_lite_only_accelerates_lite_pools() {
        let d = DurabilityDomain::PdramLite;
        assert!(!d.serves_at_dram_speed(MediaKind::Optane, PersistenceClass::Normal));
        assert!(d.serves_at_dram_speed(MediaKind::Optane, PersistenceClass::PdramLite));
    }

    #[test]
    fn adr_and_eadr_never_accelerate() {
        for d in [DurabilityDomain::Adr, DurabilityDomain::Eadr] {
            for c in [PersistenceClass::Normal, PersistenceClass::PdramLite] {
                assert!(!d.serves_at_dram_speed(MediaKind::Optane, c));
            }
        }
    }

    #[test]
    fn dram_pools_are_always_volatile() {
        for d in DurabilityDomain::ALL {
            assert!(!d.preserves_cache_visible(MediaKind::Dram, PersistenceClass::Normal));
        }
    }

    #[test]
    fn eadr_and_stronger_preserve_cache_visible_optane() {
        for d in [
            DurabilityDomain::Eadr,
            DurabilityDomain::Pdram,
            DurabilityDomain::PdramLite,
        ] {
            assert!(d.preserves_cache_visible(MediaKind::Optane, PersistenceClass::Normal));
        }
        for d in [DurabilityDomain::NoPowerReserve, DurabilityDomain::Adr] {
            assert!(!d.preserves_cache_visible(MediaKind::Optane, PersistenceClass::Normal));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = DurabilityDomain::ALL.iter().map(|d| d.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DurabilityDomain::ALL.len());
    }

    /// Reproducer lines and `--domain` flags carry these spellings.
    #[test]
    fn names_are_the_cli_spellings_and_parse_back() {
        let names = DurabilityDomain::ALL.map(|d| d.name());
        assert_eq!(names, ["nores", "adr", "eadr", "pdram", "pdram-lite"]);
        for d in DurabilityDomain::ALL {
            assert_eq!(d.name().parse(), Ok(d));
        }
        assert!("ADR".parse::<DurabilityDomain>().is_err());
    }
}
