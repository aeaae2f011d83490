//! Architecture selection: which memory organisation a [`crate::System`]
//! simulates.

use chameleon_core::{
    policy::HmaPolicy, AlloyPolicy, ChFlexPolicy, FlatPolicy, Flavor, HmaConfig, MemCachePolicy,
    RemapPolicy, StaticNumaPolicy, UnisonPolicy,
};
use chameleon_os::guidance::GuidanceConfig;
use chameleon_os::numa::AutoNumaConfig;
use chameleon_os::{MemoryMap, NodePreference, Visibility};
use chameleon_simkit::mem::ByteSize;
use serde::{Deserialize, Serialize};

/// Every memory organisation the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Architecture {
    /// Off-chip DDR only, at the heterogeneous system's off-chip capacity
    /// (Figure 18's `baseline_20GB_DDR3`).
    FlatSmall,
    /// Off-chip DDR only, at the heterogeneous system's *total* capacity
    /// (Figure 18's `baseline_24GB_DDR3`).
    FlatLarge,
    /// Latency-optimised direct-mapped DRAM cache (Alloy).
    Alloy,
    /// Hardware-managed PoM baseline (Sim et al.).
    Pom,
    /// CAMEO-style PoM with 64-byte segments.
    Cameo,
    /// Basic Chameleon.
    Chameleon,
    /// Chameleon-Opt.
    ChameleonOpt,
    /// Polymorphic Memory (Chung et al.).
    Polymorphic,
    /// Unison-Cache: footprint-predicting page-granularity DRAM cache
    /// (Jevdjic et al.).
    Unison,
    /// MemCache: hot-filtered hybrid cache (after Bakhshalipour et al.).
    MemCache,
    /// CH-Flex: consistent-hashing resizable DRAM cache (after Chang
    /// et al.).
    ChFlex,
    /// OS-managed NUMA with the first-touch allocator (Figure 2a).
    NumaFirstTouch,
    /// OS-managed NUMA with AutoNUMA balancing at the given
    /// `numa_period_threshold` (Figures 2b/2c/20).
    AutoNuma {
        /// Threshold as a percentage (70, 80 or 90 in the paper).
        threshold_pct: u8,
    },
    /// OS-managed NUMA driven by the online guidance tier (after Olson
    /// et al.): a sampling profiler classifies pages hot/cold per tenant
    /// each epoch and feeds two-way placement hints to the kernel.
    Guided,
}

impl Architecture {
    /// All architectures Figure 18 compares.
    pub fn figure18() -> Vec<Architecture> {
        vec![
            Architecture::FlatSmall,
            Architecture::FlatLarge,
            Architecture::Alloy,
            Architecture::Pom,
            Architecture::Chameleon,
            Architecture::ChameleonOpt,
        ]
    }

    /// Every registered architecture, with a representative AutoNUMA
    /// threshold standing in for the parameterised variant. The
    /// cross-scheme conformance battery iterates this registry so a newly
    /// added scheme is covered without editing each test.
    pub fn all() -> Vec<Architecture> {
        vec![
            Architecture::FlatSmall,
            Architecture::FlatLarge,
            Architecture::Alloy,
            Architecture::Pom,
            Architecture::Cameo,
            Architecture::Chameleon,
            Architecture::ChameleonOpt,
            Architecture::Polymorphic,
            Architecture::Unison,
            Architecture::MemCache,
            Architecture::ChFlex,
            Architecture::NumaFirstTouch,
            Architecture::AutoNuma { threshold_pct: 90 },
            Architecture::Guided,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Architecture::FlatSmall => "baseline_small_DDR (no stacked DRAM)".to_owned(),
            Architecture::FlatLarge => "baseline_large_DDR (no stacked DRAM)".to_owned(),
            Architecture::Alloy => "Alloy-Cache".to_owned(),
            Architecture::Pom => "PoM".to_owned(),
            Architecture::Cameo => "CAMEO".to_owned(),
            Architecture::Chameleon => "Chameleon".to_owned(),
            Architecture::ChameleonOpt => "Chameleon-Opt".to_owned(),
            Architecture::Polymorphic => "Polymorphic_memory".to_owned(),
            Architecture::Unison => "Unison-Cache".to_owned(),
            Architecture::MemCache => "MemCache".to_owned(),
            Architecture::ChFlex => "CH-Flex".to_owned(),
            Architecture::NumaFirstTouch => "numaAware_allocator".to_owned(),
            Architecture::AutoNuma { threshold_pct } => {
                format!("autoNUMA_{threshold_pct}percent")
            }
            Architecture::Guided => "online_guidance".to_owned(),
        }
    }

    /// Canonical command-line spelling of every fixed architecture; the
    /// parameterised AutoNUMA variant is spelled `autonuma-<pct>`. This
    /// single list drives both [`Architecture::parse`] and its
    /// unknown-name error message, so the two cannot drift apart.
    pub const CANONICAL: [(&'static str, Architecture); 13] = [
        ("flat-small", Architecture::FlatSmall),
        ("flat-large", Architecture::FlatLarge),
        ("alloy", Architecture::Alloy),
        ("pom", Architecture::Pom),
        ("cameo", Architecture::Cameo),
        ("chameleon", Architecture::Chameleon),
        ("chameleon-opt", Architecture::ChameleonOpt),
        ("polymorphic", Architecture::Polymorphic),
        ("unison", Architecture::Unison),
        ("memcache", Architecture::MemCache),
        ("ch-flex", Architecture::ChFlex),
        ("numa-first-touch", Architecture::NumaFirstTouch),
        ("guided", Architecture::Guided),
    ];

    /// Parses an architecture from a command-line spelling. Accepts the
    /// canonical names ([`Architecture::CANONICAL`]) and the paper legend
    /// labels ([`Architecture::label`]), case-insensitively and ignoring
    /// `-`/`_`/space, plus `autonuma-<pct>` for the AutoNUMA variant.
    ///
    /// # Errors
    ///
    /// Returns a message listing every accepted canonical name.
    pub fn parse(spec: &str) -> Result<Architecture, String> {
        fn norm(s: &str) -> String {
            s.chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase()
        }
        let wanted = norm(spec);
        for (canonical, arch) in Architecture::CANONICAL {
            if wanted == norm(canonical) || wanted == norm(&arch.label()) {
                return Ok(arch);
            }
        }
        if let Some(rest) = wanted.strip_prefix("autonuma") {
            // Digits only, optionally followed by `percent` (the label's
            // spelling): `autonuma-8o` is an error, not AutoNUMA 8%.
            let digits = rest.strip_suffix("percent").unwrap_or(rest);
            if digits.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(pct) = digits.parse::<u8>() {
                    if (1..=100).contains(&pct) {
                        return Ok(Architecture::AutoNuma { threshold_pct: pct });
                    }
                }
            }
            return Err(format!(
                "bad AutoNUMA spec {spec:?}: expected autonuma-<pct> with pct in 1..=100"
            ));
        }
        let names: Vec<&str> = Architecture::CANONICAL.iter().map(|(n, _)| *n).collect();
        Err(format!(
            "unknown architecture {spec:?}; accepted: {}, autonuma-<pct>, \
             or any paper legend label",
            names.join(", ")
        ))
    }

    /// Whether the OS sees the stacked DRAM as allocatable memory.
    pub fn visibility(&self) -> Visibility {
        match self {
            Architecture::FlatSmall
            | Architecture::FlatLarge
            | Architecture::Alloy
            | Architecture::Unison
            | Architecture::MemCache => Visibility::OffchipOnly,
            _ => Visibility::Both,
        }
    }

    /// The OS allocation preference this organisation implies.
    pub fn preference(&self) -> NodePreference {
        match self {
            // The first-touch allocator puts data in the fast node until
            // it runs out (Section III-A1).
            Architecture::NumaFirstTouch => NodePreference::FastFirst,
            // AutoNUMA and the guidance tier keep the fast node as
            // migration headroom: data lands off-chip and hot pages are
            // pulled in per epoch (Section III-A2's timeline starts with
            // an empty fast node).
            Architecture::AutoNuma { .. } | Architecture::Guided => NodePreference::SlowFirst,
            // Hardware-managed systems see churned, spread allocations.
            _ => NodePreference::Balanced,
        }
    }

    /// The physical memory map the OS manages for this organisation.
    pub fn memory_map(&self, hma: &HmaConfig) -> MemoryMap {
        match self {
            // FlatLarge folds the stacked capacity into off-chip DDR.
            Architecture::FlatLarge => MemoryMap::new(
                hma.stacked.capacity,
                ByteSize::bytes_exact(hma.offchip.capacity.bytes() + hma.stacked.capacity.bytes()),
            ),
            _ => MemoryMap::new(hma.stacked.capacity, hma.offchip.capacity),
        }
    }

    /// Builds the hardware policy.
    pub fn build_policy(&self, hma: &HmaConfig) -> Box<dyn HmaPolicy> {
        match self {
            Architecture::FlatSmall => Box::new(FlatPolicy::new(hma.clone(), hma.offchip.capacity)),
            Architecture::FlatLarge => Box::new(FlatPolicy::new(
                hma.clone(),
                ByteSize::bytes_exact(hma.offchip.capacity.bytes() + hma.stacked.capacity.bytes()),
            )),
            Architecture::Alloy => Box::new(AlloyPolicy::new(hma.clone())),
            Architecture::Pom => Box::new(RemapPolicy::new(hma.clone(), Flavor::Pom)),
            Architecture::Cameo => Box::new(RemapPolicy::new(
                hma.clone().with_cameo_segments(),
                Flavor::Pom,
            )),
            Architecture::Chameleon => Box::new(RemapPolicy::new(
                hma.clone(),
                Flavor::Chameleon { opt: false },
            )),
            Architecture::ChameleonOpt => Box::new(RemapPolicy::new(
                hma.clone(),
                Flavor::Chameleon { opt: true },
            )),
            Architecture::Polymorphic => {
                Box::new(RemapPolicy::new(hma.clone(), Flavor::Polymorphic))
            }
            Architecture::Unison => Box::new(UnisonPolicy::new(hma.clone())),
            Architecture::MemCache => Box::new(MemCachePolicy::new(hma.clone())),
            Architecture::ChFlex => Box::new(ChFlexPolicy::new(hma.clone())),
            Architecture::NumaFirstTouch | Architecture::AutoNuma { .. } | Architecture::Guided => {
                Box::new(StaticNumaPolicy::new(hma.clone()))
            }
        }
    }

    /// AutoNUMA balancing configuration, when this organisation uses it.
    pub fn autonuma(&self) -> Option<AutoNumaConfig> {
        match self {
            Architecture::AutoNuma { threshold_pct } => Some(AutoNumaConfig {
                threshold: *threshold_pct as f64 / 100.0,
                ..AutoNumaConfig::default()
            }),
            _ => None,
        }
    }

    /// Online guidance-tier configuration, when this organisation uses it.
    pub fn guidance(&self) -> Option<GuidanceConfig> {
        match self {
            Architecture::Guided => Some(GuidanceConfig::default()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::HmaConfig;

    #[test]
    fn visibility_split() {
        assert_eq!(Architecture::Alloy.visibility(), Visibility::OffchipOnly);
        assert_eq!(Architecture::Unison.visibility(), Visibility::OffchipOnly);
        assert_eq!(Architecture::MemCache.visibility(), Visibility::OffchipOnly);
        assert_eq!(Architecture::Pom.visibility(), Visibility::Both);
        assert_eq!(Architecture::ChFlex.visibility(), Visibility::Both);
        assert_eq!(Architecture::ChameleonOpt.visibility(), Visibility::Both);
    }

    #[test]
    fn flat_large_gets_total_capacity() {
        let hma = HmaConfig::scaled_laptop();
        let map = Architecture::FlatLarge.memory_map(&hma);
        assert_eq!(map.offchip().bytes(), (320 + 64) << 20);
        let map_small = Architecture::FlatSmall.memory_map(&hma);
        assert_eq!(map_small.offchip().bytes(), 320 << 20);
    }

    #[test]
    fn autonuma_threshold_parsed() {
        let cfg = Architecture::AutoNuma { threshold_pct: 90 }
            .autonuma()
            .unwrap();
        assert!((cfg.threshold - 0.9).abs() < 1e-12);
        assert!(Architecture::Pom.autonuma().is_none());
    }

    #[test]
    fn figure18_lineup() {
        let archs = Architecture::figure18();
        assert_eq!(archs.len(), 6);
        assert_eq!(archs[0], Architecture::FlatSmall);
        assert_eq!(archs[5], Architecture::ChameleonOpt);
    }

    #[test]
    fn parse_accepts_aliases_and_labels() {
        assert_eq!(Architecture::parse("pom").unwrap(), Architecture::Pom);
        assert_eq!(
            Architecture::parse("Chameleon-Opt").unwrap(),
            Architecture::ChameleonOpt
        );
        assert_eq!(
            Architecture::parse("chameleon_opt").unwrap(),
            Architecture::ChameleonOpt
        );
        assert_eq!(
            Architecture::parse("Alloy-Cache").unwrap(),
            Architecture::Alloy
        );
        assert_eq!(
            Architecture::parse("baseline_small_DDR (no stacked DRAM)").unwrap(),
            Architecture::FlatSmall
        );
        assert_eq!(
            Architecture::parse("autonuma-90").unwrap(),
            Architecture::AutoNuma { threshold_pct: 90 }
        );
        assert_eq!(
            Architecture::parse("autoNUMA_80percent").unwrap(),
            Architecture::AutoNuma { threshold_pct: 80 }
        );
        assert_eq!(
            Architecture::parse("Unison-Cache").unwrap(),
            Architecture::Unison
        );
        assert_eq!(
            Architecture::parse("ch_flex").unwrap(),
            Architecture::ChFlex
        );
        assert_eq!(
            Architecture::parse("MEMCACHE").unwrap(),
            Architecture::MemCache
        );
        assert!(Architecture::parse("autonuma-200").is_err());
        for bad in [
            "autonuma-8o",
            "autonuma-7x0",
            "autonuma-",
            "autonuma-percent",
        ] {
            let err = Architecture::parse(bad).unwrap_err();
            assert!(err.contains("bad AutoNUMA spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_round_trips_every_registered_architecture() {
        for arch in Architecture::all() {
            assert_eq!(
                Architecture::parse(&arch.label()).unwrap(),
                arch,
                "label round-trip for {arch:?}"
            );
        }
        for (canonical, arch) in Architecture::CANONICAL {
            assert_eq!(Architecture::parse(canonical).unwrap(), arch);
        }
        for pct in 1..=100u8 {
            assert_eq!(
                Architecture::parse(&format!("autonuma-{pct}")).unwrap(),
                Architecture::AutoNuma { threshold_pct: pct }
            );
        }
    }

    #[test]
    fn unknown_architecture_error_lists_valid_names() {
        let err = Architecture::parse("doom").unwrap_err();
        assert!(err.contains("doom"), "echoes the bad input: {err}");
        for (canonical, _) in Architecture::CANONICAL {
            assert!(
                err.contains(canonical),
                "error must list {canonical}: {err}"
            );
        }
        assert!(err.contains("autonuma-<pct>"), "{err}");
    }

    #[test]
    fn registry_covers_every_variant_once() {
        let all = Architecture::all();
        assert_eq!(all.len(), 14);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn labels_match_paper_spellings() {
        assert_eq!(
            Architecture::AutoNuma { threshold_pct: 80 }.label(),
            "autoNUMA_80percent"
        );
        assert_eq!(Architecture::Cameo.label(), "CAMEO");
    }
}
