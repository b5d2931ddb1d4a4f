//! Model resolutions and grid combinations.

use crate::component::Component;

/// The two resolution setups the paper evaluates (§II):
///
/// * 1° — CESM 1.1.1, finite-volume (FV) atmosphere/land at 1°, ocean and
///   ice at 1° on a displaced-pole grid;
/// * 1/8° — pre-release CESM 1.2, HOMME spectral-element cube-sphere
///   atmosphere at 1/8°, FV land at 1/4°, ocean/ice at 1/10° tri-pole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// 1° FV grid — the moderate setup with known manual tunings.
    OneDegree,
    /// 1/8° HOMME-SE — the highest resolution CESM supports.
    EighthDegree,
}

impl Resolution {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Resolution::OneDegree => "1deg FV (CESM 1.1.1)",
            Resolution::EighthDegree => "1/8deg HOMME-SE (CESM 1.2 pre-release)",
        }
    }

    /// The grid each component runs on in this setup.
    pub fn grid_of(self, c: Component) -> &'static str {
        match (self, c) {
            (Resolution::OneDegree, Component::Atm) => "1deg FV",
            (Resolution::OneDegree, Component::Lnd) => "1deg FV",
            (Resolution::OneDegree, Component::Ocn) => "1deg displaced pole",
            (Resolution::OneDegree, Component::Ice) => "1deg displaced pole",
            (Resolution::EighthDegree, Component::Atm) => "1/8deg HOMME-SE cube sphere",
            (Resolution::EighthDegree, Component::Lnd) => "1/4deg FV",
            (Resolution::EighthDegree, Component::Ocn) => "1/10deg tri-pole",
            (Resolution::EighthDegree, Component::Ice) => "1/10deg tri-pole",
            _ => "coupler-resolution",
        }
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wire token for a resolution.
pub fn resolution_token(r: Resolution) -> &'static str {
    match r {
        Resolution::OneDegree => "1deg",
        Resolution::EighthDegree => "eighth",
    }
}

/// Parse a resolution wire token.
pub fn parse_resolution(s: &str) -> Result<Resolution, String> {
    [Resolution::OneDegree, Resolution::EighthDegree]
        .into_iter()
        .find(|&r| resolution_token(r) == s)
        .ok_or_else(|| format!("unknown resolution {s:?} (1deg|eighth)"))
}

/// Static description of a resolution's discrete allocation structure.
#[derive(Debug, Clone)]
pub struct ResolutionConfig {
    pub resolution: Resolution,
    /// Allowed ocean node counts ("the version of CESM we used had ocean
    /// model processor count constraints hard coded into the
    /// implementation" — Table I line 5 for 1°, §IV-B for 1/8°).
    /// `None` = any integer count (the "unconstrained ocean" experiments).
    pub ocean_allowed: Option<Vec<i64>>,
    /// Allowed atmosphere node counts (Table I line 6: "sweet spots …
    /// core counts that generally decompose the grid evenly").
    pub atm_allowed: Option<Vec<i64>>,
}

impl ResolutionConfig {
    /// Table I line 5: `O = {2, 4, …, 480, 768}` — even counts up to 480
    /// plus 768.
    pub fn one_degree_ocean_set() -> Vec<i64> {
        let mut v: Vec<i64> = (1..=240).map(|k| 2 * k).collect();
        v.push(768);
        v
    }

    /// Table I line 6: `A = {1, 2, …, 1638, 1664}` — every count up to
    /// 1638 plus 1664.
    pub fn one_degree_atm_set() -> Vec<i64> {
        let mut v: Vec<i64> = (1..=1638).collect();
        v.push(1664);
        v
    }

    /// §IV-B: "the ocean model was initially limited to a few handful of
    /// node counts including 480, 512, 2356, 3136, 4564, 6124, and 19460
    /// as a result of prior testing".
    pub fn eighth_degree_ocean_set() -> Vec<i64> {
        vec![480, 512, 2356, 3136, 4564, 6124, 19_460]
    }

    /// The 1° configuration with both hard-coded sets.
    pub fn one_degree() -> Self {
        ResolutionConfig {
            resolution: Resolution::OneDegree,
            ocean_allowed: Some(Self::one_degree_ocean_set()),
            atm_allowed: Some(Self::one_degree_atm_set()),
        }
    }

    /// The 1/8° configuration with the constrained ocean set.
    pub fn eighth_degree() -> Self {
        ResolutionConfig {
            resolution: Resolution::EighthDegree,
            ocean_allowed: Some(Self::eighth_degree_ocean_set()),
            atm_allowed: None,
        }
    }

    /// The same configuration with the ocean constraint dropped (the last
    /// two Table III experiments).
    pub fn without_ocean_constraint(mut self) -> Self {
        self.ocean_allowed = None;
        self
    }

    /// Smallest node count at which a component fits in memory at this
    /// resolution. §III-C: "CESM should be run on the minimal number of
    /// nodes allowed by memory requirements" — the floor both bounds the
    /// benchmark sweep from below and is a hard constraint on
    /// allocations (a component that does not fit does not run).
    pub fn memory_floor(&self, c: Component) -> i64 {
        match (self.resolution, c) {
            (Resolution::OneDegree, Component::Atm) => 8,
            (Resolution::OneDegree, Component::Ocn) => 4,
            (Resolution::OneDegree, Component::Ice) => 4,
            (Resolution::OneDegree, Component::Lnd) => 2,
            // The 1/8° fields are ~64x larger; published allocations never
            // go below these.
            (Resolution::EighthDegree, Component::Atm) => 1024,
            (Resolution::EighthDegree, Component::Ocn) => 480,
            (Resolution::EighthDegree, Component::Ice) => 256,
            (Resolution::EighthDegree, Component::Lnd) => 64,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_degree_sets_match_table_i() {
        let o = ResolutionConfig::one_degree_ocean_set();
        assert_eq!(o.first(), Some(&2));
        assert_eq!(o[1], 4);
        assert!(o.contains(&480));
        assert_eq!(o.last(), Some(&768));
        assert_eq!(o.len(), 241);

        let a = ResolutionConfig::one_degree_atm_set();
        assert_eq!(a.first(), Some(&1));
        assert!(a.contains(&1638));
        assert_eq!(a.last(), Some(&1664));
        assert_eq!(a.len(), 1639);
    }

    #[test]
    fn eighth_degree_ocean_set_matches_iv_b() {
        let o = ResolutionConfig::eighth_degree_ocean_set();
        assert_eq!(o, vec![480, 512, 2356, 3136, 4564, 6124, 19_460]);
    }

    #[test]
    fn unconstrained_drops_only_ocean() {
        let c = ResolutionConfig::eighth_degree().without_ocean_constraint();
        assert!(c.ocean_allowed.is_none());
        assert_eq!(c.resolution, Resolution::EighthDegree);
    }

    #[test]
    fn grids_are_described() {
        assert!(Resolution::EighthDegree
            .grid_of(crate::Component::Atm)
            .contains("HOMME"));
        assert!(Resolution::OneDegree
            .grid_of(crate::Component::Ocn)
            .contains("displaced"));
    }
}
