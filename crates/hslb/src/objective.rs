//! Objective functions for the allocation problem (§III-D).

/// The three candidate objectives the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Equation (1): `min max_j` of the layout's critical path — the
    /// layout-aware makespan (for layout 1, `max(max(ice,lnd)+atm, ocn)`).
    /// "The min−max function performed slightly better than the max−min
    /// function … and was the objective used in this work."
    MinMax,
    /// Equation (2): `max min_j T_j(n_j)` under a use-all-nodes budget.
    /// Balances components by raising the fastest one's time. Its MINLP
    /// form is nonconvex, so the pipeline evaluates it with the
    /// enumeration optimizer instead of branch-and-bound.
    MaxMin,
    /// Equation (3): `min Σ_j T_j(n_j)`. "Obviously out of consideration
    /// because CESM requires more complicated relationships between
    /// components than just a sum" — kept for the ablation.
    SumTime,
}

impl Objective {
    /// Can this objective be expressed as a convex MINLP (and hence be
    /// solved to global optimality by the branch-and-bound)?
    pub fn is_convex_minlp(self) -> bool {
        match self {
            Objective::MinMax | Objective::SumTime => true,
            Objective::MaxMin => false,
        }
    }

    /// Paper equation number.
    pub fn equation(self) -> u8 {
        match self {
            Objective::MinMax => 1,
            Objective::MaxMin => 2,
            Objective::SumTime => 3,
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Objective::MinMax => "min-max",
            Objective::MaxMin => "max-min",
            Objective::SumTime => "min-sum",
        };
        f.write_str(s)
    }
}

/// Parse an objective wire token (the `Display` forms).
pub fn parse_objective(s: &str) -> Result<Objective, String> {
    [Objective::MinMax, Objective::MaxMin, Objective::SumTime]
        .into_iter()
        .find(|o| o.to_string() == s)
        .ok_or_else(|| format!("unknown objective {s:?} (min-max|max-min|min-sum)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convexity_classification() {
        assert!(Objective::MinMax.is_convex_minlp());
        assert!(Objective::SumTime.is_convex_minlp());
        assert!(!Objective::MaxMin.is_convex_minlp());
    }

    #[test]
    fn equations_match_the_paper() {
        assert_eq!(Objective::MinMax.equation(), 1);
        assert_eq!(Objective::MaxMin.equation(), 2);
        assert_eq!(Objective::SumTime.equation(), 3);
    }
}
