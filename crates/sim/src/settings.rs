//! The paper's simulation settings (Table II) as data.

/// One point of the Table II parameter space.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSettings {
    /// Number of rounds `N`.
    pub n: usize,
    /// Number of candidate sellers `M`.
    pub m: usize,
    /// Number of selected sellers per round `K`.
    pub k: usize,
    /// Number of PoIs `L`.
    pub l: usize,
    /// Consumer valuation parameter `ω`.
    pub omega: f64,
    /// Platform cost parameters `(θ, λ)`.
    pub theta: f64,
    /// Platform linear cost parameter `λ`.
    pub lambda: f64,
    /// Master seed for reproducibility.
    pub seed: u64,
}

impl Default for SimSettings {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl SimSettings {
    /// Table II bold defaults: `N = 10⁵`, `M = 300`, `K = 10`, `L = 10`,
    /// `ω = 1000`, `θ = 0.1`, `λ = 1`.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            n: 100_000,
            m: 300,
            k: 10,
            l: 10,
            omega: 1000.0,
            theta: 0.1,
            lambda: 1.0,
            seed: 20210419, // ICDE 2021 conference start date
        }
    }

    /// The Table II sweep grid for the number of rounds `N`
    /// (×10³: 5, 40, 80, 100, 120, 160, 200).
    #[must_use]
    pub fn n_grid() -> Vec<usize> {
        vec![5_000, 40_000, 80_000, 100_000, 120_000, 160_000, 200_000]
    }

    /// The Table II sweep grid for the number of sellers `M`.
    #[must_use]
    pub fn m_grid() -> Vec<usize> {
        vec![50, 100, 150, 200, 250, 300]
    }

    /// The Table II sweep grid for the selection size `K`.
    #[must_use]
    pub fn k_grid() -> Vec<usize> {
        vec![10, 20, 30, 40, 50, 60]
    }

    /// Renders Table II itself (parameter name → values, defaults bold in
    /// the paper, marked with `*` here).
    #[must_use]
    pub fn table2() -> crate::report::Table {
        let mut t = crate::report::Table::new(
            "Table II: simulation settings",
            vec!["parameter".into(), "values".into()],
        );
        t.push_text_row(vec![
            "number of rounds N".into(),
            "5, 40, 80, 100*, 120, 160, 200 (x10^3)".into(),
        ]);
        t.push_text_row(vec![
            "number of sellers M".into(),
            "50, 100, 150, 200, 250, 300*".into(),
        ]);
        t.push_text_row(vec![
            "number of selected sellers K".into(),
            "10*, 20, 30, 40, 50, 60".into(),
        ]);
        t.push_text_row(vec![
            "valuation parameter omega".into(),
            "600, 800, 1000*, 1200, 1400".into(),
        ]);
        t.push_text_row(vec![
            "cost parameter theta, lambda".into(),
            "[0.1, 1] (0.1*), [0.5, 2] (1*)".into(),
        ]);
        t.push_text_row(vec![
            "cost parameters a, b".into(),
            "[0.1, 0.5], [0.1, 1]".into(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2_bold_values() {
        let s = SimSettings::paper_defaults();
        assert_eq!(s.n, 100_000);
        assert_eq!(s.m, 300);
        assert_eq!(s.k, 10);
        assert_eq!(s.l, 10);
        assert_eq!(s.omega, 1000.0);
        assert_eq!(s.theta, 0.1);
        assert_eq!(s.lambda, 1.0);
    }

    #[test]
    fn grids_match_table2() {
        assert_eq!(SimSettings::n_grid().len(), 7);
        assert_eq!(SimSettings::m_grid(), vec![50, 100, 150, 200, 250, 300]);
        assert_eq!(SimSettings::k_grid(), vec![10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn grids_contain_the_defaults() {
        let s = SimSettings::paper_defaults();
        assert!(SimSettings::n_grid().contains(&s.n));
        assert!(SimSettings::m_grid().contains(&s.m));
        assert!(SimSettings::k_grid().contains(&s.k));
    }

    #[test]
    fn table2_renders() {
        let t = SimSettings::table2();
        let text = t.to_string();
        assert!(text.contains("simulation settings"));
        assert!(text.contains("number of sellers M"));
    }
}
