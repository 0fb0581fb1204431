//! Experiment-harness integration: every figure's experiment runs at test
//! scale, produces well-formed tables, and exports to CSV.

use cdt_sim::experiments::{all_experiment_ids, run_experiment, Scale};
use cdt_sim::report::Cell;
use cdt_sim::RunConfig;

/// A two-worker pool; every table is identical at any width.
fn pool() -> RunConfig {
    RunConfig::with_threads(2)
}

#[test]
fn every_experiment_runs_at_test_scale() {
    for id in all_experiment_ids() {
        let tables = run_experiment(id, Scale::Test, &pool())
            .unwrap_or_else(|e| panic!("experiment {id} failed: {e}"));
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.columns.is_empty(), "{id}: empty header");
            assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{id}: ragged row");
                for cell in row {
                    if let Cell::Num(x) = cell {
                        assert!(x.is_finite(), "{id}: non-finite value in {}", t.title);
                    }
                }
            }
        }
    }
}

#[test]
fn experiments_export_csv() {
    let tables = run_experiment("fig13", Scale::Test, &pool()).unwrap();
    for t in &tables {
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), t.rows.len() + 1);
        assert_eq!(
            lines[0].split(',').count(),
            t.columns.len(),
            "CSV header width"
        );
    }
}

#[test]
fn figure_ids_map_to_expected_table_counts() {
    // Figs with sub-panels produce one table per panel.
    let expect = [
        ("fig7", 2), // revenue, regret
        ("fig8", 3), // Δ-PoC, Δ-PoP, Δ-PoS
        ("fig9", 2),
        ("fig10", 3),
        ("fig11", 2),
        ("fig12", 3),
        ("fig13", 2), // (a), (b)
        ("fig14", 1),
        ("fig15", 1),
        ("fig16", 2), // (a), (b)
        ("fig17", 1),
        ("fig18", 2), // (a), (b)
        ("nonstat", 1),
        ("replicate", 1),
    ];
    for (id, n) in expect {
        let tables = run_experiment(id, Scale::Test, &pool()).unwrap();
        assert_eq!(tables.len(), n, "{id} table count");
    }
}

#[test]
fn experiment_reruns_are_deterministic() {
    let a = run_experiment("fig11", Scale::Test, &pool()).unwrap();
    let b = run_experiment("fig11", Scale::Test, &pool()).unwrap();
    assert_eq!(a, b);
}
