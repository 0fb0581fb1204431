//! Round-aligned settlement comparison between two journals
//! (`cdt journal diff A B`).
//!
//! Two runs of the same scenario and seed settle identically, bit for
//! bit. This module turns that claim into a measurement: align the
//! settled rounds of two loaded journals (any layout), compare the consumer payment and every seller
//! payment per round, and report the maximum absolute and relative
//! divergence.
//!
//! Divergence is *numeric* when the histories agree structurally (same
//! settled rounds, same seller count per round) and only the amounts
//! drift; any disagreement in shape is a *structural* mismatch — the runs
//! are not comparable and no tolerance excuses them.

use cdt_types::Round;

/// One settled round's money flow: the unit both the journal diff and
/// the compaction checkpoints (see [`crate::segment`]) operate on, so a
/// compacted history diffs identically to the uncompacted replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlementRow {
    /// The settled round.
    pub round: Round,
    /// `p^J · Στ`, consumer to platform.
    pub consumer: f64,
    /// `p · τ_i` per seller, in selection order.
    pub sellers: Vec<f64>,
}

/// The result of comparing two journals' settlements round by round.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlementDiff {
    /// Settled rounds in journal A.
    pub rounds_a: usize,
    /// Settled rounds in journal B.
    pub rounds_b: usize,
    /// Rounds actually compared (the aligned prefix).
    pub rounds_compared: usize,
    /// Largest absolute payment divergence over the compared rounds.
    pub max_abs: f64,
    /// Largest relative payment divergence (`|x−y| / max(|x|, |y|)`; 0
    /// when both payments are 0) over the compared rounds.
    pub max_rel: f64,
    /// The round holding the largest absolute divergence, if any payment
    /// diverged at all.
    pub worst_round: Option<Round>,
    /// A shape disagreement (settled-round count, round index, or
    /// per-round seller count), if one was found. Structural mismatches
    /// stop the comparison at the point of disagreement.
    pub structural: Option<String>,
}

impl SettlementDiff {
    /// `true` when the journals settle identically: structurally aligned
    /// and every payment bit-equal (same scenario, same seed).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.structural.is_none() && self.max_abs == 0.0
    }

    /// `true` when the journals agree structurally and every payment
    /// diverges by at most `tol` absolutely.
    #[must_use]
    pub fn within(&self, tol: f64) -> bool {
        self.structural.is_none() && self.max_abs <= tol
    }

    fn record(&mut self, round: Round, x: f64, y: f64) {
        let abs = (x - y).abs();
        let scale = x.abs().max(y.abs());
        let rel = if abs == 0.0 { 0.0 } else { abs / scale };
        if abs > self.max_abs {
            self.max_abs = abs;
            self.worst_round = Some(round);
        }
        if rel > self.max_rel {
            self.max_rel = rel;
        }
    }
}

/// Compares two journals' settled payments round by round, as their
/// [`crate::JournalView::settlements`] rows.
///
/// Rounds are aligned by position in settlement order (the protocol state
/// machine already forces settlement order to be round order) and checked
/// to carry the same round index and seller count; the comparison covers
/// the common prefix when one journal settled more rounds than the other
/// (reported as a structural mismatch).
#[must_use]
pub fn diff_settlement_rows(rows_a: &[SettlementRow], rows_b: &[SettlementRow]) -> SettlementDiff {
    let mut diff = SettlementDiff {
        rounds_a: rows_a.len(),
        rounds_b: rows_b.len(),
        rounds_compared: 0,
        max_abs: 0.0,
        max_rel: 0.0,
        worst_round: None,
        structural: None,
    };
    if rows_a.len() != rows_b.len() {
        diff.structural = Some(format!(
            "settled round counts differ: {} vs {}",
            rows_a.len(),
            rows_b.len()
        ));
    }
    for (a, b) in rows_a.iter().zip(rows_b) {
        if a.round != b.round {
            diff.structural = Some(format!(
                "settlement order diverges: round {} vs round {}",
                a.round.index(),
                b.round.index()
            ));
            break;
        }
        if a.sellers.len() != b.sellers.len() {
            diff.structural = Some(format!(
                "round {}: seller payment counts differ: {} vs {}",
                a.round.index(),
                a.sellers.len(),
                b.sellers.len()
            ));
            break;
        }
        diff.rounds_compared += 1;
        diff.record(a.round, a.consumer, b.consumer);
        for (&pay_a, &pay_b) in a.sellers.iter().zip(&b.sellers) {
            diff.record(a.round, pay_a, pay_b);
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of a history settling `payments[r]` (consumer, sellers)
    /// in round `r`.
    fn rows(payments: &[(f64, Vec<f64>)]) -> Vec<SettlementRow> {
        payments
            .iter()
            .enumerate()
            .map(|(r, (consumer, sellers))| SettlementRow {
                round: Round(r),
                consumer: *consumer,
                sellers: sellers.clone(),
            })
            .collect()
    }

    #[test]
    fn identical_logs_diff_to_zero() {
        let a = rows(&[(10.0, vec![1.0, 2.0]), (11.0, vec![1.5, 2.5])]);
        let d = diff_settlement_rows(&a, &a.clone());
        assert!(d.is_zero(), "{d:?}");
        assert_eq!(d.rounds_compared, 2);
        assert_eq!(d.worst_round, None);
        assert!(d.within(0.0));
    }

    #[test]
    fn numeric_drift_is_measured_with_worst_round() {
        let a = rows(&[(10.0, vec![1.0, 2.0]), (20.0, vec![4.0])]);
        let b = rows(&[(10.0, vec![1.0, 2.0 + 1e-9]), (20.0 + 4e-9, vec![4.0])]);
        let d = diff_settlement_rows(&a, &b);
        assert!(d.structural.is_none());
        assert!(!d.is_zero());
        assert!((d.max_abs - 4e-9).abs() < 1e-15, "{d:?}");
        assert_eq!(d.worst_round, Some(Round(1)));
        assert!(d.max_rel > 0.0 && d.max_rel < 1e-9);
        assert!(d.within(1e-8));
        assert!(!d.within(1e-12));
    }

    #[test]
    fn round_count_mismatch_is_structural() {
        let a = rows(&[(10.0, vec![1.0]), (11.0, vec![1.0])]);
        let b = rows(&[(10.0, vec![1.0])]);
        let d = diff_settlement_rows(&a, &b);
        assert_eq!(d.rounds_a, 2);
        assert_eq!(d.rounds_b, 1);
        let msg = d.structural.as_deref().unwrap();
        assert!(msg.contains("settled round counts differ"), "{msg}");
        // The common prefix is still compared and agrees numerically.
        assert_eq!(d.rounds_compared, 1);
        assert_eq!(d.max_abs, 0.0);
        assert!(!d.within(f64::INFINITY), "structural mismatch never passes");
    }

    #[test]
    fn seller_count_mismatch_is_structural() {
        let a = rows(&[(10.0, vec![1.0, 2.0])]);
        let b = rows(&[(10.0, vec![1.0, 1.0, 1.0])]);
        let d = diff_settlement_rows(&a, &b);
        let msg = d.structural.as_deref().unwrap();
        assert!(msg.contains("seller payment counts differ"), "{msg}");
        assert_eq!(d.rounds_compared, 0);
    }

    #[test]
    fn settlement_rows_codec_round_trip() {
        let rows = rows(&[(10.0, vec![1.0, 2.0])]);
        let back: Vec<SettlementRow> = rows
            .iter()
            .map(|row| cdt_types::json::from_str(&cdt_types::json::to_string(row)).unwrap())
            .collect();
        assert_eq!(rows, back);
    }

    #[test]
    fn zero_payments_have_zero_relative_divergence() {
        let a = rows(&[(0.0, vec![0.0])]);
        let d = diff_settlement_rows(&a, &a.clone());
        assert_eq!(d.max_rel, 0.0);
        assert!(d.is_zero());
    }
}
