//! PoI extraction: the `L` most-visited pickup/dropoff areas
//! ("we select some pick-up/drop-off points as the PoIs", Sec. V-A).

use crate::record::{AreaId, TripRecord};
use std::collections::HashMap;

/// Returns the `l` areas with the highest total visit counts (pickups plus
/// dropoffs), most-visited first. Ties break toward the lower area id for
/// determinism.
///
/// # Panics
/// Panics if the trace contains fewer than `l` distinct areas.
#[must_use]
pub fn extract_pois(records: &[TripRecord], l: usize) -> Vec<AreaId> {
    let mut counts: HashMap<AreaId, usize> = HashMap::new();
    for r in records {
        *counts.entry(r.pickup).or_default() += 1;
        *counts.entry(r.dropoff).or_default() += 1;
    }
    assert!(
        counts.len() >= l,
        "trace covers {} distinct areas, need {l} PoIs",
        counts.len()
    );
    let mut areas: Vec<(AreaId, usize)> = counts.into_iter().collect();
    areas.sort_by(|(a1, c1), (a2, c2)| c2.cmp(c1).then(a1.0.cmp(&a2.0)));
    areas.truncate(l);
    areas.into_iter().map(|(a, _)| a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_trace, TraceConfig};
    use crate::record::TaxiId;
    use cdt_types::SimRng;

    fn rec(pickup: u16, dropoff: u16) -> TripRecord {
        TripRecord {
            taxi: TaxiId(0),
            timestamp: 0,
            trip_miles: 1.0,
            pickup: AreaId(pickup),
            dropoff: AreaId(dropoff),
        }
    }

    #[test]
    fn picks_most_visited_areas() {
        let records = vec![rec(1, 2), rec(1, 3), rec(1, 2), rec(4, 2)];
        // Visits: area1 ×3, area2 ×3, area3 ×1, area4 ×1.
        let pois = extract_pois(&records, 2);
        assert_eq!(pois, vec![AreaId(1), AreaId(2)]);
    }

    #[test]
    fn tie_breaks_toward_lower_id() {
        let records = vec![rec(5, 9), rec(9, 5)];
        assert_eq!(extract_pois(&records, 1), vec![AreaId(5)]);
    }

    #[test]
    fn paper_scale_trace_yields_ten_pois() {
        let t = generate_trace(&TraceConfig::paper_scale(), &mut SimRng::new(1));
        let pois = extract_pois(&t, 10);
        assert_eq!(pois.len(), 10);
        // Zipf popularity ⇒ the hottest areas dominate; the most popular
        // area should be among the first generated ids (low ids get the
        // largest Zipf weights).
        assert!(pois[0].0 < 5, "hottest PoI = {}", pois[0]);
    }

    #[test]
    #[should_panic(expected = "distinct areas")]
    fn panics_when_too_few_areas() {
        let records = vec![rec(1, 1)];
        let _ = extract_pois(&records, 3);
    }

    #[test]
    fn pois_are_ordered_by_popularity() {
        let t = generate_trace(&TraceConfig::small(), &mut SimRng::new(2));
        let pois = extract_pois(&t, 5);
        let count = |a: AreaId| {
            t.iter()
                .map(|r| usize::from(r.pickup == a) + usize::from(r.dropoff == a))
                .sum::<usize>()
        };
        for w in pois.windows(2) {
            assert!(count(w[0]) >= count(w[1]));
        }
    }
}
