//! Audited trading: journal a full CMAB-HS run through the Fig. 2
//! workflow protocol, serialize the journal, tamper with it, and watch
//! the replay validation catch the fraud.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-protocol --example audited_trading
//! ```

use cdt_core::{CmabHs, Scenario};
use cdt_protocol::{events_for_round, load_journal_text, EventLog, MarketEvent};
use cdt_types::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SimRng::new(99);
    let scenario = Scenario::paper_defaults(20, 5, 4, 25, &mut rng)?;
    let mut mech = CmabHs::new(scenario.config.clone())?;
    let observer = scenario.observer();

    // --- 1. Trade, journaling every event. ---
    let mut log = EventLog::new();
    log.append(MarketEvent::JobPublished {
        job: scenario.config.job.clone(),
    })
    .expect("fresh log accepts the job");
    let mut rounds = 0;
    while !mech.is_finished() {
        let outcome = mech.step(&observer, &mut rng)?;
        for event in events_for_round(&outcome) {
            log.append(event)
                .expect("mechanism rounds are protocol-legal");
        }
        rounds += 1;
    }
    log.append(MarketEvent::JobCompleted { rounds })
        .expect("all rounds settled");

    println!("=== audited CMAB-HS run: 25 rounds, K = 5 ===\n");
    println!(
        "journal: {} events, {} settled rounds",
        log.len(),
        log.state().settled_rounds()
    );

    // --- 2. Serialize and replay — the honest journal validates. ---
    let journal = log.to_json_lines();
    let replayed = load_journal_text(&journal, "journal")?;
    println!(
        "replay of the honest journal: OK ({} events)",
        replayed.events
    );
    println!(
        "audit totals: consumer spent {:.2}, sellers received {:.2}, platform margin+costs {:.2}\n",
        replayed.consumer_total(),
        replayed.seller_total(),
        replayed.consumer_total() - replayed.seller_total(),
    );

    // --- 3. Tamper: a dishonest platform edits a settlement downward. ---
    let tampered = journal.replacen(
        "\"consumer_payment\":",
        "\"consumer_payment\":0.5e1,\"x\":",
        1,
    );
    match load_journal_text(&tampered, "tampered") {
        Err(e) => println!("tampered journal rejected, as it must be:\n  {e}"),
        Ok(_) => println!("!! tampered journal was accepted — protocol bug"),
    }

    // --- 4. Reorder: swap two workflow phases. ---
    let mut lines: Vec<&str> = journal.lines().collect();
    lines.swap(2, 3);
    match load_journal_text(lines.join("\n"), "reordered") {
        Err(e) => println!("reordered journal rejected, as it must be:\n  {e}"),
        Ok(_) => println!("!! reordered journal was accepted — protocol bug"),
    }
    Ok(())
}
