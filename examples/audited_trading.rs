//! Audited trading: journal a full CMAB-HS run through the Fig. 2
//! workflow protocol, tamper with the journal, and watch the replay
//! validation catch the fraud.
//!
//! Run with:
//! ```sh
//! cargo run --release -p cdt-protocol --example audited_trading
//! ```

use cdt_core::{CmabHs, NullObserver, Scenario};
use cdt_protocol::{load_journal_text, JournalSink, MarketEvent};
use cdt_types::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SimRng::new(99);
    let scenario = Scenario::paper_defaults(20, 5, 4, 25, &mut rng)?;
    let mut mech = CmabHs::new(scenario.config.clone());

    // --- 1. Trade, journaling every round as it settles. ---
    let path = std::env::temp_dir().join(format!("cdt-audited-{}.jsonl", std::process::id()));
    let mut sink = JournalSink::create(&path)?;
    sink.append(&MarketEvent::JobPublished {
        job: scenario.config.job.clone(),
    })?;
    mech.run(
        &scenario.observer(),
        &mut rng,
        &mut NullObserver,
        |outcome, _| {
            sink.append_round(outcome)?;
            Ok::<_, Box<dyn std::error::Error>>(true)
        },
    )?;
    let rounds = sink.state().settled_rounds();
    sink.append(&MarketEvent::JobCompleted { rounds })?;
    let report = sink.finish()?;
    let journal = std::fs::read_to_string(&path)?;
    std::fs::remove_file(&path)?;

    println!("=== audited CMAB-HS run: 25 rounds, K = 5 ===\n");
    println!(
        "journal: {} events, {} settled rounds",
        report.events, report.settled_rounds
    );

    // --- 2. Replay — the honest journal validates. ---
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
