//! Library half of the `cdt` CLI: flag parsing and command
//! implementations, kept in a lib target so they are unit-testable.
//!
//! Each command builds one [`cdt_sim::RunConfig`] — its thread count and
//! its observability session — in [`commands::run_command`], and passes it
//! down; nothing about a command's configuration is process-global.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

use commands::Failure;
use std::io::Write as _;

/// Runs `cdt` on `argv` (the arguments after the program name) and
/// returns its exit code: 0 on success, 2 after printing the error.
#[must_use]
pub fn run(argv: &[String]) -> i32 {
    let result =
        commands::dispatch(argv).and_then(|()| std::io::stdout().flush().map_err(Failure::Stdout));
    match result {
        Ok(()) => 0,
        // A reader that closed stdout (`cdt … | head`) wants no more
        // output: stop quietly.
        Err(Failure::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
