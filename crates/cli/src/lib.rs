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

/// Runs `cdt` on `argv` (the arguments after the program name) and
/// returns its exit code: 0 on success, 2 after printing the error.
#[must_use]
pub fn run(argv: &[String]) -> i32 {
    match commands::dispatch(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
