//! `cdt` — command-line driver for the CMAB-HS crowdsensing data trading
//! system. `cdt --help` lists the commands and their flags; the library
//! half, `cdt_cli`, parses them and runs each command with the one run
//! configuration it builds.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cdt_cli::run(&argv));
}
