//! `xfrag` — keyword search over XML documents with the fragment algebra
//! of Pradhan (VLDB 2006).
//!
//! ```text
//! xfrag search <file.xml> <keyword>... [--size N] [--height N] [--width N]
//!              [--strategy brute|naive|reduced|pushdown] [--strict]
//!              [--maximal] [--ids] [--stats]
//! xfrag explain <file.xml> <keyword>... [--size N] [--height N] [--width N]
//! xfrag info <file.xml>
//! xfrag demo
//! ```

mod args;
mod commands;
mod corpus;
mod protocol;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(output) => {
                // `print!` would panic on a broken pipe (`xfrag ... |
                // head`); the reader hanging up early is its choice, not
                // an error of ours, so write directly and exit quietly.
                use std::io::Write;
                let mut out = std::io::stdout().lock();
                let _ = out.write_all(output.as_bytes());
                let _ = out.flush();
                ExitCode::SUCCESS
            }
            Err(e @ commands::CliError::RetriesExhausted(_)) => {
                eprintln!("error: {e}");
                // Distinct from permanent failures (1): the caller may
                // reasonably try again later.
                ExitCode::from(3)
            }
            Err(commands::CliError::PartialResult(line)) => {
                // A partial reply is a success over the surviving
                // shards: print it like a normal reply (EPIPE-tolerant,
                // see above), but exit 4 so scripts can tell "complete
                // answer" from "some shards were dropped".
                use std::io::Write;
                let mut out = std::io::stdout().lock();
                let _ = out.write_all(line.as_bytes());
                let _ = out.flush();
                ExitCode::from(4)
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
