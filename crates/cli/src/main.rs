//! `iterl2norm` — command-line interface to the reproduction.
//!
//! ```text
//! iterl2norm normalize --format fp16 --method iterl2:5 1.5 -2.0 0.25 3.0
//! iterl2norm rsqrt --format fp32 --m 10.5 --steps 5
//! iterl2norm macro --d 384 [--steps 5] [--format bf16] [--utilization]
//! iterl2norm cost [--format fp32]
//! iterl2norm demo --d 768 --format fp32 --method fisr
//! iterl2norm batch --d 768 --rows 512 --method iterl2
//! iterl2norm whiten --d 16 --m 64 --steps 5 --group-mode center
//! iterl2norm serve --listen 127.0.0.1:7070 --tenants 1:100:20:high
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::usage());
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing subcommand".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", commands::usage());
        return Ok(());
    }
    let command = commands::command(cmd).ok_or_else(|| format!("unknown subcommand '{cmd}'"))?;
    let parsed = args::Parsed::parse(rest, &command.options)?;
    (command.run)(&parsed)
}

#[cfg(test)]
mod tests;
