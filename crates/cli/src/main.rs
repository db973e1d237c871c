//! `sdigest` — the SyslogDigest command line (see `sd_cli` for the
//! subcommand implementations).

use sd_telemetry::{LogFormat, Logger};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Errors respect --log-format even when parsing itself fails, so a
    // supervisor reading JSON diagnostics never sees a stray text line.
    let fmt = args
        .windows(2)
        .find(|w| w[0] == "--log-format")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(LogFormat::Text);
    let logger = Logger::stderr(fmt);
    if args.is_empty() {
        eprint!("{}", sd_cli::commands::usage());
        std::process::exit(2);
    }
    let parsed = match sd_cli::Parsed::parse(args, sd_cli::commands::COMMANDS) {
        Ok(p) => p,
        Err(e) => {
            logger.error(&format!("{e}\n\n{}", sd_cli::commands::usage()), &[]);
            std::process::exit(2);
        }
    };
    match sd_cli::commands::dispatch(&parsed) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            logger.error(&e.to_string(), &[]);
            std::process::exit(1);
        }
    }
}
