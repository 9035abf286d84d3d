//! The reproduction harness: regenerates the paper's tables and figures and
//! runs every extension since (sweeps, scenarios, vantages, scale, stream,
//! estimators, crawl, archives, serve). README.md documents the commands;
//! `bench::cli` holds the flag table and the command bodies.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = bench::cli::run(&args, &mut std::io::stdout().lock());
    if let Err(error) = result {
        eprintln!("{error}");
        std::process::exit(error.exit_code());
    }
}
