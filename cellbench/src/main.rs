//! `cellbench --workload <name> [--seed <n>] [--cell-seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints host facts, per-cell lines, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use blockfed_cellbench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cellbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One compute worker: the host is shared, and a cell's timing must not
    // depend on how many cores happen to be free.
    blockfed_compute::set_threads(1);
    let fact = |var: &str| std::env::var(var).unwrap_or_else(|_| "unknown".into());
    println!(
        "host nproc={} threads={} rustc=\"{}\" git_rev={} workload={} seed={} cell_seed={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        blockfed_compute::num_threads(),
        fact("CELLBENCH_RUSTC"),
        fact("CELLBENCH_GIT_REV"),
        args.workload,
        args.seed,
        args.cell_seed.map_or("default".into(), |s| s.to_string()),
        u8::from(args.trace),
    );
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cellbench: {e}");
            ExitCode::from(2)
        }
    }
}
