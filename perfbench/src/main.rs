//! One repetition of one benchmark workload against the ITC file system
//! simulator. `run.py` builds this binary, runs it, and aggregates the
//! repetitions it makes into the benchmark's report.
//!
//! Usage: `itc-perfbench <campus_day|bulk_share|meta_churn> <seed> <0|1> [SPANS]`
//!
//! The third argument turns tracing on: spans around every call the
//! benchmark makes into a layer, plus the program's virtual-time
//! attribution from the start of the window. A traced run reports the
//! per-layer metrics and writes its spans, one JSON object a line, to
//! SPANS. The last line of standard output is the repetition's JSON
//! record; the exit code is 1 if any correctness check failed.

mod alloc;
mod bulk;
mod campus;
mod churn;
mod kernels;
mod probe;
mod run;

use std::io::Write;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: itc-perfbench <campus_day|bulk_share|meta_churn> <seed> <0|1> [SPANS]";
    if args.len() < 3 || args.len() > 4 {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let (Ok(seed), Ok(trace)) = (args[1].parse::<u64>(), args[2].parse::<u8>()) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let traced = trace == 1;
    let out = match args[0].as_str() {
        "campus_day" => campus::run(seed, traced),
        "bulk_share" => bulk::run(seed, traced),
        "meta_churn" => churn::run(seed, traced),
        other => {
            eprintln!("unknown workload {other}; {usage}");
            std::process::exit(2);
        }
    };
    let mut rep = match out {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("structural error: {e}");
            std::process::exit(1);
        }
    };
    if let (true, Some(path)) = (traced, args.get(3)) {
        let mut text = String::with_capacity(rep.spans.len() * 96);
        for s in &rep.spans {
            text.push_str(&s.jsonl());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    for e in &rep.errors {
        eprintln!("correctness: {e}");
    }
    let line = run::json(&mut rep);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").expect("stdout");
    stdout.flush().expect("stdout");
    std::process::exit(if rep.errors.is_empty() { 0 } else { 1 });
}
