//! Experiment runner: regenerates every table/figure of the reproduction.
//!
//! ```text
//! cargo run -p lec-bench --release --bin experiments -- all
//! cargo run -p lec-bench --release --bin experiments -- e1 e7
//! cargo run -p lec-bench --release --bin experiments -- list
//! ```
//!
//! JSON summaries are written to `results/<id>.json`.

use std::fs;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        usage();
        return;
    }
    if args[0] == "list" {
        for (id, desc, _) in lec_bench::registry() {
            println!("{id:<5} {desc}");
        }
        return;
    }
    let ids: Vec<String> = if args[0] == "all" {
        lec_bench::registry()
            .iter()
            .map(|(id, _, _)| id.to_string())
            .collect()
    } else {
        args
    };
    let results_dir = Path::new("results");
    fs::create_dir_all(results_dir).expect("create results dir");
    for id in ids {
        println!("{}", "=".repeat(74));
        match lec_bench::run(&id) {
            Some(summary) => {
                let path = results_dir.join(format!("{id}.json"));
                fs::write(&path, serde_json::to_string_pretty(&summary).unwrap())
                    .expect("write summary");
                println!("[saved {}]", path.display());
            }
            None => {
                eprintln!("unknown experiment {id:?}; try `list`");
                std::process::exit(1);
            }
        }
    }
}

fn usage() {
    println!("usage: experiments <all | list | ID...>");
    println!("       IDs: e1..e11, e14, e15, f1 (`experiments list` describes each)");
}
