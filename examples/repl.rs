//! An interactive top-level for the calculus.
//!
//! ```text
//! cargo run --example repl
//! polyview> val joe = IDView([Name = "Joe", Salary := 2000]);
//! joe : obj([Name = string, Salary := int])
//! polyview> query(fn x => x.Salary, joe)
//! 2000 : int
//! ```
//!
//! Also accepts a file argument: `cargo run --example repl -- prog.pv`
//! executes the file and prints each declaration's outcome.
//!
//! Observability commands (see DESIGN.md §9 and §14): `:stats` prints the
//! pipeline counters, `:trace on|off` toggles span emission to stderr as
//! JSON lines, `:explain STMT` compiles and runs a statement with every
//! phase timed, `:profile STMT` runs one with the evaluation profiler
//! attached (hot-node table, fallback sites, view recomputes),
//! `:metrics` dumps the full registry as JSON lines, and `:health`
//! prints the engine-level health verdict derived from the same
//! counters (`EngineStats::health_reasons`).

use polyview::obs::JsonLinesSink;
use polyview::{Engine, Outcome};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn report(engine: &Engine, outcomes: &[Outcome]) {
    for o in outcomes {
        match o {
            Outcome::Defined(names) => {
                for (n, s) in names {
                    println!("{n} : {s}");
                }
            }
            Outcome::Value { scheme, rendered } => {
                println!("{rendered} : {scheme}");
            }
        }
    }
    let _ = engine;
}

fn main() {
    let mut engine = Engine::new();

    if let Some(path) = std::env::args().nth(1) {
        let src =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match engine.exec(&src) {
            Ok(outcomes) => report(&engine, &outcomes),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("polyview — a polymorphic calculus for views and object sharing");
    println!("type declarations or expressions; :q quits, :t EXPR shows a type");
    println!(
        ":stats, :trace on|off, :explain STMT, :profile STMT, :metrics, :health show pipeline internals"
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("polyview> ");
        std::io::stdout().flush().expect("flush");
        line.clear();
        if stdin.lock().read_line(&mut line).expect("read") == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input == ":q" {
            break;
        }
        if let Some(rest) = input.strip_prefix(":t ") {
            match engine.infer_expr(rest) {
                Ok(s) => println!("{rest} : {s}"),
                Err(e) => println!("{e}"),
            }
            continue;
        }
        if input == ":stats" {
            println!("{}", engine.stats());
            continue;
        }
        if input == ":health" {
            // The same engine-level verdict the pool's HealthModel folds
            // into its per-worker rows: empty reasons means healthy.
            let reasons = engine.stats().health_reasons();
            if reasons.is_empty() {
                println!("healthy");
            } else {
                println!("degraded:");
                for r in &reasons {
                    println!("  - {r}");
                }
            }
            continue;
        }
        if input == ":metrics" {
            print!("{}", engine.metrics_json());
            continue;
        }
        if let Some(rest) = input.strip_prefix(":trace") {
            match rest.trim() {
                "on" => {
                    engine.set_trace_sink(Arc::new(JsonLinesSink::new(std::io::stderr())));
                    println!("tracing on (spans to stderr as JSON lines)");
                }
                "off" => {
                    engine.set_tracing(false);
                    println!("tracing off");
                }
                _ => println!("usage: :trace on|off"),
            }
            continue;
        }
        if let Some(rest) = input.strip_prefix(":explain ") {
            match engine.explain(rest) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("{e}"),
            }
            continue;
        }
        if let Some(rest) = input.strip_prefix(":profile ") {
            match engine.profile(rest) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("{e}"),
            }
            continue;
        }
        match engine.exec(input) {
            Ok(outcomes) => report(&engine, &outcomes),
            Err(e) => println!("{e}"),
        }
    }
}
