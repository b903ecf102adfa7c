//! Experiment report generator: prints the paper-style table for every
//! experiment (or the requested subset).

use hpf_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables = if args.is_empty() || args.iter().any(|a| a == "all") {
        experiments::run_all()
    } else {
        let mut out = Vec::new();
        for a in &args {
            match experiments::run_one(&a.to_lowercase()) {
                Some(t) => out.push(t),
                None => {
                    let aliases: Vec<_> = experiments::REGISTRY
                        .iter()
                        .filter_map(|e| e.alias.map(|word| format!("'{word}'")))
                        .collect();
                    eprintln!(
                        "unknown experiment id '{a}' (expected e1..e{}, or {})",
                        experiments::REGISTRY.len(),
                        aliases.join("/")
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };
    for t in tables {
        println!("{}", t.render());
    }
}
