//! The exact one-round solvability decider (extension): instead of
//! bracketing k-set agreement between upper and lower bounds, *decide* it
//! for small models by synthesizing (or refuting) an oblivious decision
//! map.
//!
//! Run with: `cargo run --release --example solvability`

use kset_agreement::core::solvability::{decide_one_round, decide_one_round_sweep, Solvability};
use kset_agreement::prelude::*;
use kset_agreement::runtime::execution::execute_schedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== exact one-round oblivious solvability on the n = 3 zoo ==\n");
    println!("{:<20} {:>3} | {:>12} | paper", "model", "k", "verdict");
    println!("{}", "-".repeat(60));

    let registry = models::registry::builtin();
    let zoo: Vec<(&str, ClosedAboveModel)> = [
        "stars{n=3,s=1}",
        "stars{n=3,s=2}",
        "ring{n=3,sym}",
        "ring{n=3}",
        "tournament{n=3}",
    ]
    .into_iter()
    .map(|name| Ok((name, registry.resolve_closed_above(name, 1u128 << 10)?)))
    .collect::<Result<_, kset_agreement::models::ModelError>>()?;

    for (name, model) in &zoo {
        let report = BoundsReport::compute(model, 1)?;
        let upper = report.best_upper().expect("exists").k;
        let lower = report.best_lower().map(|l| l.impossible_k).unwrap_or(0);
        // One incremental sweep decides the whole k-range: the binary
        // search lands on the boundary, a witness lift seeds everything
        // above it and downward monotonicity fills everything below.
        let sweep = decide_one_round_sweep(model, 3, 2_000_000u128, 50_000_000, &mut |_| {})?;
        for k in 1..=3usize {
            let verdict = &sweep.verdicts[k - 1];
            let shown = match verdict {
                Solvability::Solvable(_) => "solvable",
                Solvability::Unsolvable => "unsolvable",
                Solvability::Unknown => "unknown (budget)",
            };
            let paper = if k >= upper {
                format!("solvable (k ≥ {upper})")
            } else if k <= lower {
                format!("impossible (k ≤ {lower})")
            } else {
                "open in the paper".to_string()
            };
            println!("{name:<20} {k:>3} | {shown:>12} | {paper}");
            // The decider must agree with the paper wherever the paper
            // speaks.
            if k >= upper {
                assert!(verdict.is_solvable());
            }
            if k <= lower {
                assert_eq!(verdict, &Solvability::Unsolvable);
            }
        }
        println!(
            "  (sweep: {} searched, {} seeded, {} pruned)\n",
            sweep.searched, sweep.seeded, sweep.pruned
        );
    }

    // Synthesize a witness and run it as an actual algorithm.
    println!("synthesized 2-set algorithm for the symmetric ring, in action:");
    let model = registry.resolve_closed_above("ring{n=3,sym}", 1u128 << 10)?;
    let Solvability::Solvable(map) = decide_one_round(&model, 2, 2, 2_000_000, 50_000_000)? else {
        unreachable!("shown solvable above");
    };
    println!("  decision map covers {} reachable views", map.len());
    for schedule in models::adversary::generator_schedules(&model, 1).take(2) {
        let trace = execute_schedule(&map, &schedule, &[2, 0, 1])?;
        println!(
            "  inputs {:?} -> decisions {:?} ({} distinct)",
            trace.inputs,
            trace.decisions,
            trace.distinct_decisions()
        );
        assert!(trace.distinct_decisions() <= 2);
    }

    Ok(())
}
