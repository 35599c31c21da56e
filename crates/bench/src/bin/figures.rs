//! Regenerates every figure of WUCSE-2009-14 §5 as markdown tables.
//!
//! ```text
//! figures [fig4] [fig5] [fig6] [ablation] [repair] [all] [--runs N]
//! ```
//!
//! With no figure argument, `all` is assumed. `--runs` sets the number of
//! measured runs per point (the paper used 1000; the default here is 100
//! to keep regeneration minutes-scale — means stabilize well before that).

use std::env;

use openwf_bench::{ablation, fig4_configs, fig5_configs, fig6_configs, render_markdown, repair};
use openwf_scenario::run_series;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut runs = 100usize;
    let mut figures: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                i += 1;
                runs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--runs needs a positive integer");
                        std::process::exit(2);
                    });
            }
            other => figures.push(other.to_string()),
        }
        i += 1;
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = vec![
            "fig4".into(),
            "fig5".into(),
            "fig6".into(),
            "ablation".into(),
            "repair".into(),
        ];
    }

    // Fail fast on typos before any (expensive) series runs.
    for fig in &figures {
        if !matches!(
            fig.as_str(),
            "fig4" | "fig5" | "fig6" | "ablation" | "repair"
        ) {
            eprintln!("unknown figure `{fig}` (use fig4|fig5|fig6|ablation|repair|all)");
            std::process::exit(2);
        }
    }

    println!("# Open workflow figure regeneration ({runs} runs/point)\n");
    for fig in figures {
        match fig.as_str() {
            "fig4" => run_figure(
                "Figure 4 — simulation, 100 task nodes, varying hosts",
                fig4_configs(runs),
            ),
            "fig5" => run_figure(
                "Figure 5 — simulation, 2 hosts, varying task nodes",
                fig5_configs(runs),
            ),
            "fig6" => run_figure(
                "Figure 6 — 802.11g ad hoc wireless model, 4 hosts",
                fig6_configs(runs),
            ),
            "ablation" => run_ablation(runs),
            "repair" => run_repair(),
            other => unreachable!("figure names validated above: {other}"),
        }
    }
}

fn run_figure(title: &str, configs: Vec<(String, openwf_scenario::ExperimentConfig)>) {
    eprintln!("running: {title}");
    let series: Vec<_> = configs
        .into_iter()
        .map(|(label, cfg)| {
            eprintln!("  series {label} …");
            let pts = run_series(&cfg);
            (label, pts)
        })
        .collect();
    println!("{}", render_markdown(title, &series));
}

fn run_ablation(runs: usize) {
    eprintln!("running: ablation (incremental vs full collection, planned first round)");
    println!("## Ablation E5 — incremental frontier collection vs full collection\n");
    println!(
        "| tasks | path | full frags | incr frags | saving | incr rounds | plan frags | plan rounds | full µs | incr µs |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for &tasks in &[50usize, 100, 250, 500] {
        let row = ablation::run_ablation(tasks, 8, runs.clamp(5, 50), 0xE5 + tasks as u64);
        println!(
            "| {} | {} | {} | {} | {:.0}% | {:.2} | {} | {:.2} | {:.1} | {:.1} |",
            row.tasks,
            row.path_length,
            row.full_fragments,
            row.incremental_fragments,
            row.transfer_saving() * 100.0,
            row.incremental_rounds,
            row.planned_fragments,
            row.planned_rounds,
            row.full_micros,
            row.incremental_micros,
        );
    }
    println!();
}

fn run_repair() {
    eprintln!("running: repair (crash → reconstruction + reallocation)");
    println!("## Repair E6 — executing host crashes after allocation\n");
    let base = repair::run_baseline();
    let rep = repair::run_repair();
    println!("| variant | completed | attempts | total (ms) | executor |");
    println!("|---|---|---|---|---|");
    println!(
        "| no fault | {} | {} | {:.3} | {:?} |",
        base.completed,
        base.attempts,
        base.total_ms.unwrap_or(f64::NAN),
        base.final_executor,
    );
    println!(
        "| winner crashes | {} | {} | {:.3} | {:?} |",
        rep.completed,
        rep.attempts,
        rep.total_ms.unwrap_or(f64::NAN),
        rep.final_executor,
    );
    println!();
}
