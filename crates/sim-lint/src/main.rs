//! CLI for the workspace determinism & unit-discipline analyzer.
//!
//! ```text
//! cargo run -p sim-lint                  # human-readable, exit 1 on new violations
//! cargo run -p sim-lint -- --json       # machine-readable report
//! cargo run -p sim-lint -- --github    # GitHub Actions ::error annotations
//! cargo run -p sim-lint -- --all        # also list baselined/waived sites
//! cargo run -p sim-lint -- --update-baseline   # shrink the ratchet
//! cargo run -p sim-lint -- --knobs     # knob registry as a markdown table
//! cargo run -p sim-lint -- --check-knobs README.md   # docs-drift check
//! ```

use sim_lint::baseline::Baseline;
use std::path::PathBuf;
use std::process::ExitCode;

/// README markers delimiting the generated knob table.
const KNOBS_BEGIN: &str = "<!-- knobs:begin (generated by `sim-lint --knobs`; do not edit) -->";
const KNOBS_END: &str = "<!-- knobs:end -->";

struct Options {
    root: Option<PathBuf>,
    baseline_path: Option<PathBuf>,
    json: bool,
    github: bool,
    show_all: bool,
    update_baseline: bool,
    knobs: bool,
    check_knobs: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        baseline_path: None,
        json: false,
        github: false,
        show_all: false,
        update_baseline: false,
        knobs: false,
        check_knobs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--github" => opts.github = true,
            "--all" => opts.show_all = true,
            "--update-baseline" => opts.update_baseline = true,
            "--knobs" => opts.knobs = true,
            "--check-knobs" => {
                let v = args.next().ok_or("--check-knobs requires a file path")?;
                opts.check_knobs = Some(PathBuf::from(v));
            }
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = args.next().ok_or("--baseline requires a path")?;
                opts.baseline_path = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "sim-lint: workspace determinism & unit-discipline analyzer\n\
                     \n\
                     USAGE: sim-lint [--json] [--github] [--all] [--update-baseline]\n\
                     \u{20}                [--root <dir>] [--baseline <file>]\n\
                     \u{20}                [--knobs] [--check-knobs <file>]\n\
                     \n\
                     Rules: R1 wall-clock/entropy, R2 hash-container iteration,\n\
                     R3 raw time casts outside sim-core, R4 unwrap/expect in\n\
                     library code, R5 undocumented pub items (sim-core, cluster,\n\
                     controller, kv-transfer, replica-fidelity),\n\
                     R6 raw thread::spawn/scope outside sim_core::par,\n\
                     R7 raw std::env outside sim_core::knobs, R8 lossy `as`\n\
                     casts outside sim_core::cast, R9 stale waivers.\n\
                     Waive inline: // simlint: allow(R2) -- <reason>\n\
                     --knobs prints the PAT_* knob registry as markdown;\n\
                     --check-knobs <file> verifies the table between the\n\
                     knobs:begin/knobs:end markers matches the registry.\n\
                     Exit codes: 0 clean, 1 new violations/drift, 2 usage/IO error."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

/// Verifies the generated knob table inside `path` matches the registry.
fn check_knobs(path: &PathBuf) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let table = sim_core::knobs::markdown_table();
    let Some(begin) = text.find(KNOBS_BEGIN) else {
        return Err(format!(
            "{}: missing `{KNOBS_BEGIN}` marker",
            path.display()
        ));
    };
    let after = begin + KNOBS_BEGIN.len();
    let Some(end_rel) = text[after..].find(KNOBS_END) else {
        return Err(format!("{}: missing `{KNOBS_END}` marker", path.display()));
    };
    let embedded = text[after..after + end_rel].trim();
    if embedded == table.trim() {
        println!(
            "sim-lint: knob table in {} matches the registry ({} knobs)",
            path.display(),
            sim_core::knobs::KNOBS.len()
        );
        Ok(true)
    } else {
        eprintln!(
            "sim-lint: knob table in {} is out of sync with sim_core::knobs::KNOBS;\n\
             regenerate it with `cargo run -p sim-lint -- --knobs` and paste between\n\
             the markers",
            path.display()
        );
        Ok(false)
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    if opts.knobs {
        print!("{}", sim_core::knobs::markdown_table());
        return Ok(true);
    }
    if let Some(path) = &opts.check_knobs {
        return check_knobs(path);
    }
    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            sim_lint::find_workspace_root(&cwd)
                .ok_or("no workspace root found (run from the repo or pass --root)")?
        }
    };
    let baseline_path = opts
        .baseline_path
        .unwrap_or_else(|| root.join("simlint.baseline.json"));

    let analysis = sim_lint::analyze_tree(&root).map_err(|e| format!("scan failed: {e}"))?;
    let existing =
        Baseline::load(&baseline_path).map_err(|e| format!("{}: {e}", baseline_path.display()))?;

    if opts.update_baseline {
        let updated = match &existing {
            // The ratchet only tightens once a baseline exists …
            Some(old) => sim_lint::updated_baseline(&analysis, old)?,
            // … but the very first run freezes the current state wholesale.
            None => Baseline::from_counts(&analysis.counts()),
        };
        updated
            .save(&baseline_path)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "sim-lint: baseline updated ({} entries) at {}",
            updated.counts.len(),
            baseline_path.display()
        );
        return Ok(true);
    }

    let baseline = existing.unwrap_or_default();
    let verdict = sim_lint::compare(&analysis, &baseline);
    if opts.json {
        print!("{}", sim_lint::render_json(&analysis, &verdict));
    } else if opts.github {
        print!("{}", sim_lint::render_github(&analysis, &verdict));
    } else {
        print!(
            "{}",
            sim_lint::render_text(&analysis, &verdict, opts.show_all)
        );
    }
    Ok(verdict.clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("sim-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
