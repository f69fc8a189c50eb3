//! `cargo run -q -p pgxd-analyze [-- --json]`: runs the three passes over
//! the workspace, writes `results/analyze_report.json`, prints the report,
//! and exits 1 if any finding survives the markers.
//!
//! The persisted file gets `"timings_ms": null`: per-pass wall times only
//! ride the `--json` stdout path, so the committed report never drifts on
//! timing jitter.

use std::path::Path;

fn main() {
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg != "--json" {
            eprintln!("pgxd-analyze: unknown argument `{arg}` (expected: --json)");
            std::process::exit(2);
        }
        json = true;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze lies two levels below the workspace root");
    let mut report = pgxd_analyze::analyze_workspace(root).unwrap_or_else(|e| {
        eprintln!("pgxd-analyze: cannot read workspace sources: {e}");
        std::process::exit(1);
    });
    let timings = std::mem::take(&mut report.timings_ms);
    let persisted = pgxd_analyze::render_json(&report);
    report.timings_ms = timings;
    let out = root.join("results");
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("analyze_report.json"), persisted))
    {
        eprintln!("pgxd-analyze: cannot write results/analyze_report.json: {e}");
    }
    if json {
        println!("{}", pgxd_analyze::render_json(&report));
    } else if report.is_clean() {
        print!("{}", pgxd_analyze::render_human(&report));
    } else {
        eprint!("{}", pgxd_analyze::render_human(&report));
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// The source policy tests: clippy over the real tree, and over a planted
/// copy of it.
#[cfg(test)]
#[path = "../tests/policy/mod.rs"]
mod tests;
