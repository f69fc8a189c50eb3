//! `cargo run -q --bin policy`: checks the workspace against the source
//! policy (DESIGN.md, "Source policy"), which rustc and clippy enforce from
//! the manifests and `crates/pgxd/clippy.toml`. Runs clippy over every
//! target of every member, denying warnings, prints what it reports and
//! exits 1 if it reports anything.
//!
//! Its tests, `tests::<rule>`, plant each rule's violations into a copy of
//! the tree and require clippy to report exactly those lines.

use std::path::Path;
use std::process::{Command, Output};

fn main() {
    let out = clippy(
        root(),
        &root().join("target/policy-clippy"),
        &["--workspace", "--", "-D", "warnings"],
    );
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        std::process::exit(1);
    }
}

/// The workspace root: this package's manifest directory.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `cargo clippy --all-targets <args>` over the workspace at `ws`,
/// building into `target`.
fn clippy(ws: &Path, target: &Path, args: &[&str]) -> Output {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    Command::new(cargo)
        .current_dir(ws)
        .args(["clippy", "--all-targets", "--target-dir"])
        .arg(target)
        .args(args)
        .output()
        .expect("cargo clippy runs")
}

/// The source policy tests: clippy over the real tree, and over a planted
/// copy of it.
#[cfg(test)]
#[path = "../tests/policy/mod.rs"]
mod tests;
