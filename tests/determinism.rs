//! The determinism matrix (docs/CONCURRENCY.md), whole: every row of
//! the table in `tests/matrix/mod.rs` at every column.
//!
//! Every command `thirstyflops help` lists needs a row, unless it is on
//! [`EXEMPT`] with a reason; every `examples/scenarios/*.json` gets one
//! by listing the directory.

use std::process::Command;

mod matrix;

/// Commands without a row, each with the reason.
const EXEMPT: [(&str, &str); 3] = [
    (
        "serve",
        "a long-running server: tests/serve.rs and ./ci.sh load-smoke verify its bytes at 1 and 8 workers",
    ),
    (
        "loadgen",
        "its output carries wall-clock numbers: ./ci.sh chaos-smoke pins its deterministic section",
    ),
    ("help", "static text, covered by tests/cli.rs"),
];

/// The matrix: every row at every column. A failure names its row.
#[test]
fn every_row_is_identical_in_every_column() {
    matrix::check(matrix::rows(), &[]);
}

/// Every command `thirstyflops help` lists has a row or an exemption
/// with its reason, and every row and exemption names a real command.
#[test]
fn every_command_has_a_row() {
    let help = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .arg("help")
        .output()
        .expect("CLI binary runs");
    assert!(help.status.success(), "{help:?}");
    let usage = String::from_utf8(help.stderr).expect("usage is UTF-8");
    let commands: Vec<String> = usage
        .lines()
        .filter_map(|line| line.strip_prefix("  thirstyflops "))
        .map(|rest| {
            let words = rest.split_whitespace();
            let name: Vec<&str> = words.take_while(|w| !w.starts_with(['<', '['])).collect();
            name.join(" ")
        })
        .collect();
    assert!(commands.len() > EXEMPT.len(), "{usage}");
    // A row runs the longest command its arguments start with, so
    // `scenario run <file>` is not a `scenario <system>` row.
    let mut covered = Vec::new();
    for row in matrix::rows() {
        let args = row.args.join(" ") + " ";
        let command = commands
            .iter()
            .filter(|c| args.starts_with(&format!("{c} ")))
            .max_by_key(|c| c.len())
            .unwrap_or_else(|| panic!("row `{args}` runs no listed command"));
        covered.push(command);
    }
    for (name, reason) in EXEMPT {
        assert!(
            commands.iter().any(|c| c == name),
            "exemption {name:?} ({reason}) names no command"
        );
    }
    let missing: Vec<&String> = commands
        .iter()
        .filter(|c| !covered.contains(c) && !EXEMPT.iter().any(|(name, _)| name == c))
        .collect();
    assert!(missing.is_empty(), "commands without a row: {missing:?}");
}
