//! `--help` and `-h` print the usage and succeed after every subcommand,
//! not only on their own.

use std::process::Command;

#[test]
fn help_after_any_subcommand_prints_usage() {
    let cases: &[&[&str]] = &[
        &["--help"],
        &["run", "--help"],
        &["run", "--workload", "ior", "-h"],
        &["dsl", "--help"],
        &["lint", "--help"],
        &["watch", "-h"],
        &["requests", "--help"],
        &["profile", "--help"],
        &["bench", "--help"],
        &["compare", "--help"],
        &["taxonomy", "--help"],
        &["corpus", "-h"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_pioeval"))
            .args(*args)
            .output()
            .expect("failed to spawn pioeval");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?} failed: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.starts_with("pioeval — parallel I/O evaluation framework")
                && stdout.contains("USAGE:"),
            "{args:?} did not print the usage: {stdout}"
        );
    }
}
