//! The `figures` command line: a bad argument exits 2 before any
//! series runs.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_output() {
    for args in [
        &["--runs", "0"][..],
        &["--runs", "many"],
        &["--runs"],
        &["fig9"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("spawn figures");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
