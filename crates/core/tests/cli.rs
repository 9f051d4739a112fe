//! Exit codes of the `mikpoly` binary: a bare `mikpoly` prints the usage
//! and exits 0; every rejected command line prints `error: ...` and the
//! usage and exits 2, before any work starts.

use std::process::Command;

fn mikpoly(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mikpoly"))
        .args(args)
        .output()
        .expect("mikpoly runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_bare_mikpoly_prints_the_usage_and_exits_0() {
    let (code, stderr) = mikpoly(&[]);
    assert_eq!(code, Some(0));
    assert!(stderr.starts_with("usage"), "{stderr}");
    for flag in [
        "--tenants",
        "--batch-window-us",
        "--max-batch",
        "--stall-ns",
    ] {
        assert!(stderr.contains(flag), "usage lacks {flag}");
    }
}

#[test]
fn rejected_command_lines_exit_2_with_the_usage() {
    for args in [
        &["serve", "--utilisation", "0.5"][..],
        &["chaos", "--request", "5"],
        &["serve", "--seed"],
        &["serve", "--seed", "abc"],
        &["gemm", "1", "2"],
        &["gemm", "1", "2", "3", "--machine", "tpu"],
        &["frobnicate"],
    ] {
        let (code, stderr) = mikpoly(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("usage"),
            "{args:?}: {stderr}"
        );
    }
}
