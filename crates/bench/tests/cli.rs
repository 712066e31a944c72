//! `figures` command-line validation: environment variables that stand
//! in for absent flags are parsed by the same parsers as the flags, so
//! a typo exits 2 with a usage error naming the value instead of
//! silently running a default configuration.

use std::process::{Command, Output};

/// Runs `figures` with `args` and `env`, with every variable the binary
/// reads cleared first so the caller's environment cannot leak in.
fn figures(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args);
    for var in ["PROBRANCH_SCALE", "PROBRANCH_JOBS", "PROBRANCH_FAULTS"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("figures runs")
}

fn assert_usage_error(out: &Output, names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(names), "stderr must name {names}: {stderr}");
    assert!(out.stdout.is_empty(), "no figure may be printed");
}

#[test]
fn bad_scale_env_is_a_usage_error() {
    let out = figures(&[], &[("PROBRANCH_SCALE", "papr")]);
    assert_usage_error(&out, "`papr`");
    assert_usage_error(&out, "PROBRANCH_SCALE");
}

#[test]
fn bad_jobs_env_is_a_usage_error() {
    let out = figures(
        &[],
        &[("PROBRANCH_SCALE", "smoke"), ("PROBRANCH_JOBS", "four")],
    );
    assert_usage_error(&out, "`four`");
    assert_usage_error(&out, "PROBRANCH_JOBS");
}

#[test]
fn removed_fused_engine_is_a_usage_error() {
    let out = figures(&["--scale", "smoke", "--engine", "fused"], &[]);
    assert_usage_error(&out, "unknown engine `fused`");
}
