//! Smoke tests for the `liar` command-line tool.

use std::process::Command;

fn liar(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_liar"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn optimize_finds_the_latent_dot() {
    let out = liar(&[
        "optimize",
        "--target",
        "blas",
        "--steps",
        "6",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × dot"), "{stdout}");
    assert!(stdout.contains("(dot #16 xs"), "{stdout}");
}

#[test]
fn kernel_subcommand_runs_table_rows() {
    let out = liar(&["kernel", "--target", "pytorch", "vsum"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × sum"), "{stdout}");
}

#[test]
fn kernels_lists_table_one() {
    let out = liar(&["kernels"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["2mm", "vsum", "stencil2d", "gemver"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn emit_c_produces_cblas() {
    let out = liar(&["emit-c", "gemv"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("cblas_dgemv"), "{stdout}");
}

#[test]
fn bad_input_fails_gracefully() {
    assert!(!liar(&["optimize", "(((("]).status.success());
    assert!(!liar(&["kernel", "not-a-kernel"]).status.success());
    assert!(!liar(&["frobnicate"]).status.success());
    assert!(!liar(&["optimize", "--target", "fortran", "(+ 1 2)"]).status.success());
    assert!(!liar(&["explain", "(((("]).status.success());
    assert!(!liar(&["dot", "not-a-kernel-or-expr ("]).status.success());
}

#[test]
fn explain_prints_a_replayed_certificate() {
    let out = liar(&["explain", "vsum", "--target", "blas", "--steps", "6"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // A numbered proof from the source kernel to the dot lifting…
    assert!(stdout.contains("   0: (ifold #8 0"), "{stdout}");
    assert!(stdout.contains("idiom-dot"), "{stdout}");
    assert!(stdout.contains("[1 × dot]"), "{stdout}");
    // …that the CLI replayed before claiming success.
    assert!(stdout.contains("proof replayed OK"), "{stdout}");
}

#[test]
fn explain_accepts_raw_expressions() {
    let out = liar(&[
        "explain",
        "--target",
        "pytorch",
        "--steps",
        "6",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 × sum"), "{stdout}");
    assert!(stdout.contains("proof replayed OK"), "{stdout}");
}

#[test]
fn dot_renders_the_proof_path() {
    let out = liar(&[
        "dot",
        "--steps",
        "6",
        "--explain",
        "(ifold #4 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("digraph egraph"), "{stdout}");
    // The certificate path is emphasized: bold classes and red edges.
    assert!(stdout.contains("style=bold; color=red"), "{stdout}");
    assert!(stdout.contains(", color=red]"), "{stdout}");
    // Without --explain nothing is highlighted.
    let plain = liar(&["dot", "--steps", "2", "(+ a b)"]);
    assert!(plain.status.success());
    let plain = String::from_utf8(plain.stdout).unwrap();
    assert!(plain.starts_with("digraph egraph"), "{plain}");
    assert!(!plain.contains("style=bold"), "{plain}");
}

#[test]
fn optimize_verbose_prints_top_rules() {
    let out = liar(&[
        "optimize",
        "--verbose",
        "--steps",
        "5",
        "--target",
        "blas",
        "(ifold #16 0 (lam (lam (+ (get xs %1) %0))))",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("rule applications ("), "{stdout}");
    assert!(stdout.contains("× idiom-dot"), "{stdout}");
    // Zero-application rules are not listed.
    assert!(!stdout.contains(" 0 × "), "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["optimize", "--bogus", "(+ 1 2)"][..], // unknown flag
        &["optimize"],                           // missing positional
        &["optimize", "--steps"],                // missing flag value
        &["optimize", "--steps", "abc", "(+ 1 2)"], // non-numeric value
        &["help", "not-a-command"],
        &["submit"], // no program and no admin op
    ] {
        let out = liar(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn help_lists_commands_and_flags() {
    let out = liar(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for cmd in ["optimize", "kernel", "emit-c", "kernels", "explain", "dot", "serve", "submit"] {
        assert!(stdout.contains(cmd), "global help missing {cmd}: {stdout}");
    }
    let out = liar(&["help", "optimize"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in ["--target", "--targets", "--all-targets", "--steps"] {
        assert!(stdout.contains(flag), "optimize help missing {flag}: {stdout}");
    }
    // Search runs on one thread: there is no thread-count flag.
    assert!(
        !stdout.contains("--threads"),
        "optimize help lists --threads: {stdout}"
    );
    let out = liar(&["kernel", "gemv", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
    // `help` with no command behaves like --help and exits 0; a bare
    // `liar` prints the same text but exits 2 (it did not do anything).
    assert!(liar(&["help"]).status.success());
    assert_eq!(liar(&[]).status.code(), Some(2));
}

/// A reader that closes the pipe early ends the run quietly with status
/// 0. `dot atax --steps 8` prints about 98 KB, more than a 64 KiB pipe
/// buffer holds, so the CLI meets the closed read end whatever the
/// timing.
#[test]
fn closed_stdout_exits_quietly() {
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_liar"))
        .args(["dot", "atax", "--steps", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// End-to-end through the real binaries: start `liar serve` on an
/// ephemeral loopback port, drive it with `liar submit`, and shut it
/// down over the protocol.
#[test]
fn serve_and_submit_roundtrip() {
    use std::io::BufRead;

    let mut server = Command::new(env!("CARGO_BIN_EXE_liar"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    // The first stdout line announces the bound address.
    let stdout = server.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr = banner
        .rsplit_once(' ')
        .map(|(_, addr)| addr.to_string())
        .expect("address in banner");

    let submit = |extra: &[&str]| {
        let mut args = vec!["submit", "--addr", &addr];
        args.extend_from_slice(extra);
        liar(&args)
    };

    let out = submit(&["--ping"]);
    assert!(out.status.success(), "{out:?}");

    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: miss"), "{text}");
    assert!(text.contains("1 × dot"), "{text}");

    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: hit"), "{text}");

    // The explain op, end to end: a fresh fingerprint (miss, not a hit
    // of the plain run) whose solution carries the printed certificate.
    let out = submit(&["--kernel", "vsum", "--targets", "blas", "--steps", "6", "--explain"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cache: miss"), "{text}");
    assert!(text.contains("proof ("), "{text}");
    assert!(text.contains("idiom-dot"), "{text}");

    let out = liar(&["stats", "--addr", &addr]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("1 hits"), "{text}");
    // One stats command: `submit --stats` is gone.
    let out = submit(&["--stats"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag --stats"), "{stderr}");

    // Unreachable daemons are a runtime failure (exit 1), not a usage
    // error.
    let out = liar(&["submit", "--addr", "127.0.0.1:1", "--ping"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = submit(&["--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    let status = server.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "{status:?}");
}
