//! End-to-end tests of the `pager-lint` binary: exit codes, inline
//! suppression, JSON output, and detection of seeded violations.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a minimal fixture workspace and returns its root.
fn fixture_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pager-lint-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/pager-core/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn safe(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    )
    .expect("write lib");
    dir
}

fn run(root: &Path, args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_pager-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run pager-lint");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A bare `Relaxed` load outside the metrics module.
const RELAXED: &str = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                       pub fn f(x: &AtomicBool) -> bool { x.load(Ordering::Relaxed) }\n";

#[test]
fn clean_tree_exits_zero_and_seeded_violations_fail() {
    let root = fixture_workspace("seed");

    // Clean tree: exit 0.
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 0, "{stderr}");

    // Seed a bare Relaxed: exit 1 and the finding is reported.
    let bad = root.join("crates/pager-core/src/bad.rs");
    std::fs::write(&bad, RELAXED).expect("write bad");
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1);
    assert!(stdout.contains("atomics-ordering-audit"), "{stdout}");

    // A justified inline allow clears it.
    let allowed = RELAXED.replace(
        "pub fn",
        "// lint:allow(atomics-ordering-audit): flag read for a report only\npub fn",
    );
    std::fs::write(&bad, allowed).expect("write allowed");
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 0, "{stderr}");

    // An allow naming no known rule is itself a finding.
    std::fs::write(
        root.join("crates/pager-core/src/typo.rs"),
        "// lint:allow(lock-ordr)\n",
    )
    .expect("write typo");
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1);
    assert!(stdout.contains("typo.rs:1: [unknown-allow]"), "{stdout}");
    std::fs::remove_file(root.join("crates/pager-core/src/typo.rs")).expect("rm typo");

    // Nested locks acquired against the declared order fail too.
    std::fs::write(
        root.join("crates/pager-core/src/locks.rs"),
        "pub fn bad(a: &S) {\n    let t = a.latest_time.lock().unwrap();\n    \
         let s = a.shard_for(0).lock().unwrap();\n    drop(s);\n    drop(t);\n}\n",
    )
    .expect("write locks");
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1);
    assert!(stdout.contains("lock-order"), "{stdout}");

    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn json_output_is_machine_readable() {
    let root = fixture_workspace("json");
    std::fs::write(root.join("crates/pager-core/src/bad.rs"), RELAXED).expect("write bad");
    let (code, stdout, _) = run(&root, &["--json"]);
    assert_eq!(code, 1);
    let doc = jsonio::parse(&stdout).expect("valid JSON");
    assert_eq!(
        doc.get("format").and_then(jsonio::Value::as_str),
        Some("pager-lint/v2")
    );
    let findings = doc
        .get("findings")
        .and_then(jsonio::Value::as_array)
        .expect("findings array");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(jsonio::Value::as_str),
        Some("atomics-ordering-audit")
    );
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn usage_errors_exit_two() {
    let root = fixture_workspace("usage");
    let (code, _, stderr) = run(&root, &["--no-such-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    std::fs::remove_dir_all(&root).expect("cleanup");
}
