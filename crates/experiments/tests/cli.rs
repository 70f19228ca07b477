//! The runners' command line, driven through the built binaries: a
//! flag a runner does not know or refuses, a flag without its value,
//! or `--jobs 0` ends the process with status 2 and an `error:` line naming the
//! argument, before anything is simulated (so nothing reaches stdout).
//! So does a `--churn` plan naming a link or node the fabric lacks.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"))
}

#[test]
fn bad_flags_exit_2_before_simulating() {
    for (bin, args, needle) in [
        (
            env!("CARGO_BIN_EXE_fig09"),
            &["--tiny", "--quik"][..],
            "'--quik'",
        ),
        (
            env!("CARGO_BIN_EXE_tab_hardware"),
            &["--bogus"][..],
            "'--bogus'",
        ),
        (
            env!("CARGO_BIN_EXE_churn"),
            &["--tiny", "--emit-plan"][..],
            "--emit-plan needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_fig09"),
            &["--tiny", "--jobs", "0"][..],
            "--jobs value '0'",
        ),
        // `churn` installs its own storm; a plan would replace it.
        (
            env!("CARGO_BIN_EXE_churn"),
            &["--tiny", "--churn", "plan.json"][..],
            "--churn is not accepted by this runner",
        ),
        // `--emit-plan` belongs to `churn` alone.
        (
            env!("CARGO_BIN_EXE_fig09"),
            &["--tiny", "--emit-plan", "p.json"][..],
            "'--emit-plan'",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{bin} {args:?}: stderr '{stderr}' does not name {needle}"
        );
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} printed before failing"
        );
    }
}

#[test]
fn churn_plans_naming_what_the_fabric_lacks_exit_2() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, event, needle) in [
        (
            "kill_link",
            r#"{"at": 5, "kind": "kill_link", "link": 999999}"#,
            "kill_link at cycle 5 names link 999999",
        ),
        (
            "outage",
            r#"{"at": 5, "kind": "regional_outage", "center": 999999, "radius": 1, "down_for": 10}"#,
            "regional_outage at cycle 5 names node 999999",
        ),
        (
            "kill_node",
            r#"{"at": 5, "kind": "kill_node", "node": 999999}"#,
            "kill_node at cycle 5 names node 999999",
        ),
    ] {
        let plan = dir.join(format!("cli_churn_{name}.json"));
        std::fs::write(&plan, format!(r#"{{"events": [{event}]}}"#))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", plan.display()));
        let path = plan.to_str().expect("a UTF-8 temp path");
        let out = run(
            env!("CARGO_BIN_EXE_fig09"),
            &["--tiny", "--jobs", "1", "--churn", path],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{name}: stderr '{stderr}' does not name {needle}"
        );
        assert!(out.stdout.is_empty(), "{name} printed before failing");
    }
}

#[test]
fn well_formed_flags_run() {
    let out = run(env!("CARGO_BIN_EXE_fig09"), &["--tiny", "--jobs=1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fig. 9"));
}
