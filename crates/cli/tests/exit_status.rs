//! The `resmatch` binary's exit status on bad input: a usage error prints
//! a message on stderr and exits 2, never crashes.

use std::process::Command;

#[test]
fn deeply_nested_constraints_are_usage_errors() {
    // Each is about 80 KB, far past the parser's nesting bound; a parser
    // that recursed without one would overflow the stack and abort.
    for text in [
        format!("{}true{}", "(".repeat(40_000), ")".repeat(40_000)),
        format!("{}true", "!".repeat(30_000)),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_resmatch"))
            .args(["simulate", "--synthetic", "10", "--matchmaking"])
            .args(["--constrain", &text])
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("bad --constrain expression"), "{stderr}");
    }
}
