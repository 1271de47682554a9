//! The campaign driver's argument contract: an unknown flag prints the
//! usage message and exits 3, the workspace's usage code, before any
//! module is generated.

use std::process::Command;

#[test]
fn unknown_flags_exit_with_the_usage_code() {
    for args in [["--workers", "2"], ["--shard", "0/2"], ["--bogus", "1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fuzz_differential"))
            .args(args)
            .output()
            .expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a campaign");
    }
}
