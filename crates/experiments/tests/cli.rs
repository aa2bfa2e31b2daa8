//! Command-line misuse is an error, not a silent default.

use std::process::Command;

/// `--scale qick` and `LOCKSS_SCALE=garbage` used to run the (minutes-long)
/// default scale. Both must exit 2 naming the accepted scales, before any
/// simulation starts, in the CLI and in the figure binaries.
#[test]
fn unknown_scale_names_exit_2_with_the_accepted_names() {
    let bins = [env!("CARGO_BIN_EXE_lockss-sim"), env!("CARGO_BIN_EXE_fig2")];
    for bin in bins {
        let by_flag = Command::new(bin)
            .args(["run", "baseline", "--scale", "qick"])
            .env_remove("LOCKSS_SCALE")
            .output()
            .expect("spawn");
        let by_env = Command::new(bin)
            .args(["run", "baseline"])
            .env("LOCKSS_SCALE", "garbage")
            .output()
            .expect("spawn");
        for (out, source, typo) in [
            (by_flag, "--scale", "qick"),
            (by_env, "LOCKSS_SCALE", "garbage"),
        ] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin}: nothing may run");
            for needle in [source, typo, "quick", "default", "paper"] {
                assert!(
                    stderr.contains(needle),
                    "{bin}: '{needle}' not in: {stderr}"
                );
            }
        }
    }
}
