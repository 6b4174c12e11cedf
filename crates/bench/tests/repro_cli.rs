//! `repro`'s argument errors, through the binary: usage on stderr, exit 2.

use pthammer_bench::repro::Artifact;

#[test]
fn bad_invocations_print_usage_and_exit_2() {
    let cases: [&[&str]; 5] = [
        &[],
        &["table3"],
        &["fig3", "--mode", "implicit-one-location"],
        &["table2", "--measured"],
        &["all", "--measured"],
    ];
    for args in cases {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output();
        let output = run.expect("run repro");
        assert_eq!(output.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            Artifact::all().iter().all(|a| stderr.contains(a.name())),
            "{stderr}"
        );
    }
}
