//! Runs every table/figure generator in paper order. Pass `--quick` for
//! the CI-sized configuration.

use std::process::Command;

fn main() {
    let args = iswitch_bench::check_args(&[iswitch_bench::QUICK]);
    let quick = args.iter().any(|a| a == "--quick");
    for bin in iswitch_bench::ALL_BINS {
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(bin),
        );
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
        println!();
    }
}
