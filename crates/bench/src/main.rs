//! `ssdrec-bench <entry> | all | --list` — see the crate docs.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ssdrec_bench::run(&argv).into()
}
