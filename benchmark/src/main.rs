//! See the library's crate documentation (`src/lib.rs`) and `benchmark/README.md`.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dcl1_benchmark::run(&argv)
}
