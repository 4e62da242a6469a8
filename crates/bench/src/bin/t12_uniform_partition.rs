//! Runs the experiment this bin is named after; see `pp_bench::experiments::main`.
fn main() {
    pp_bench::experiments::main(env!("CARGO_BIN_NAME"))
}
