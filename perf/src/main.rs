//! `textjoin-perf` — see `perf/README.md`.

fn main() {
    std::process::exit(textjoin_perf::cli::main(std::env::args().skip(1).collect()));
}
