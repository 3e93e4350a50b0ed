//! Regenerates the paper's fig06 decompress experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig06_decompress);
}
