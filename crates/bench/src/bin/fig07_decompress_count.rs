//! Regenerates the paper's fig07 decompress count experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig07_decompress_count);
}
