//! Regenerates the paper's fig16 hats experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig16_hats);
}
