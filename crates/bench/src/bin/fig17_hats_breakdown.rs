//! Regenerates the paper's fig17 hats breakdown experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig17_hats_breakdown);
}
