//! Regenerates the paper's fig24 core uarch experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig24_core_uarch);
}
