//! Regenerates the paper's sens rtlb experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::sens_rtlb);
}
