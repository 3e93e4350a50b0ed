//! Regenerates the paper's fig13 phi experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig13_phi);
}
