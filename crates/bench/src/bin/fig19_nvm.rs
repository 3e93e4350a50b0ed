//! Regenerates the paper's fig19 nvm experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig19_nvm);
}
