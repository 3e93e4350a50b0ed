//! Regenerates the paper's fig22 fabric size experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig22_fabric_size);
}
