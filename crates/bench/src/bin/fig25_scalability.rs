//! Regenerates the paper's fig25 scalability experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig25_scalability);
}
