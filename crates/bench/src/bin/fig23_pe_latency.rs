//! Regenerates the paper's fig23 pe latency experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig23_pe_latency);
}
