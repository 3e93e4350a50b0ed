//! Regenerates the paper's fig14 phi dram experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig14_phi_dram);
}
