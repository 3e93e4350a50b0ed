//! Regenerates the paper's table2 overhead experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::table2_overhead);
}
