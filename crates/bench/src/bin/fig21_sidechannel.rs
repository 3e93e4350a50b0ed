//! Regenerates the paper's fig21 sidechannel experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig21_sidechannel);
}
