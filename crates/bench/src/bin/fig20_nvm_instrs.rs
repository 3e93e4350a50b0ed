//! Regenerates the paper's fig20 nvm instrs experiment. See DESIGN.md §4.
fn main() {
    tako_bench::run_figure(tako_bench::experiments::fig20_nvm_instrs);
}
