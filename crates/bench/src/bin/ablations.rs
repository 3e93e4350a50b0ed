//! Ablations of täkō's design choices (trrîp, prefetch decoupling).
fn main() {
    tako_bench::run_figure(tako_bench::experiments::ablations);
}
