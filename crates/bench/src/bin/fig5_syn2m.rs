//! Figure 5 — response time vs ε on the 2–6-D uniform synthetic datasets
//! (2×10⁶-point tier), five algorithms.

use sj_bench::cli::Args;
use sj_bench::sweep::print_response_time_panel;
use sj_datasets::catalog::Catalog;

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    for spec in catalog.synthetic_tier("2M") {
        print_response_time_panel("fig5_syn2m", spec, &args);
    }
}
