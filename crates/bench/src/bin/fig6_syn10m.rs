//! Figure 6 — response time vs ε on the 2–6-D uniform synthetic datasets
//! (10⁷-point tier), five algorithms.

use sj_bench::cli::Args;
use sj_bench::sweep::print_response_time_panel;
use sj_datasets::catalog::Catalog;

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    for spec in catalog.synthetic_tier("10M") {
        print_response_time_panel("fig6_syn10m", spec, &args);
    }
}
