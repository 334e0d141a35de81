//! Figure 4 — response time vs ε on the real-world surrogates
//! (SW2DA/B, SW3DA/B, SDSS2DA/B), five algorithms.
//!
//! Expected shape (paper): GPU-SJ beats CPU-RTREE on every panel and
//! SuperEGO on most; brute force is flat in ε and worst except at the
//! largest ε of small datasets.

use sj_bench::cli::Args;
use sj_bench::sweep::print_response_time_panel;
use sj_datasets::catalog::Catalog;

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    for spec in catalog.real_world() {
        print_response_time_panel("fig4_realworld", spec, &args);
    }
}
