//! Figure 9: write throughput normalized to the baseline.

use pcmap_bench::{matrix_with_averages, render_metric_normalized, scale_from_args};
use pcmap_core::SystemKind;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = matrix_with_averages(scale, &mut runner);
    println!("Figure 9 — write throughput, normalized to baseline");
    println!("Paper: >1.2x for 5 of 12 workloads under the full design.\n");
    let kinds = SystemKind::all();
    print!(
        "{}",
        render_metric_normalized(&rows, &kinds[1..], |r| r.write_throughput)
    );
}
