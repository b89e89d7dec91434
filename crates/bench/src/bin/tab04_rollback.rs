//! Table IV: cost of RoW rollbacks — IPC improvement under the
//! always-faulty bound vs the none-faulty bound.
//!
//! Also writes `results/tab04_rollback.json` (rows plus the full telemetry
//! of each always-faulty run, including its rollback rate) and
//! `results/tab04_rollback.csv`.

use pcmap_bench::cli::scale_from_args;
use pcmap_bench::write_artifact;
use pcmap_obs::Value;
use pcmap_sim::experiments::tab4;
use pcmap_sim::TableBuilder;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = tab4(scale, &mut runner);
    println!("Table IV — RoW rollback cost (RWoW-NR vs baseline; fixed layout always defers verification)");
    println!("Paper: canneal 5.8% max rollbacks, 12.18% faulty / 14.87% none-faulty.\n");
    let mut t = TableBuilder::new(&[
        "workload",
        "max rollbacks [%]",
        "IPC imp. faulty [%]",
        "IPC imp. none-faulty [%]",
    ]);
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            format!("{:.1}", r.max_rollback_pct),
            format!("{:+.2}", r.faulty_imp_pct),
            format!("{:+.2}", r.none_faulty_imp_pct),
        ]);
    }
    print!("{}", t.render());

    let mut out = Value::obj();
    out.set("table", Value::Str("tab04_rollback".into()));
    out.set(
        "rows",
        Value::Arr(
            rows.iter()
                .map(|r| {
                    let mut o = Value::obj();
                    o.set("workload", Value::Str(r.workload.clone()));
                    o.set("max_rollback_pct", Value::F64(r.max_rollback_pct));
                    o.set("faulty_imp_pct", Value::F64(r.faulty_imp_pct));
                    o.set("none_faulty_imp_pct", Value::F64(r.none_faulty_imp_pct));
                    o.set("faulty_report", r.faulty_report.to_json());
                    o
                })
                .collect(),
        ),
    );
    write_artifact("results/tab04_rollback.json", &out.to_json_pretty());
    write_artifact("results/tab04_rollback.csv", &t.to_csv());
}
