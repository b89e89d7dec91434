use pcmap_core::SystemKind;
use pcmap_sim::{SimConfig, System};
use pcmap_workloads::catalog;

const USAGE: &str = "usage: probe [REQUESTS] [WORKLOAD]  (env: PCMAP_MLP=N)";

fn parse_args() -> Result<(u64, catalog::Workload, Option<usize>), String> {
    let mut args = std::env::args().skip(1);
    let n = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("REQUESTS wants a count, got '{s}'"))?,
        None => 8000,
    };
    let wl_name = args.next().unwrap_or_else(|| "canneal".into());
    let wl = catalog::by_name(&wl_name).ok_or(format!("unknown workload '{wl_name}'"))?;
    let mlp = match std::env::var("PCMAP_MLP") {
        Ok(m) => Some(
            m.parse()
                .ok()
                .filter(|&k| k > 0)
                .ok_or(format!("PCMAP_MLP wants a positive count, got '{m}'"))?,
        ),
        Err(_) => None,
    };
    Ok((n, wl, mlp))
}

fn main() {
    let (n, wl, mlp) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("workload={} requests={}", wl.name, n);
    for kind in SystemKind::all() {
        let mut cfg = SimConfig::paper_default(kind).with_requests(n);
        if let Some(m) = mlp {
            cfg.cpu.mlp = m;
        }
        let sys = System::new(cfg, wl.clone());
        let r = sys.run();
        println!(
            "{:9}: ipc={:.3} rdlat={:6.1} irlp={:.2}/{:.2} wtput={:.3} delayed={:.2} row={} wow={} cyc={} ess={:.2}",
            kind.label(), r.ipc(), r.mean_read_latency, r.irlp_mean, r.irlp_max,
            r.write_throughput, r.delayed_read_fraction, r.reads_via_row, r.wow_overlaps,
            r.mem_cycles, r.mean_essential_words
        );
        println!(
            "           blocked_multi={} blocked_pcc={} wr_blk(d/e/p)={}/{}/{} deferred={}",
            r.row_blocked_multi,
            r.row_blocked_pcc,
            r.wr_blocked.0,
            r.wr_blocked.1,
            r.wr_blocked.2,
            r.reads_deferred_only
        );
        println!(
            "           drains={} rdlat p50/p95/p99 = {}/{}/{}",
            r.drains, r.p50_read_latency, r.p95_read_latency, r.p99_read_latency
        );
    }
}
