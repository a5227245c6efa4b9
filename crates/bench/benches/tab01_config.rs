//! Table I: the simulated-GPU configuration in force for every experiment.

use lazydram_common::GpuConfig;

fn main() {
    let g = GpuConfig::default();
    println!("=== Table I: key configuration parameters of the simulated GPU ===");
    println!(
        "SMs                  : {} @ {} MHz, SIMD width {}, {} warps/SM, issue {}",
        g.num_sms, g.core_clock_mhz, g.threads_per_warp, g.warps_per_sm, g.issue_width
    );
    println!(
        "L1 data cache        : {} KB, {}-way, {} B lines, {} MSHRs",
        g.l1_bytes / 1024,
        g.l1_ways,
        g.line_bytes,
        g.l1_mshrs
    );
    println!(
        "L2 cache             : {} KB/channel ({} KB total), {}-way, {} MSHRs",
        g.l2_bytes / 1024,
        g.l2_bytes * g.num_channels / 1024,
        g.l2_ways,
        g.l2_mshrs
    );
    println!(
        "Memory model         : {} GDDR5 MCs @ {} MHz, FR-FCFS, {} banks/MC in {} groups,",
        g.num_channels, g.mem_clock_mhz, g.banks_per_channel, g.bank_groups
    );
    println!(
        "                       {} B rows, {}-entry pending queues, {} B interleave chunks",
        g.row_bytes, g.pending_queue_size, g.chunk_bytes
    );
    let t = g.timings;
    println!(
        "GDDR5 timing         : tCL={} tRP={} tRC={} tRAS={} tCCD={} tRCD={} tRRD={} tCDLR={}",
        t.t_cl, t.t_rp, t.t_rc, t.t_ras, t.t_ccd, t.t_rcd, t.t_rrd, t.t_cdlr
    );
    println!(
        "Interconnect         : crossbar, latency {} core cycles, width {}/cycle",
        g.noc_latency, g.noc_width
    );
}
