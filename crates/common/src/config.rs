//! Configuration of the simulated GPU (Table I of the paper) and of the
//! lazy-memory-scheduler policies (Section IV of the paper).

/// GDDR5 DRAM timing parameters, in *memory* cycles (924 MHz domain).
///
/// Defaults follow the Hynix GDDR5 values in Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTimings {
    /// CAS (read) latency: cycles between a `RD` command and first data beat.
    pub t_cl: u32,
    /// Row-precharge time: cycles between `PRE` and the next `ACT` to the bank.
    pub t_rp: u32,
    /// Row-cycle time: minimum cycles between two `ACT`s to the same bank.
    pub t_rc: u32,
    /// Minimum cycles a row must stay open between `ACT` and `PRE`.
    pub t_ras: u32,
    /// Column-to-column delay: data-bus beats occupied per burst.
    pub t_ccd: u32,
    /// RAS-to-CAS delay: cycles between `ACT` and the first `RD`/`WR`.
    pub t_rcd: u32,
    /// Activate-to-activate delay across *different* banks of one channel.
    pub t_rrd: u32,
    /// Last-write-data to read delay (write-to-read turnaround).
    pub t_cdlr: u32,
    /// Write latency: cycles between a `WR` command and first data beat.
    pub t_wl: u32,
    /// Write recovery: cycles between last write data and `PRE` of that bank.
    pub t_wr: u32,
    /// Four-activation window per channel; 0 disables the constraint
    /// (extension, off in the paper-baseline configuration).
    pub t_faw: u32,
    /// Long CAS-to-CAS delay within one bank group; 0 uses `t_ccd` for all
    /// (extension, off in the paper-baseline configuration).
    pub t_ccdl: u32,
    /// All-bank refresh interval; 0 disables refresh (extension).
    pub t_refi: u32,
    /// All-bank refresh cycle time (used when `t_refi > 0`).
    pub t_rfc: u32,
}

impl Default for DramTimings {
    fn default() -> Self {
        Self {
            t_cl: 12,
            t_rp: 12,
            t_rc: 40,
            t_ras: 28,
            t_ccd: 2,
            t_rcd: 12,
            t_rrd: 6,
            t_cdlr: 5,
            t_wl: 4,
            t_wr: 12,
            t_faw: 0,
            t_ccdl: 0,
            t_refi: 0,
            t_rfc: 0,
        }
    }
}

impl DramTimings {
    /// GDDR5 timing with the full constraint set enabled: tFAW, bank-group
    /// aware tCCDL, and periodic all-bank refresh. The paper's Table I does
    /// not list these, so the default keeps them off; this profile is used
    /// by the timing-fidelity ablation.
    ///
    /// tFAW never binds here: with tRRD 6, four ACTs already span 18 cycles
    /// and a fifth cannot issue before cycle 24, past the 23-cycle window.
    /// So this profile exercises tCCDL and refresh only; the conformance
    /// suite stretches tFAW to 32 where it needs a binding window.
    pub fn gddr5_extended() -> Self {
        Self {
            t_faw: 23,
            t_ccdl: 3,
            t_refi: 3_900,
            t_rfc: 120,
            ..Self::default()
        }
    }
}

/// Static configuration of the simulated GPU (Table I of the paper).
///
/// The default value reproduces the paper's baseline: 30 SMs at 1400 MHz,
/// 6 GDDR5 memory controllers at 924 MHz, 16 banks per controller in 4 bank
/// groups, 128-entry FR-FCFS pending queues, and 256-byte channel interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM (48 in the baseline).
    pub warps_per_sm: usize,
    /// Threads per warp (SIMD width).
    pub threads_per_warp: usize,
    /// Warp-instruction issue slots per SM per core cycle (2 schedulers).
    pub issue_width: usize,
    /// Core clock in MHz.
    pub core_clock_mhz: u32,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u32,
    /// Number of memory channels (memory controllers / L2 slices).
    pub num_channels: usize,
    /// DRAM banks per channel.
    pub banks_per_channel: usize,
    /// Bank groups per channel.
    pub bank_groups: usize,
    /// Bytes per DRAM row (page) per bank.
    pub row_bytes: usize,
    /// Cache-line (DRAM burst) size in bytes.
    pub line_bytes: usize,
    /// Channel-interleaving chunk size in bytes (256 in the baseline).
    pub chunk_bytes: usize,
    /// L1 data-cache size per SM, bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 size per channel slice, bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// One-way interconnect latency in core cycles.
    pub noc_latency: u32,
    /// Per-direction interconnect throughput: requests accepted per core cycle.
    pub noc_width: usize,
    /// FR-FCFS pending-queue capacity per memory controller.
    pub pending_queue_size: usize,
    /// L1 miss-status-holding registers per SM (outstanding missed lines).
    pub l1_mshrs: usize,
    /// L2 MSHRs per slice.
    pub l2_mshrs: usize,
    /// L2 lookups processed per slice per core cycle.
    pub l2_throughput: usize,
    /// Extra L2 hit latency in core cycles (on top of interconnect latency).
    pub l2_latency: u32,
    /// DRAM timing parameters.
    pub timings: DramTimings,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            num_sms: 30,
            warps_per_sm: 48,
            threads_per_warp: 32,
            issue_width: 2,
            core_clock_mhz: 1400,
            mem_clock_mhz: 924,
            num_channels: 6,
            banks_per_channel: 16,
            bank_groups: 4,
            row_bytes: 2048,
            line_bytes: 128,
            chunk_bytes: 256,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 128 * 1024,
            l2_ways: 8,
            noc_latency: 8,
            noc_width: 2,
            pending_queue_size: 128,
            l1_mshrs: 64,
            l2_mshrs: 64,
            l2_throughput: 2,
            l2_latency: 16,
            timings: DramTimings::default(),
        }
    }
}

impl GpuConfig {
    /// Returns a scaled-down configuration useful for fast unit tests:
    /// fewer SMs and smaller caches, but identical DRAM organization.
    pub fn small() -> Self {
        Self {
            num_sms: 4,
            warps_per_sm: 16,
            ..Self::default()
        }
    }

    /// Number of cache lines in one DRAM row.
    pub fn lines_per_row(&self) -> usize {
        self.row_bytes / self.line_bytes
    }
}

/// Delayed-memory-scheduling (DMS) operating mode (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DmsMode {
    /// No delay: baseline FR-FCFS issue timing.
    Off,
    /// `Static-DMS`: a fixed minimum age, in memory cycles, that the oldest
    /// pending request must reach before a *new row* may be opened.
    Static(u32),
    /// `Dyn-DMS`: profiling controller that adapts the delay to keep DRAM
    /// bandwidth utilization within `bw_threshold` of a sampled baseline.
    Dynamic(DynDmsConfig),
}

impl DmsMode {
    /// The paper's `Static-DMS` configuration, `DMS(128)`.
    pub fn paper_static() -> Self {
        DmsMode::Static(128)
    }

    /// The paper's `Dyn-DMS` configuration.
    pub fn paper_dynamic() -> Self {
        DmsMode::Dynamic(DynDmsConfig::default())
    }

    /// Returns `true` unless the mode is [`DmsMode::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, DmsMode::Off)
    }
}

/// Knobs of the `Dyn-DMS` profiling controller (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynDmsConfig {
    /// Profiling-window length in memory cycles (paper: 4096).
    pub window: u32,
    /// Delay increment per window in memory cycles (paper: 128).
    pub step: u32,
    /// Starting delay for the first search (paper: 128).
    pub start: u32,
    /// Maximum delay (paper: 2048).
    pub max: u32,
    /// Minimum delay (paper: 0, the baseline).
    pub min: u32,
    /// Restart the search every this many windows (paper: 32).
    pub restart_windows: u32,
    /// Keep increasing delay while window BWUTIL ≥ this fraction of the
    /// sampled baseline BWUTIL (paper: 0.95).
    pub bw_threshold: f64,
}

impl Default for DynDmsConfig {
    fn default() -> Self {
        Self {
            window: 4096,
            step: 128,
            start: 128,
            max: 2048,
            min: 0,
            restart_windows: 32,
            bw_threshold: 0.95,
        }
    }
}

/// Approximate-memory-scheduling (AMS) operating mode (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AmsMode {
    /// No approximation.
    Off,
    /// `Static-AMS`: fixed RBL threshold; pending rows whose visible RBL is
    /// ≤ the threshold are candidates for dropping.
    Static(u32),
    /// `Dyn-AMS`: feedback controller that walks the threshold within
    /// `[min_th, max_th]` to track the coverage target.
    Dynamic(DynAmsConfig),
}

impl AmsMode {
    /// The paper's `Static-AMS` configuration, `AMS(8)`.
    pub fn paper_static() -> Self {
        AmsMode::Static(8)
    }

    /// The paper's `Dyn-AMS` configuration.
    pub fn paper_dynamic() -> Self {
        AmsMode::Dynamic(DynAmsConfig::default())
    }

    /// Returns `true` unless the mode is [`AmsMode::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, AmsMode::Off)
    }
}

/// Knobs of the `Dyn-AMS` feedback controller (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynAmsConfig {
    /// Profiling-window length in memory cycles (paper: 4096).
    pub window: u32,
    /// Lowest threshold the controller may reach (paper: 1).
    pub min_th: u32,
    /// Highest threshold / starting point (paper: 8).
    pub max_th: u32,
}

impl Default for DynAmsConfig {
    fn default() -> Self {
        Self {
            window: 4096,
            min_th: 1,
            max_th: 8,
        }
    }
}

/// Request arbiter of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arbiter {
    /// First-Row FCFS: row-buffer hits first, then oldest (the baseline,
    /// Rixner et al., paper reference \[15\]).
    FrFcfs,
    /// Strict first-come-first-serve: no row-hit reordering (comparison
    /// baseline).
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowPolicy {
    /// Open-page: rows stay open until a conflicting access (the baseline).
    Open,
    /// Closed-page: precharge as soon as no pending request wants the row
    /// (comparison baseline, cf. the paper's references \[41\]–\[42\]).
    Closed,
}

/// Full policy configuration of one memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Request arbiter (default: FR-FCFS).
    pub arbiter: Arbiter,
    /// Row-buffer management (default: open-page).
    pub row_policy: RowPolicy,
    /// Delayed-scheduling mode.
    pub dms: DmsMode,
    /// Approximate-scheduling mode.
    pub ams: AmsMode,
    /// User-defined prediction-coverage cap as a fraction of global read
    /// requests received by the controller (paper: 0.10).
    pub coverage_cap: f64,
    /// Value-predictor search radius in L2 sets (paper: "nearby sets").
    pub vp_set_radius: u32,
    /// Warm-up: AMS stays disabled until this many global reads have been
    /// received by the controller, letting its L2 slice fill before
    /// predictions start (paper: "we first warm up the L2 cache").
    pub ams_warmup_requests: u64,
    /// Footnote-2 "advanced model": approximated lines are inserted into L2
    /// so later accesses may reuse the approximation.
    pub approx_reuse: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            arbiter: Arbiter::FrFcfs,
            row_policy: RowPolicy::Open,
            dms: DmsMode::Off,
            ams: AmsMode::Off,
            coverage_cap: 0.10,
            vp_set_radius: 4,
            ams_warmup_requests: 500,
            approx_reuse: false,
        }
    }
}

impl SchedConfig {
    /// Baseline FR-FCFS with no delaying and no approximation.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The paper's `Static-DMS` scheme.
    pub fn static_dms() -> Self {
        Self {
            dms: DmsMode::paper_static(),
            ..Self::default()
        }
    }

    /// The paper's `Dyn-DMS` scheme.
    pub fn dyn_dms() -> Self {
        Self {
            dms: DmsMode::paper_dynamic(),
            ..Self::default()
        }
    }

    /// The paper's `Static-AMS` scheme.
    pub fn static_ams() -> Self {
        Self {
            ams: AmsMode::paper_static(),
            ..Self::default()
        }
    }

    /// The paper's `Dyn-AMS` scheme.
    pub fn dyn_ams() -> Self {
        Self {
            ams: AmsMode::paper_dynamic(),
            ..Self::default()
        }
    }

    /// The paper's `Static-DMS + Static-AMS` combination.
    pub fn static_combo() -> Self {
        Self {
            dms: DmsMode::paper_static(),
            ams: AmsMode::paper_static(),
            ..Self::default()
        }
    }

    /// The paper's `Dyn-DMS + Dyn-AMS` combination (the headline scheme).
    pub fn dyn_combo() -> Self {
        Self {
            dms: DmsMode::paper_dynamic(),
            ams: AmsMode::paper_dynamic(),
            ..Self::default()
        }
    }
}

/// The named scheduling schemes of the paper's evaluation, unified into one
/// constructor enum.
///
/// Every consumer-facing entry point (`SimBuilder`, the CLI, the figure
/// harnesses) selects a policy through this enum instead of hand-wiring a
/// [`SchedConfig`]; parameter sweeps that need off-menu settings (e.g. a
/// custom static DMS delay) still build a raw [`SchedConfig`] and attach
/// their own label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// FR-FCFS with no delaying and no approximation.
    Baseline,
    /// Delayed memory scheduling with the paper's fixed delay (X = 128).
    StaticDms,
    /// Delayed memory scheduling with the per-window delay search.
    DynDms,
    /// Approximate memory scheduling with the fixed RBL threshold (8).
    StaticAms,
    /// Approximate memory scheduling with the dynamic threshold.
    DynAms,
    /// `Static-DMS + Static-AMS` combination.
    StaticCombo,
    /// `Dyn-DMS + Dyn-AMS` — the headline scheme.
    DynCombo,
}

impl Scheme {
    /// Every scheme, baseline first.
    pub const ALL: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::StaticDms,
        Scheme::DynDms,
        Scheme::StaticAms,
        Scheme::DynAms,
        Scheme::StaticCombo,
        Scheme::DynCombo,
    ];

    /// The six non-baseline schemes of Figure 12, in presentation order.
    pub const PAPER: [Scheme; 6] = [
        Scheme::StaticDms,
        Scheme::DynDms,
        Scheme::StaticAms,
        Scheme::DynAms,
        Scheme::StaticCombo,
        Scheme::DynCombo,
    ];

    /// The scheduling policy this scheme names.
    pub fn sched(self) -> SchedConfig {
        match self {
            Scheme::Baseline => SchedConfig::baseline(),
            Scheme::StaticDms => SchedConfig::static_dms(),
            Scheme::DynDms => SchedConfig::dyn_dms(),
            Scheme::StaticAms => SchedConfig::static_ams(),
            Scheme::DynAms => SchedConfig::dyn_ams(),
            Scheme::StaticCombo => SchedConfig::static_combo(),
            Scheme::DynCombo => SchedConfig::dyn_combo(),
        }
    }

    /// The paper's display label (also the JSONL `scheme` field).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::StaticDms => "Static-DMS",
            Scheme::DynDms => "Dyn-DMS",
            Scheme::StaticAms => "Static-AMS",
            Scheme::DynAms => "Dyn-AMS",
            Scheme::StaticCombo => "Static-DMS+Static-AMS",
            Scheme::DynCombo => "Dyn-DMS+Dyn-AMS",
        }
    }

    /// Looks a scheme up by its (case-insensitive) display label.
    pub fn by_label(name: &str) -> Option<Scheme> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The named memory-technology presets of the backend matrix, unified into
/// one constructor enum (mirroring [`Scheme`] for scheduling policies).
///
/// A preset bundles a machine geometry and a [`DramTimings`] package into
/// one [`GpuConfig`]; every preset runs the same banked channel model.
/// Every consumer-facing entry point (`SimBuilder::preset`, the CLI
/// `--backend` flag, the `LAZYDRAM_BACKEND` env var) selects a memory
/// technology through this enum; sweeps that need off-menu machines still
/// build a raw [`GpuConfig`] by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramPreset {
    /// The paper's baseline: 6-channel Hynix GDDR5 at 924 MHz (Table I).
    Gddr5,
    /// A representative first-generation HBM machine: more, slower channels
    /// with smaller rows. Used by the Section V technology discussion
    /// ("independent of the memory technology used as long as it adopts
    /// similar structures as the row buffer").
    Hbm1,
    /// A representative HBM2 machine (faster clock, pseudo-channel-like
    /// organization approximated as 8 channels).
    Hbm2,
}

impl DramPreset {
    /// Every preset, the paper baseline first.
    pub const ALL: [DramPreset; 3] = [DramPreset::Gddr5, DramPreset::Hbm1, DramPreset::Hbm2];

    /// The machine configuration this preset names.
    pub fn gpu_config(self) -> GpuConfig {
        match self {
            DramPreset::Gddr5 => GpuConfig::default(),
            DramPreset::Hbm1 => GpuConfig {
                num_channels: 8,
                mem_clock_mhz: 500,
                banks_per_channel: 8,
                bank_groups: 4,
                row_bytes: 2048,
                timings: DramTimings {
                    t_cl: 7,
                    t_rp: 7,
                    t_rc: 24,
                    t_ras: 17,
                    t_ccd: 2,
                    t_rcd: 7,
                    t_rrd: 4,
                    t_cdlr: 4,
                    t_wl: 2,
                    t_wr: 8,
                    ..DramTimings::default()
                },
                ..GpuConfig::default()
            },
            DramPreset::Hbm2 => GpuConfig {
                num_channels: 8,
                mem_clock_mhz: 1000,
                banks_per_channel: 16,
                bank_groups: 4,
                row_bytes: 1024,
                timings: DramTimings {
                    t_cl: 14,
                    t_rp: 14,
                    t_rc: 47,
                    t_ras: 33,
                    t_ccd: 2,
                    t_rcd: 14,
                    t_rrd: 4,
                    t_cdlr: 6,
                    t_wl: 4,
                    t_wr: 16,
                    ..DramTimings::default()
                },
                ..GpuConfig::default()
            },
        }
    }

    /// The display label (also the CLI/env spelling).
    pub fn label(self) -> &'static str {
        match self {
            DramPreset::Gddr5 => "gddr5",
            DramPreset::Hbm1 => "hbm1",
            DramPreset::Hbm2 => "hbm2",
        }
    }

    /// Every label, in [`DramPreset::ALL`] order.
    pub fn labels() -> Vec<&'static str> {
        DramPreset::ALL.iter().map(|p| p.label()).collect()
    }

    /// Looks a preset up by its (case-insensitive) label.
    pub fn by_label(name: &str) -> Option<DramPreset> {
        DramPreset::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for DramPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timings_match_table_i() {
        let t = DramTimings::default();
        assert_eq!(t.t_cl, 12);
        assert_eq!(t.t_rp, 12);
        assert_eq!(t.t_rc, 40);
        assert_eq!(t.t_ras, 28);
        assert_eq!(t.t_ccd, 2);
        assert_eq!(t.t_rcd, 12);
        assert_eq!(t.t_rrd, 6);
        assert_eq!(t.t_cdlr, 5);
    }

    #[test]
    fn default_gpu_matches_table_i() {
        let g = GpuConfig::default();
        assert_eq!(g.num_sms, 30);
        assert_eq!(g.warps_per_sm, 48);
        assert_eq!(g.num_channels, 6);
        assert_eq!(g.banks_per_channel, 16);
        assert_eq!(g.bank_groups, 4);
        assert_eq!(g.pending_queue_size, 128);
        assert_eq!(g.lines_per_row(), 16);
    }

    #[test]
    fn paper_scheme_constructors() {
        assert_eq!(SchedConfig::static_dms().dms, DmsMode::Static(128));
        assert_eq!(SchedConfig::static_ams().ams, AmsMode::Static(8));
        let combo = SchedConfig::dyn_combo();
        assert!(combo.dms.is_enabled() && combo.ams.is_enabled());
    }

    #[test]
    fn scheme_enum_matches_constructors() {
        assert_eq!(Scheme::Baseline.sched(), SchedConfig::baseline());
        assert_eq!(Scheme::DynCombo.sched(), SchedConfig::dyn_combo());
        for scheme in Scheme::PAPER {
            assert_eq!(Scheme::by_label(scheme.label()), Some(scheme));
        }
        assert_eq!(Scheme::by_label("dyn-dms+dyn-ams"), Some(Scheme::DynCombo));
        assert_eq!(Scheme::by_label("BASELINE"), Some(Scheme::Baseline));
        assert_eq!(Scheme::by_label("telepathy"), None);
        assert_eq!(format!("{}", Scheme::StaticDms), "Static-DMS");
    }

    #[test]
    fn baseline_has_everything_off() {
        let b = SchedConfig::baseline();
        assert!(!b.dms.is_enabled());
        assert!(!b.ams.is_enabled());
        assert!((b.coverage_cap - 0.10).abs() < 1e-12);
    }

    #[test]
    fn dyn_configs_match_paper() {
        let d = DynDmsConfig::default();
        assert_eq!((d.window, d.step, d.start, d.max), (4096, 128, 128, 2048));
        assert_eq!(d.restart_windows, 32);
        let a = DynAmsConfig::default();
        assert_eq!((a.window, a.min_th, a.max_th), (4096, 1, 8));
    }

    #[test]
    fn preset_labels_round_trip() {
        for p in DramPreset::ALL {
            assert_eq!(DramPreset::by_label(p.label()), Some(p));
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!(DramPreset::by_label("HBM2"), Some(DramPreset::Hbm2));
        assert_eq!(DramPreset::by_label("sram"), None);
        assert_eq!(DramPreset::labels().len(), DramPreset::ALL.len());
    }

    #[test]
    fn preset_configs_are_consistent() {
        assert_eq!(DramPreset::Gddr5.gpu_config(), GpuConfig::default());
        for p in DramPreset::ALL {
            let g = p.gpu_config();
            assert_eq!(g.banks_per_channel % g.bank_groups, 0, "{p}");
            assert!(g.lines_per_row() >= 8, "{p}");
        }
    }

    #[test]
    fn small_config_keeps_dram_organization() {
        let g = GpuConfig::small();
        assert_eq!(g.num_channels, GpuConfig::default().num_channels);
        assert_eq!(g.banks_per_channel, GpuConfig::default().banks_per_channel);
        assert!(g.num_sms < GpuConfig::default().num_sms);
    }
}
