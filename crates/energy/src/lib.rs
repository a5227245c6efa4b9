//! GPUWattch-style DRAM energy model with GDDR5 / HBM1 / HBM2 profiles.
//!
//! The paper's headline metric is **row energy** — the energy of the
//! activate / restore / precharge work a bank performs per row cycle — which
//! is directly proportional to the activation count. Access (column/burst)
//! energy and background power complete the per-technology picture, and the
//! HBM profiles reproduce the paper's Section V analysis: row energy is
//! ≈ 50 % of HBM1 memory energy and ≈ 25 % of HBM2 memory energy, so a 44 %
//! row-energy reduction becomes ≈ 22 % / ≈ 11 % memory-energy reduction.
//!
//! # Example
//!
//! ```
//! use lazydram_energy::{EnergyModel, MemoryTech};
//! use lazydram_common::DramStats;
//!
//! let model = EnergyModel::new(MemoryTech::Gddr5);
//! let mut base = DramStats::new();
//! base.activations = 1000;
//! base.reads = 4000;
//! base.mem_cycles = 100_000;
//! let e = model.breakdown(&base);
//! assert!(e.row_energy_pj > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use lazydram_common::{DramPreset, DramStats};

/// Memory technology profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTech {
    /// The paper's baseline: 6-channel GDDR5 (Hynix timings).
    Gddr5,
    /// First-generation High-Bandwidth Memory: row energy ≈ 50 % of memory
    /// system energy (Chatterjee et al., HPCA'17).
    Hbm1,
    /// Second-generation HBM: row energy ≈ 25 % of total (O'Connor et al.,
    /// MICRO'17).
    Hbm2,
}

impl MemoryTech {
    /// The energy profile matching a machine preset of the backend matrix.
    pub fn for_preset(preset: DramPreset) -> Self {
        match preset {
            DramPreset::Gddr5 => MemoryTech::Gddr5,
            DramPreset::Hbm1 => MemoryTech::Hbm1,
            DramPreset::Hbm2 => MemoryTech::Hbm2,
        }
    }
}

/// Per-event energies (picojoules) and background power for one technology.
///
/// Absolute values are representative published figures; all of the paper's
/// results are *normalized*, so only the ratios matter for reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT + restore + PRE round trip, per activation (pJ).
    pub row_pj_per_act: f64,
    /// Energy of one read burst (pJ).
    pub read_pj: f64,
    /// Energy of one write burst (pJ).
    pub write_pj: f64,
    /// Background energy per memory cycle per channel (pJ).
    pub background_pj_per_cycle: f64,
}

impl EnergyParams {
    /// Parameters for a technology.
    pub fn for_tech(tech: MemoryTech) -> Self {
        match tech {
            // GDDR5: ~2 nJ per row cycle of a 2 KB page, ~500 pJ per 32 B
            // burst access pair, modest background (interface-dominated).
            MemoryTech::Gddr5 => Self {
                row_pj_per_act: 2_000.0,
                read_pj: 520.0,
                write_pj: 540.0,
                background_pj_per_cycle: 60.0,
            },
            // HBM1: cheaper I/O (TSV), row energy dominates (~50 %).
            MemoryTech::Hbm1 => Self {
                row_pj_per_act: 1_600.0,
                read_pj: 180.0,
                write_pj: 190.0,
                background_pj_per_cycle: 25.0,
            },
            // HBM2: larger prefetch amortizes row work (~25 %).
            MemoryTech::Hbm2 => Self {
                row_pj_per_act: 900.0,
                read_pj: 200.0,
                write_pj: 210.0,
                background_pj_per_cycle: 40.0,
            },
        }
    }
}

/// An energy breakdown for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Activate/restore/precharge energy (the paper's *row energy*), pJ.
    pub row_energy_pj: f64,
    /// Read+write burst energy, pJ.
    pub access_energy_pj: f64,
    /// Background energy, pJ.
    pub background_pj: f64,
}

impl EnergyBreakdown {
    /// Total memory energy.
    pub fn total_pj(&self) -> f64 {
        self.row_energy_pj + self.access_energy_pj + self.background_pj
    }

    /// Fraction of total energy spent on row operations.
    pub fn row_fraction(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            self.row_energy_pj / t
        }
    }
}

/// The DRAM energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    tech: MemoryTech,
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates the model for a technology.
    pub fn new(tech: MemoryTech) -> Self {
        Self {
            tech,
            params: EnergyParams::for_tech(tech),
        }
    }

    /// The technology this model describes.
    pub fn tech(&self) -> MemoryTech {
        self.tech
    }

    /// The per-event parameters in force.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Computes the energy breakdown of a run from its DRAM statistics.
    pub fn breakdown(&self, stats: &DramStats) -> EnergyBreakdown {
        EnergyBreakdown {
            row_energy_pj: stats.activations as f64 * self.params.row_pj_per_act,
            access_energy_pj: stats.reads as f64 * self.params.read_pj
                + stats.writes as f64 * self.params.write_pj,
            background_pj: stats.mem_cycles as f64 * self.params.background_pj_per_cycle,
        }
    }

    /// Row energy of a run, normalized to a baseline run (the y-axis of
    /// Figures 12(a) and 15(a)). With a fixed per-activation cost this is
    /// exactly the activation ratio.
    pub fn normalized_row_energy(&self, run: &DramStats, baseline: &DramStats) -> f64 {
        let b = self.breakdown(baseline).row_energy_pj;
        if b == 0.0 {
            return 1.0;
        }
        self.breakdown(run).row_energy_pj / b
    }

    /// Memory-*system* energy reduction implied by a row-energy reduction,
    /// per the paper's Section V method: the row fraction of the technology
    /// times the row-energy saving.
    ///
    /// `row_energy_ratio` is run/baseline (e.g. 0.56 for a 44 % reduction).
    pub fn system_energy_reduction(&self, row_energy_ratio: f64) -> f64 {
        self.nominal_row_fraction() * (1.0 - row_energy_ratio)
    }

    /// The technology's nominal row-energy share of memory system energy
    /// (paper: ≈ 50 % for HBM1, ≈ 25 % for HBM2, ~35 % for GDDR5).
    pub fn nominal_row_fraction(&self) -> f64 {
        match self.tech {
            MemoryTech::Gddr5 => 0.35,
            MemoryTech::Hbm1 => 0.50,
            MemoryTech::Hbm2 => 0.25,
        }
    }
}

/// The paper's absolute-saving projections for a high-end GPU card
/// (Section V, "Effect on Memory Energy and Peak Bandwidth"): a 60 W memory
/// power budget at peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardBudget {
    /// Memory power budget at peak bandwidth, watts (paper: 60 W).
    pub memory_power_w: f64,
    /// Peak bandwidth at that budget, GB/s.
    pub peak_bandwidth_gbs: f64,
}

impl Default for CardBudget {
    fn default() -> Self {
        Self {
            memory_power_w: 60.0,
            peak_bandwidth_gbs: 670.0,
        }
    }
}

impl CardBudget {
    /// Absolute memory-power saving (watts) at the same peak bandwidth,
    /// given a memory-*system* energy reduction fraction.
    pub fn power_saving_w(&self, system_energy_reduction: f64) -> f64 {
        self.memory_power_w * system_energy_reduction
    }

    /// Extra peak bandwidth (GB/s) achievable in the *same* power budget:
    /// energy per byte shrank by the reduction factor.
    pub fn bandwidth_headroom_gbs(&self, system_energy_reduction: f64) -> f64 {
        if system_energy_reduction >= 1.0 {
            return f64::INFINITY;
        }
        self.peak_bandwidth_gbs * (1.0 / (1.0 - system_energy_reduction) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(acts: u64, reads: u64, writes: u64, cycles: u64) -> DramStats {
        DramStats {
            activations: acts,
            reads,
            writes,
            mem_cycles: cycles,
            ..DramStats::new()
        }
    }

    #[test]
    fn breakdown_scales_with_counters() {
        let m = EnergyModel::new(MemoryTech::Gddr5);
        let e = m.breakdown(&stats(10, 100, 50, 1000));
        assert_eq!(e.row_energy_pj, 20_000.0);
        assert_eq!(e.access_energy_pj, 100.0 * 520.0 + 50.0 * 540.0);
        assert_eq!(e.background_pj, 60_000.0);
        assert!(e.total_pj() > e.row_energy_pj);
        assert!(e.row_fraction() > 0.0 && e.row_fraction() < 1.0);
    }

    #[test]
    fn normalized_row_energy_is_activation_ratio() {
        let m = EnergyModel::new(MemoryTech::Gddr5);
        let base = stats(1000, 0, 0, 0);
        let run = stats(560, 0, 0, 0);
        assert!((m.normalized_row_energy(&run, &base) - 0.56).abs() < 1e-12);
        // Degenerate baseline.
        assert_eq!(m.normalized_row_energy(&run, &stats(0, 0, 0, 0)), 1.0);
    }

    #[test]
    fn hbm_projections_match_paper_numbers() {
        // Paper: 44 % row-energy reduction → ~22 % on HBM1, ~11 % on HBM2.
        let hbm1 = EnergyModel::new(MemoryTech::Hbm1);
        let hbm2 = EnergyModel::new(MemoryTech::Hbm2);
        assert!((hbm1.system_energy_reduction(0.56) - 0.22).abs() < 1e-12);
        assert!((hbm2.system_energy_reduction(0.56) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn card_budget_reproduces_8w_and_90gbs() {
        // Paper: up to 8 W saving or ~90 GB/s extra peak bandwidth on HBM2.
        let b = CardBudget::default();
        assert!((b.power_saving_w(8.0 / 60.0) - 8.0).abs() < 1e-9);
        let headroom = b.bandwidth_headroom_gbs(0.118);
        assert!(headroom > 85.0 && headroom < 95.0, "{headroom}");
    }

    #[test]
    fn zero_energy_is_sane() {
        let m = EnergyModel::new(MemoryTech::Hbm2);
        let e = m.breakdown(&DramStats::new());
        assert_eq!(e.total_pj(), 0.0);
        assert_eq!(e.row_fraction(), 0.0);
    }

    #[test]
    fn backend_matrix_maps_to_profiles() {
        assert_eq!(MemoryTech::for_preset(DramPreset::Gddr5), MemoryTech::Gddr5);
        assert_eq!(MemoryTech::for_preset(DramPreset::Hbm1), MemoryTech::Hbm1);
        assert_eq!(MemoryTech::for_preset(DramPreset::Hbm2), MemoryTech::Hbm2);
    }

    #[test]
    fn tech_profiles_have_expected_row_dominance_order() {
        let f1 = EnergyModel::new(MemoryTech::Hbm1).nominal_row_fraction();
        let fg = EnergyModel::new(MemoryTech::Gddr5).nominal_row_fraction();
        let f2 = EnergyModel::new(MemoryTech::Hbm2).nominal_row_fraction();
        assert!(f1 > fg && fg > f2);
    }
}
