//! Row-buffer-locality histograms and aggregate simulation statistics.
//!
//! Terminology (Section II-D of the paper):
//!
//! * **RBL(X)** — X requests were served back-to-back from one row activation
//!   before the row was closed.
//! * **Avg-RBL** — total requests / total activations.
//! * **Coverage** — fraction of global read requests dropped (approximated)
//!   instead of being served by DRAM.

/// Histogram of row activations keyed by the RBL they achieved.
///
/// `hist[k]` counts activations that served exactly `k` requests; index 0 is
/// unused for closed activations (an activation serves ≥ 1 request) but kept
/// so that `hist[rbl]` indexes naturally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RblHistogram {
    hist: Vec<u64>,
}

impl RblHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one closed activation that served `rbl` requests.
    pub fn record(&mut self, rbl: u32) {
        let idx = rbl as usize;
        if self.hist.len() <= idx {
            self.hist.resize(idx + 1, 0);
        }
        self.hist[idx] += 1;
    }

    /// Number of activations with exactly this RBL.
    pub fn count(&self, rbl: u32) -> u64 {
        self.hist.get(rbl as usize).copied().unwrap_or(0)
    }

    /// Number of activations with RBL in the inclusive range `[lo, hi]`
    /// (the paper's `RBL(lo - hi)` notation).
    pub fn count_range(&self, lo: u32, hi: u32) -> u64 {
        (lo..=hi).map(|k| self.count(k)).sum()
    }

    /// Total number of recorded activations.
    pub fn activations(&self) -> u64 {
        self.hist.iter().sum()
    }

    /// Total number of requests served by the recorded activations.
    pub fn requests(&self) -> u64 {
        self.hist
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum()
    }

    /// Average RBL: requests / activations. Returns 0 when empty.
    pub fn avg_rbl(&self) -> f64 {
        let acts = self.activations();
        if acts == 0 {
            0.0
        } else {
            self.requests() as f64 / acts as f64
        }
    }

    /// Largest RBL value recorded, or 0 when empty.
    pub fn max_rbl(&self) -> u32 {
        self.hist
            .iter()
            .rposition(|&n| n > 0)
            .map(|i| i as u32)
            .unwrap_or(0)
    }

    /// Iterates `(rbl, activation_count)` pairs with non-zero counts,
    /// in increasing RBL order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.hist
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (k as u32, n))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &RblHistogram) {
        for (rbl, n) in other.iter() {
            let idx = rbl as usize;
            if self.hist.len() <= idx {
                self.hist.resize(idx + 1, 0);
            }
            self.hist[idx] += n;
        }
    }

    /// Serializes the histogram into a snapshot.
    pub fn save_state(&self, s: &mut crate::snap::Saver) {
        s.u64s("hist", &self.hist);
    }

    /// Reads the histogram back from a snapshot (a result-store entry).
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot bytes are malformed.
    pub fn load_state(&mut self, l: &mut crate::snap::Loader<'_>) -> crate::snap::SnapResult<()> {
        l.u64s("hist", &mut self.hist)
    }

    /// The cumulative-distribution curve of Figure 6: walking activations in
    /// increasing-RBL order, yields one point per RBL bucket:
    /// `(requests_fraction_so_far, activations_fraction_so_far, rbl)`.
    ///
    /// Fractions are relative to `total_requests` / `total_activations`,
    /// which callers pass so the curve can be normalized against a *larger*
    /// population (e.g. read-only activations vs all activations).
    pub fn cumulative_curve(
        &self,
        total_requests: u64,
        total_activations: u64,
    ) -> Vec<(f64, f64, u32)> {
        let mut out = Vec::new();
        let mut req = 0u64;
        let mut act = 0u64;
        for (rbl, n) in self.iter() {
            req += rbl as u64 * n;
            act += n;
            out.push((
                req as f64 / total_requests.max(1) as f64,
                act as f64 / total_activations.max(1) as f64,
                rbl,
            ));
        }
        out
    }
}

/// Counters maintained by one DRAM channel + its memory controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Memory cycles elapsed.
    pub mem_cycles: u64,
    /// Row activations issued (`ACT` commands).
    pub activations: u64,
    /// Precharges issued (`PRE` commands).
    pub precharges: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Requests that hit an already-open row.
    pub row_hits: u64,
    /// Requests that required opening a row.
    pub row_misses: u64,
    /// Memory cycles during which the data bus carried a burst.
    pub bus_busy_cycles: u64,
    /// Requests received by the controller (entered the pending queue).
    pub requests_received: u64,
    /// Global read requests received (denominator of coverage).
    pub global_reads_received: u64,
    /// Requests dropped by AMS (numerator of coverage).
    pub dropped: u64,
    /// RBL histogram over all closed activations.
    pub rbl: RblHistogram,
    /// RBL histogram over closed activations that served only global reads
    /// (the population AMS targets; used by Figure 6).
    pub rbl_read_only: RblHistogram,
}

impl DramStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prediction coverage achieved so far: dropped / global reads received.
    pub fn coverage(&self) -> f64 {
        if self.global_reads_received == 0 {
            0.0
        } else {
            self.dropped as f64 / self.global_reads_received as f64
        }
    }

    /// DRAM data-bus utilization: busy cycles / elapsed cycles.
    pub fn bw_util(&self) -> f64 {
        if self.mem_cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.mem_cycles as f64
        }
    }

    /// Requests served by DRAM (excludes dropped ones).
    pub fn served(&self) -> u64 {
        self.reads + self.writes
    }

    /// Average RBL over served requests (Section II-D).
    pub fn avg_rbl(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.served() as f64 / self.activations as f64
        }
    }

    /// Serializes the scalar counters as a JSON object (histograms are
    /// summarized by `avg_rbl`/`max_rbl`; the full histogram stays in-process).
    pub fn to_json(&self) -> String {
        let mut o = crate::json::JsonObject::new();
        o.u64("mem_cycles", self.mem_cycles)
            .u64("activations", self.activations)
            .u64("precharges", self.precharges)
            .u64("reads", self.reads)
            .u64("writes", self.writes)
            .u64("row_hits", self.row_hits)
            .u64("row_misses", self.row_misses)
            .u64("bus_busy_cycles", self.bus_busy_cycles)
            .u64("requests_received", self.requests_received)
            .u64("global_reads_received", self.global_reads_received)
            .u64("dropped", self.dropped)
            .f64("avg_rbl", self.avg_rbl())
            .u64("max_rbl", u64::from(self.rbl.max_rbl()));
        o.finish()
    }

    /// Serializes the counters and histograms into a snapshot.
    pub fn save_state(&self, s: &mut crate::snap::Saver) {
        s.u64("mem_cycles", self.mem_cycles);
        s.u64("activations", self.activations);
        s.u64("precharges", self.precharges);
        s.u64("reads", self.reads);
        s.u64("writes", self.writes);
        s.u64("row_hits", self.row_hits);
        s.u64("row_misses", self.row_misses);
        s.u64("bus_busy_cycles", self.bus_busy_cycles);
        s.u64("requests_received", self.requests_received);
        s.u64("global_reads_received", self.global_reads_received);
        s.u64("dropped", self.dropped);
        self.rbl.save_state(s);
        self.rbl_read_only.save_state(s);
    }

    /// Reads the counters and histograms back from a snapshot (a
    /// result-store entry).
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot bytes are malformed.
    pub fn load_state(&mut self, l: &mut crate::snap::Loader<'_>) -> crate::snap::SnapResult<()> {
        self.mem_cycles = l.u64("mem_cycles")?;
        self.activations = l.u64("activations")?;
        self.precharges = l.u64("precharges")?;
        self.reads = l.u64("reads")?;
        self.writes = l.u64("writes")?;
        self.row_hits = l.u64("row_hits")?;
        self.row_misses = l.u64("row_misses")?;
        self.bus_busy_cycles = l.u64("bus_busy_cycles")?;
        self.requests_received = l.u64("requests_received")?;
        self.global_reads_received = l.u64("global_reads_received")?;
        self.dropped = l.u64("dropped")?;
        self.rbl.load_state(l)?;
        self.rbl_read_only.load_state(l)
    }

    /// Merges per-channel statistics into an aggregate.
    pub fn merge(&mut self, other: &DramStats) {
        self.mem_cycles = self.mem_cycles.max(other.mem_cycles);
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.requests_received += other.requests_received;
        self.global_reads_received += other.global_reads_received;
        self.dropped += other.dropped;
        self.rbl.merge(&other.rbl);
        self.rbl_read_only.merge(&other.rbl_read_only);
    }
}

/// Whole-simulation statistics, aggregated over all SMs and channels.
///
/// Equality compares every *simulation* field and deliberately ignores
/// [`SimStats::prof`]: wall-clock attribution is nondeterministic, and the
/// suite's bit-identity checks (`==` on `SimStats`) must keep holding with
/// profiling enabled.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Core cycles the simulation ran for.
    pub core_cycles: u64,
    /// Warp instructions retired across all SMs.
    pub instructions: u64,
    /// L1 hits / misses across all SMs.
    pub l1_hits: u64,
    /// L1 misses across all SMs.
    pub l1_misses: u64,
    /// L2 hits across all slices.
    pub l2_hits: u64,
    /// L2 misses across all slices.
    pub l2_misses: u64,
    /// Loads whose value was approximated by the VP unit.
    pub approximated_loads: u64,
    /// Core cycles the event-driven loop fast-forwarded over without
    /// executing any component (zero under the reference loop).
    pub cycles_skipped: u64,
    /// The subset of `cycles_skipped` spanning *busy* cycles: spans where at
    /// least one SM's `Computing` warps were advanced analytically instead
    /// of being provably idle. Zero under the reference loop.
    pub compute_cycles_skipped: u64,
    /// Core cycles actually executed by the master loop. Under the
    /// reference loop this equals `core_cycles`; under the fast loop,
    /// `ticks_executed + cycles_skipped` covers the simulated span.
    pub ticks_executed: u64,
    /// Diagnostic: AMS decline-reason histogram summed over controllers
    /// (indexed by the scheduler crate's `AmsDecline`); empty when AMS off.
    pub ams_declines: Vec<u64>,
    /// Diagnostic: AMS accepted drop decisions.
    pub ams_accepts: u64,
    /// Aggregated DRAM statistics over all channels.
    pub dram: DramStats,
    /// Wall-clock phase breakdown from the self-profiler; empty unless the
    /// `prof` feature of this crate is enabled. Excluded from `==`.
    pub prof: crate::prof::ProfReport,
}

impl PartialEq for SimStats {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructure: adding a field without deciding whether it
        // participates in equality fails to compile. `prof` is wall-clock
        // and intentionally ignored.
        let Self {
            core_cycles,
            instructions,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            approximated_loads,
            cycles_skipped,
            compute_cycles_skipped,
            ticks_executed,
            ams_declines,
            ams_accepts,
            dram,
            prof: _,
        } = self;
        *core_cycles == other.core_cycles
            && *instructions == other.instructions
            && *l1_hits == other.l1_hits
            && *l1_misses == other.l1_misses
            && *l2_hits == other.l2_hits
            && *l2_misses == other.l2_misses
            && *approximated_loads == other.approximated_loads
            && *cycles_skipped == other.cycles_skipped
            && *compute_cycles_skipped == other.compute_cycles_skipped
            && *ticks_executed == other.ticks_executed
            && *ams_declines == other.ams_declines
            && *ams_accepts == other.ams_accepts
            && *dram == other.dram
    }
}

impl SimStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of simulated core cycles that were fast-forwarded.
    pub fn skip_fraction(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / self.core_cycles as f64
        }
    }

    /// The subset of `cycles_skipped` spanning provably *idle* cycles — the
    /// PR 2 skipper's territory, as opposed to analytically replayed
    /// compute bursts.
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.cycles_skipped - self.compute_cycles_skipped
    }

    /// Fraction of simulated core cycles fast-forwarded through *busy*
    /// compute bursts (analytic round-robin replay rather than idleness).
    pub fn compute_skip_fraction(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.compute_cycles_skipped as f64 / self.core_cycles as f64
        }
    }

    /// Instructions per core cycle.
    pub fn ipc(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.core_cycles as f64
        }
    }

    /// Serializes the statistics into a snapshot. The wall-clock `prof`
    /// report is intentionally excluded (it is nondeterministic and already
    /// excluded from `==`).
    pub fn save_state(&self, s: &mut crate::snap::Saver) {
        let Self {
            core_cycles,
            instructions,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            approximated_loads,
            cycles_skipped,
            compute_cycles_skipped,
            ticks_executed,
            ams_declines,
            ams_accepts,
            dram,
            prof: _,
        } = self;
        s.u64("core_cycles", *core_cycles);
        s.u64("instructions", *instructions);
        s.u64("l1_hits", *l1_hits);
        s.u64("l1_misses", *l1_misses);
        s.u64("l2_hits", *l2_hits);
        s.u64("l2_misses", *l2_misses);
        s.u64("approximated_loads", *approximated_loads);
        s.u64("cycles_skipped", *cycles_skipped);
        s.u64("compute_cycles_skipped", *compute_cycles_skipped);
        s.u64("ticks_executed", *ticks_executed);
        s.u64s("ams_declines", ams_declines);
        s.u64("ams_accepts", *ams_accepts);
        dram.save_state(s);
    }

    /// Reads the statistics back from a snapshot (a result-store entry;
    /// `prof` is left untouched).
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot bytes are malformed.
    pub fn load_state(&mut self, l: &mut crate::snap::Loader<'_>) -> crate::snap::SnapResult<()> {
        self.core_cycles = l.u64("core_cycles")?;
        self.instructions = l.u64("instructions")?;
        self.l1_hits = l.u64("l1_hits")?;
        self.l1_misses = l.u64("l1_misses")?;
        self.l2_hits = l.u64("l2_hits")?;
        self.l2_misses = l.u64("l2_misses")?;
        self.approximated_loads = l.u64("approximated_loads")?;
        self.cycles_skipped = l.u64("cycles_skipped")?;
        self.compute_cycles_skipped = l.u64("compute_cycles_skipped")?;
        self.ticks_executed = l.u64("ticks_executed")?;
        l.u64s("ams_declines", &mut self.ams_declines)?;
        self.ams_accepts = l.u64("ams_accepts")?;
        self.dram.load_state(l)
    }

    /// Serializes the whole-simulation statistics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::JsonObject::new();
        o.u64("core_cycles", self.core_cycles)
            .u64("instructions", self.instructions)
            .u64("l1_hits", self.l1_hits)
            .u64("l1_misses", self.l1_misses)
            .u64("l2_hits", self.l2_hits)
            .u64("l2_misses", self.l2_misses)
            .u64("approximated_loads", self.approximated_loads)
            .u64("cycles_skipped", self.cycles_skipped)
            .u64("compute_cycles_skipped", self.compute_cycles_skipped)
            .u64("ticks_executed", self.ticks_executed)
            .u64("ams_accepts", self.ams_accepts)
            .u64_array("ams_declines", &self.ams_declines)
            .raw("dram", &self.dram.to_json());
        if !self.prof.is_empty() {
            o.raw("prof", &self.prof.to_json());
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_avg() {
        let mut h = RblHistogram::new();
        h.record(1);
        h.record(1);
        h.record(4);
        assert_eq!(h.activations(), 3);
        assert_eq!(h.requests(), 6);
        assert!((h.avg_rbl() - 2.0).abs() < 1e-12);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.count_range(1, 8), 3);
        assert_eq!(h.count_range(2, 8), 1);
        assert_eq!(h.max_rbl(), 4);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = RblHistogram::new();
        assert_eq!(h.activations(), 0);
        assert_eq!(h.avg_rbl(), 0.0);
        assert_eq!(h.max_rbl(), 0);
        assert!(h.cumulative_curve(0, 0).is_empty());
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = RblHistogram::new();
        a.record(1);
        let mut b = RblHistogram::new();
        b.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(9), 1);
        assert_eq!(a.activations(), 3);
    }

    #[test]
    fn cumulative_curve_is_monotone_and_ends_at_one() {
        let mut h = RblHistogram::new();
        for _ in 0..10 {
            h.record(1);
        }
        for _ in 0..5 {
            h.record(2);
        }
        h.record(20);
        let curve = h.cumulative_curve(h.requests(), h.activations());
        assert_eq!(curve.len(), 3);
        let mut prev = (0.0, 0.0);
        for &(x, y, _) in &curve {
            assert!(x >= prev.0 && y >= prev.1, "curve must be monotone");
            prev = (x, y);
        }
        let last = curve.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12);
        assert!((last.1 - 1.0).abs() < 1e-12);
        // Low-RBL activations dominate the activation count but not requests:
        // first point (RBL 1) has y ≫ x.
        assert!(curve[0].1 > curve[0].0);
    }

    #[test]
    fn coverage_and_bwutil() {
        let mut d = DramStats::new();
        assert_eq!(d.coverage(), 0.0);
        assert_eq!(d.bw_util(), 0.0);
        d.global_reads_received = 100;
        d.dropped = 10;
        d.mem_cycles = 1000;
        d.bus_busy_cycles = 400;
        assert!((d.coverage() - 0.10).abs() < 1e-12);
        assert!((d.bw_util() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn dram_merge_accumulates() {
        let mut a = DramStats::new();
        a.activations = 5;
        a.mem_cycles = 10;
        let mut b = DramStats::new();
        b.activations = 7;
        b.mem_cycles = 20;
        a.merge(&b);
        assert_eq!(a.activations, 12);
        assert_eq!(a.mem_cycles, 20, "cycles take the max, not the sum");
    }

    #[test]
    fn ipc_zero_when_no_cycles() {
        let mut s = SimStats::new();
        assert_eq!(s.ipc(), 0.0);
        s.core_cycles = 100;
        s.instructions = 250;
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }
}
