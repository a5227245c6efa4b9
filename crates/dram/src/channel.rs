//! One DRAM channel: banks + shared command/data buses + statistics.

use crate::bank::{Bank, BankState};
use lazydram_common::snap::Saver;
use lazydram_common::{AccessKind, DramStats, DramTimings, GpuConfig};

/// A banked DRAM channel (GDDR5, or HBM under its timing package) with
/// `banks_per_channel` banks in `bank_groups` groups.
///
/// The channel enforces the *inter*-bank and bus-level constraints; per-bank
/// constraints live in [`Bank`]. All times are memory cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    timings: DramTimings,
    banks: Vec<Bank>,
    banks_per_group: usize,
    /// Bit `b` set iff bank `b` has an open row. Derived from `banks`
    /// (maintained by `activate`/`precharge`/`drain`, never serialized);
    /// lets per-cycle scans visit only open banks.
    open_banks: u64,
    /// Earliest cycle the next `ACT` to *any* bank is legal (tRRD).
    next_act_ok: u64,
    /// Cycle of the most recent command, for the 1-command/cycle bus.
    last_cmd_cycle: Option<u64>,
    /// First cycle at which the data bus is free again.
    bus_free: u64,
    /// End cycle of the most recent write burst (for the tCDLR turnaround).
    last_write_data_end: Option<u64>,
    /// Ring buffer of the four most recent `ACT` times (tFAW extension);
    /// `act_ring_idx` points at the oldest entry (next to be overwritten).
    act_ring: [u64; 4],
    act_ring_idx: usize,
    acts_seen: u64,
    /// Most recent CAS `(cycle, bank_group)` for the tCCDL extension.
    last_cas: Option<(u64, usize)>,
    /// Next cycle an all-bank refresh falls due (tREFI extension; `u64::MAX`
    /// when refresh is disabled).
    refresh_due: u64,
    /// End of an in-progress refresh; all commands stall until then.
    refresh_until: u64,
    /// All-bank refreshes performed.
    refreshes: u64,
    stats: DramStats,
}

impl Channel {
    /// Creates an idle channel per the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            cfg.banks_per_channel <= 64,
            "the open-bank bitmask caps a channel at 64 banks"
        );
        Self {
            timings: cfg.timings,
            banks: (0..cfg.banks_per_channel).map(|_| Bank::new()).collect(),
            banks_per_group: cfg.banks_per_channel / cfg.bank_groups,
            open_banks: 0,
            next_act_ok: 0,
            last_cmd_cycle: None,
            bus_free: 0,
            last_write_data_end: None,
            act_ring: [0; 4],
            act_ring_idx: 0,
            acts_seen: 0,
            last_cas: None,
            refresh_due: if cfg.timings.t_refi > 0 {
                u64::from(cfg.timings.t_refi)
            } else {
                u64::MAX
            },
            refresh_until: 0,
            refreshes: 0,
            stats: DramStats::new(),
        }
    }

    /// Number of banks in this channel.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Banks per bank group.
    pub fn banks_per_group(&self) -> usize {
        self.banks_per_group
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.banks[bank].open_row()
    }

    /// Bitmask of banks with an open row (bit `b` ⇔ `open_row(b).is_some()`).
    pub fn open_banks(&self) -> u64 {
        self.open_banks
    }

    /// Read-only view of a bank.
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// Accumulated channel statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Mutable statistics handle, used by the memory controller to account
    /// controller-side events (requests received, drops) in the same record.
    pub fn stats_mut(&mut self) -> &mut DramStats {
        &mut self.stats
    }

    /// Advances the channel's notion of elapsed time (sets
    /// [`DramStats::mem_cycles`]); call once per memory cycle.
    pub fn advance_to(&mut self, now: u64) {
        self.stats.mem_cycles = self.stats.mem_cycles.max(now);
    }

    fn cmd_bus_free(&self, now: u64) -> bool {
        self.last_cmd_cycle.is_none_or(|c| c < now)
    }

    /// The first cycle the command bus is free again.
    fn cmd_bus_ready_at(&self) -> u64 {
        self.last_cmd_cycle.map_or(0, |c| c + 1)
    }

    /// The first cycle from which [`Channel::can_activate`] holds for
    /// `bank` if no command is issued before then: the latest of the
    /// refresh stall, tFAW, the command bus, tRRD and the bank's own
    /// tRP/tRC (`u64::MAX` while the bank is open).
    pub fn activate_ready_at(&self, bank: usize) -> u64 {
        let mut t = self
            .refresh_until
            .max(self.cmd_bus_ready_at())
            .max(self.next_act_ok)
            .max(self.banks[bank].act_ready_at());
        if self.timings.t_faw > 0 && self.acts_seen >= 4 {
            t = t.max(self.act_ring[self.act_ring_idx] + u64::from(self.timings.t_faw));
        }
        t
    }

    /// The first cycle from which [`Channel::can_precharge`] holds for
    /// `bank` if no command is issued before then (`u64::MAX` while the
    /// bank is closed).
    pub fn precharge_ready_at(&self, bank: usize) -> u64 {
        self.cmd_bus_ready_at().max(self.banks[bank].pre_ready_at())
    }

    /// A cycle before which no CAS to any bank is legal: the channel-wide
    /// part of [`Channel::cas_ready_at`] (refresh stall, command bus, data
    /// bus under the longest CAS latency).
    pub fn cas_floor(&self) -> u64 {
        self.refresh_until
            .max(self.cmd_bus_ready_at())
            .max(self.bus_free.saturating_sub(self.max_cas_latency()))
    }

    /// The first cycle from which [`Channel::can_cas`] holds for a `kind`
    /// access to `bank` if no command is issued before then: the latest of
    /// the refresh stall, the command bus, tRCD, the tCCD/tCCDL gap, the
    /// data bus and (for reads) the tCDLR turnaround (`u64::MAX` while the
    /// bank is closed).
    pub fn cas_ready_at(&self, bank: usize, kind: AccessKind) -> u64 {
        let mut t = self
            .refresh_until
            .max(self.cmd_bus_ready_at())
            .max(self.banks[bank].cas_ready_at())
            .max(self.bus_free.saturating_sub(self.cas_latency(kind)));
        if self.timings.t_ccdl > 0 {
            if let Some((c, group)) = self.last_cas {
                let gap = if group == bank / self.banks_per_group {
                    self.timings.t_ccdl
                } else {
                    self.timings.t_ccd
                };
                t = t.max(c + u64::from(gap));
            }
        }
        if kind == AccessKind::Read {
            if let Some(wend) = self.last_write_data_end {
                t = t.max(wend + u64::from(self.timings.t_cdlr));
            }
        }
        t
    }

    /// Is an `ACT` of any row of `bank` legal at `now`?
    pub fn can_activate(&self, bank: usize, now: u64) -> bool {
        if now < self.refresh_until {
            return false;
        }
        if self.timings.t_faw > 0 && self.acts_seen >= 4 {
            // At most four ACTs per rolling tFAW window: the fifth must wait
            // until tFAW past the fourth-most-recent one.
            let oldest = self.act_ring[self.act_ring_idx];
            if now < oldest + u64::from(self.timings.t_faw) {
                return false;
            }
        }
        self.cmd_bus_free(now) && now >= self.next_act_ok && self.banks[bank].can_activate(now)
    }

    /// Issues `ACT bank,row` at `now`.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Channel::can_activate`] is false at `now`.
    pub fn activate(&mut self, bank: usize, row: u32, now: u64) {
        debug_assert!(self.can_activate(bank, now), "illegal ACT at {now}");
        self.banks[bank].activate(row, now, &self.timings);
        self.open_banks |= 1 << bank;
        self.next_act_ok = now + u64::from(self.timings.t_rrd);
        self.last_cmd_cycle = Some(now);
        // Rotate the tFAW ring: overwrite the oldest entry.
        self.act_ring[self.act_ring_idx] = now;
        self.act_ring_idx = (self.act_ring_idx + 1) % 4;
        self.acts_seen += 1;
        self.stats.activations += 1;
    }

    /// Is a `PRE` of `bank` legal at `now`?
    pub fn can_precharge(&self, bank: usize, now: u64) -> bool {
        self.cmd_bus_free(now) && self.banks[bank].can_precharge(now)
    }

    /// Issues `PRE bank` at `now`, recording the finished activation's RBL.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Channel::can_precharge`] is false at `now`.
    pub fn precharge(&mut self, bank: usize, now: u64) {
        debug_assert!(self.can_precharge(bank, now), "illegal PRE at {now}");
        let rec = self.banks[bank].precharge(now, &self.timings);
        self.open_banks &= !(1 << bank);
        self.last_cmd_cycle = Some(now);
        self.stats.precharges += 1;
        self.record_closed(rec.served, rec.read_only);
    }

    fn record_closed(&mut self, served: u32, read_only: bool) {
        if served > 0 {
            self.stats.rbl.record(served);
            if read_only {
                self.stats.rbl_read_only.record(served);
            }
        }
    }

    /// Is a CAS (`RD`/`WR`) to the open row of `bank` legal at `now`?
    ///
    /// Checks per-bank tRCD, the command bus, the shared data bus, and the
    /// write→read tCDLR turnaround.
    pub fn can_cas(&self, bank: usize, kind: AccessKind, now: u64) -> bool {
        if now < self.refresh_until {
            return false;
        }
        if !self.cmd_bus_free(now) || !self.banks[bank].can_cas(now) {
            return false;
        }
        if self.timings.t_ccdl > 0 {
            if let Some((t, group)) = self.last_cas {
                let same_group = group == bank / self.banks_per_group;
                let gap = if same_group {
                    u64::from(self.timings.t_ccdl)
                } else {
                    u64::from(self.timings.t_ccd)
                };
                if now < t + gap {
                    return false;
                }
            }
        }
        let data_start = now + self.cas_latency(kind);
        if data_start < self.bus_free {
            return false;
        }
        if kind == AccessKind::Read {
            if let Some(wend) = self.last_write_data_end {
                if now < wend + u64::from(self.timings.t_cdlr) {
                    return false;
                }
            }
        }
        true
    }

    /// The longer of the two CAS latencies, tCL and tWL.
    fn max_cas_latency(&self) -> u64 {
        u64::from(self.timings.t_cl.max(self.timings.t_wl))
    }

    fn cas_latency(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => u64::from(self.timings.t_cl),
            AccessKind::Write => u64::from(self.timings.t_wl),
        }
    }

    /// Issues a CAS at `now`; returns the cycle at which the data burst
    /// completes (data available to the controller for reads; write retired
    /// for writes). `global_read` marks requests that keep an activation in
    /// AMS's read-only population.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Channel::can_cas`] is false at `now`.
    pub fn cas(&mut self, bank: usize, kind: AccessKind, global_read: bool, now: u64) -> u64 {
        debug_assert!(self.can_cas(bank, kind, now), "illegal CAS at {now}");
        // Row hit iff this activation already served at least one request.
        let first = self.banks[bank]
            .activation()
            .map(|r| r.served == 0)
            .unwrap_or(true);
        if first {
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        self.banks[bank].cas(kind, global_read, now, &self.timings);
        self.last_cmd_cycle = Some(now);
        let data_start = now + self.cas_latency(kind);
        let data_end = data_start + u64::from(self.timings.t_ccd);
        self.bus_free = data_end;
        self.last_cas = Some((now, bank / self.banks_per_group));
        self.stats.bus_busy_cycles += u64::from(self.timings.t_ccd);
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => {
                self.stats.writes += 1;
                self.last_write_data_end = Some(data_end);
            }
        }
        data_end
    }

    /// `true` when an all-bank refresh is due (the refresh extension is
    /// enabled and tREFI has elapsed since the previous refresh).
    pub fn refresh_due(&self, now: u64) -> bool {
        now >= self.refresh_due
    }

    /// The absolute memory cycle at which the next refresh falls due
    /// (`u64::MAX` when the refresh extension is disabled).
    pub fn refresh_due_at(&self) -> u64 {
        self.refresh_due
    }

    /// Is an all-bank `REF` legal at `now`? All banks must be precharged.
    pub fn can_refresh(&self, now: u64) -> bool {
        now >= self.refresh_until
            && self.cmd_bus_free(now)
            && self.banks.iter().all(|b| b.state() == BankState::Closed)
    }

    /// Issues an all-bank refresh at `now`; every command stalls for tRFC.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Channel::can_refresh`] is false at `now`.
    pub fn refresh(&mut self, now: u64) {
        debug_assert!(self.can_refresh(now), "illegal REF at {now}");
        self.last_cmd_cycle = Some(now);
        self.refresh_until = now + u64::from(self.timings.t_rfc);
        self.refresh_due = now + u64::from(self.timings.t_refi).max(1);
        self.refreshes += 1;
    }

    /// All-bank refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Serializes the full channel state (banks, bus bookkeeping, refresh
    /// FSM, statistics) into a snapshot. Timings and geometry are
    /// configuration and are *not* serialized.
    pub fn save_state(&self, s: &mut Saver) {
        s.seq("banks", self.banks.len());
        for (i, b) in self.banks.iter().enumerate() {
            s.frame("bank", i as u32, |s| b.save_state(s));
        }
        s.u64("next_act_ok", self.next_act_ok);
        s.bool("has_last_cmd", self.last_cmd_cycle.is_some());
        s.u64("last_cmd_cycle", self.last_cmd_cycle.unwrap_or(0));
        s.u64("bus_free", self.bus_free);
        s.bool("has_last_write_end", self.last_write_data_end.is_some());
        s.u64("last_write_data_end", self.last_write_data_end.unwrap_or(0));
        s.u64s("act_ring", &self.act_ring);
        s.usize("act_ring_idx", self.act_ring_idx);
        s.u64("acts_seen", self.acts_seen);
        match self.last_cas {
            None => s.bool("has_last_cas", false),
            Some((t, group)) => {
                s.bool("has_last_cas", true);
                s.u64("last_cas_cycle", t);
                s.usize("last_cas_group", group);
            }
        }
        s.u64("refresh_due", self.refresh_due);
        s.u64("refresh_until", self.refresh_until);
        s.u64("refreshes", self.refreshes);
        s.frame("stat", 0, |s| self.stats.save_state(s));
    }

    /// Closes every open row *without* timing checks, flushing their RBL into
    /// the histograms. Call exactly once, at the end of a simulation.
    pub fn drain(&mut self) {
        for i in 0..self.banks.len() {
            if matches!(self.banks[i].state(), BankState::Open { .. }) {
                // Bypass timing: the simulation is over; we only need stats.
                let rec = {
                    let bank = &mut self.banks[i];
                    // Force-precharge by rebuilding the bank closed.
                    let rec = *bank.activation().expect("open bank has record");
                    *bank = Bank::new();
                    rec
                };
                self.stats.precharges += 1;
                self.record_closed(rec.served, rec.read_only);
            }
        }
        self.open_banks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Channel {
        Channel::new(&GpuConfig::default())
    }

    #[test]
    fn trrd_blocks_back_to_back_acts_across_banks() {
        let mut c = ch();
        c.activate(0, 1, 0);
        assert!(!c.can_activate(1, 5), "tRRD=6 must block");
        assert!(c.can_activate(1, 6));
        c.activate(1, 1, 6);
        assert_eq!(c.stats().activations, 2);
    }

    #[test]
    fn command_bus_allows_one_command_per_cycle() {
        let mut c = ch();
        c.activate(0, 1, 10);
        // Same cycle: even an otherwise-legal PRE/ACT elsewhere must wait.
        assert!(!c.can_activate(1, 10));
        assert!(!c.can_cas(0, AccessKind::Read, 10));
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.activate(4, 1, 6); // different bank group
        let t1 = c.cas(0, AccessKind::Read, true, 18); // both banks past tRCD
        assert_eq!(t1, 18 + 12 + 2);
        // Next CAS's data (now + tCL) must not start before bus_free (32):
        // legal from now = 20 on.
        assert!(!c.can_cas(4, AccessKind::Read, 19));
        assert!(c.can_cas(4, AccessKind::Read, 20));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Write, false, 12); // data 16..18
                                                // Read CAS must wait until 18 + tCDLR(5) = 23.
        assert!(!c.can_cas(0, AccessKind::Read, 22));
        assert!(c.can_cas(0, AccessKind::Read, 23));
    }

    #[test]
    fn row_hit_miss_accounting() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Read, true, 12);
        c.cas(0, AccessKind::Read, true, 14);
        c.cas(0, AccessKind::Read, true, 16);
        assert_eq!(c.stats().row_misses, 1);
        assert_eq!(c.stats().row_hits, 2);
    }

    #[test]
    fn precharge_records_rbl() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Read, true, 12);
        c.cas(0, AccessKind::Read, true, 14);
        c.precharge(0, 28);
        assert_eq!(c.stats().rbl.count(2), 1);
        assert_eq!(c.stats().rbl_read_only.count(2), 1);
        assert_eq!(c.stats().precharges, 1);
    }

    #[test]
    fn write_activation_not_in_read_only_histogram() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Write, false, 12);
        c.precharge(0, 30);
        assert_eq!(c.stats().rbl.count(1), 1);
        assert_eq!(c.stats().rbl_read_only.activations(), 0);
    }

    #[test]
    fn drain_flushes_open_rows() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Read, true, 12);
        c.drain();
        assert_eq!(c.stats().rbl.count(1), 1);
        assert_eq!(c.open_row(0), None);
        assert_eq!(c.stats().precharges, 1);
    }

    #[test]
    fn bus_busy_cycles_track_bursts() {
        let mut c = ch();
        c.activate(0, 1, 0);
        c.cas(0, AccessKind::Read, true, 12);
        c.cas(0, AccessKind::Read, true, 14);
        assert_eq!(c.stats().bus_busy_cycles, 4); // 2 bursts × tCCD(2)
    }

    #[test]
    fn tfaw_blocks_fifth_activation_in_window() {
        // A tFAW large enough to dominate the tRRD chain (4 × 6 = 24).
        let g = GpuConfig {
            timings: DramTimings {
                t_faw: 60,
                ..DramTimings::default()
            },
            ..GpuConfig::default()
        };
        let mut c = Channel::new(&g);
        let mut now = 0;
        for bank in 0..4 {
            while !c.can_activate(bank, now) {
                now += 1;
            }
            c.activate(bank, 1, now);
        }
        assert_eq!(now, 18, "four ACTs land at 0, 6, 12, 18 under tRRD");
        let fifth_earliest = {
            let mut t = now + 1;
            while !c.can_activate(4, t) {
                t += 1;
            }
            t
        };
        // First ACT at cycle 0 → the window opens at tFAW = 60.
        assert_eq!(fifth_earliest, 60, "tFAW must gate the fifth ACT");
    }

    #[test]
    fn tccdl_separates_same_group_bursts() {
        let g = GpuConfig {
            timings: DramTimings {
                t_ccdl: 4,
                ..DramTimings::default()
            },
            ..GpuConfig::default()
        };
        let mut c = Channel::new(&g);
        c.activate(0, 1, 0); // group 0
        c.activate(1, 1, 6); // bank 1 is also group 0 (banks 0-3)
        c.activate(4, 1, 12); // group 1
        c.cas(0, AccessKind::Read, true, 18);
        // Same group: must wait t_ccdl (4); other group: t_ccd (2)… but the
        // shared data bus also enforces 2, so test the same-group gap.
        assert!(!c.can_cas(1, AccessKind::Read, 20), "tCCDL gap");
        assert!(c.can_cas(1, AccessKind::Read, 22));
    }

    #[test]
    fn refresh_stalls_and_recurs() {
        let g = GpuConfig {
            timings: DramTimings {
                t_refi: 100,
                t_rfc: 20,
                ..DramTimings::default()
            },
            ..GpuConfig::default()
        };
        let mut c = Channel::new(&g);
        assert!(!c.refresh_due(99));
        assert!(c.refresh_due(100));
        assert!(c.can_refresh(100));
        c.refresh(100);
        assert_eq!(c.refreshes(), 1);
        // Everything stalls during tRFC.
        assert!(!c.can_activate(0, 110));
        assert!(c.can_activate(0, 120));
        // Next refresh due one tREFI later.
        assert!(!c.refresh_due(150));
        assert!(c.refresh_due(200));
    }

    #[test]
    fn refresh_requires_closed_banks() {
        let g = GpuConfig {
            timings: DramTimings {
                t_refi: 10,
                t_rfc: 20,
                ..DramTimings::default()
            },
            ..GpuConfig::default()
        };
        let mut c = Channel::new(&g);
        c.activate(0, 1, 0);
        assert!(!c.can_refresh(10), "open bank blocks refresh");
        c.precharge(0, 28);
        assert!(c.can_refresh(29));
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut c = ch();
        c.advance_to(10);
        c.advance_to(5);
        assert_eq!(c.stats().mem_cycles, 10);
    }
}
