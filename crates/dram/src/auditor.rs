//! An independent DRAM-protocol checker.
//!
//! [`Auditor`] re-implements the GDDR5 timing rules *separately* from the
//! [`Channel`](crate::Channel) state machine, so tests can feed it the command
//! stream a channel (or a whole memory controller) produced and catch any
//! protocol violation. It is deliberately written as a trace checker — it
//! keeps full per-bank command history — rather than sharing code with the
//! fast path.

use lazydram_common::DramTimings;
use std::collections::HashMap;

/// One DRAM command, as observed on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Activate `row` in `bank` at cycle `at`.
    Act {
        /// Target bank (flat index within the channel).
        bank: usize,
        /// Row to open.
        row: u32,
        /// Issue cycle.
        at: u64,
    },
    /// Precharge `bank` at cycle `at`.
    Pre {
        /// Target bank.
        bank: usize,
        /// Issue cycle.
        at: u64,
    },
    /// Read burst from the open row of `bank` at cycle `at`.
    Read {
        /// Target bank.
        bank: usize,
        /// Issue cycle.
        at: u64,
    },
    /// Write burst to the open row of `bank` at cycle `at`.
    Write {
        /// Target bank.
        bank: usize,
        /// Issue cycle.
        at: u64,
    },
}

impl Command {
    /// Issue cycle of the command.
    fn at(&self) -> u64 {
        match *self {
            Command::Act { at, .. }
            | Command::Pre { at, .. }
            | Command::Read { at, .. }
            | Command::Write { at, .. } => at,
        }
    }
}

/// A detected violation of the DRAM protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// The offending command.
    pub command: Command,
    /// Human-readable rule description, e.g. `"tRCD"` or `"command bus"`.
    pub rule: String,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated by {:?}", self.rule, self.command)
    }
}

impl std::error::Error for ProtocolViolation {}

#[derive(Debug, Clone, Default)]
struct BankTrace {
    open_row: Option<u32>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    /// End of the last write data burst to this bank (for tWR).
    last_write_end: Option<u64>,
}

/// Replays a command stream and checks every timing rule.
#[derive(Debug, Clone)]
pub struct Auditor {
    t: DramTimings,
    banks: HashMap<usize, BankTrace>,
    last_cmd: Option<u64>,
    last_act_any: Option<u64>,
    bus_free: u64,
    last_write_data_end: Option<u64>,
    violations: Vec<ProtocolViolation>,
}

impl Auditor {
    /// Creates an auditor for the given timing parameters.
    pub fn new(t: DramTimings) -> Self {
        Self {
            t,
            banks: HashMap::new(),
            last_cmd: None,
            last_act_any: None,
            bus_free: 0,
            last_write_data_end: None,
            violations: Vec::new(),
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[ProtocolViolation] {
        &self.violations
    }

    /// Returns `Ok(())` if no violations were recorded.
    ///
    /// # Errors
    ///
    /// Returns the first violation if any rule was broken.
    pub fn check(&self) -> Result<(), ProtocolViolation> {
        match self.violations.first() {
            None => Ok(()),
            Some(v) => Err(v.clone()),
        }
    }

    fn flag(&mut self, command: Command, rule: &str) {
        self.violations.push(ProtocolViolation {
            command,
            rule: rule.to_string(),
        });
    }

    /// Observes the next command. Commands must be fed in non-decreasing
    /// cycle order.
    pub fn observe(&mut self, cmd: Command) {
        let at = cmd.at();
        if let Some(prev) = self.last_cmd {
            if at < prev {
                self.flag(cmd, "command order (non-decreasing time)");
            } else if at == prev {
                self.flag(cmd, "command bus (one command per cycle)");
            }
        }
        self.last_cmd = Some(at);

        let t = self.t;
        match cmd {
            Command::Act { bank, row, at } => {
                if let Some(last) = self.last_act_any {
                    if at < last + u64::from(t.t_rrd) {
                        self.flag(cmd, "tRRD");
                    }
                }
                let b = self.banks.entry(bank).or_default();
                if b.open_row.is_some() {
                    self.violations.push(ProtocolViolation {
                        command: cmd,
                        rule: "ACT to open bank".into(),
                    });
                }
                if let Some(last) = b.last_act {
                    if at < last + u64::from(t.t_rc) {
                        self.violations.push(ProtocolViolation {
                            command: cmd,
                            rule: "tRC".into(),
                        });
                    }
                }
                if let Some(pre) = b.last_pre {
                    if at < pre + u64::from(t.t_rp) {
                        self.violations.push(ProtocolViolation {
                            command: cmd,
                            rule: "tRP".into(),
                        });
                    }
                }
                let b = self.banks.entry(bank).or_default();
                b.open_row = Some(row);
                b.last_act = Some(at);
                self.last_act_any = Some(at);
            }
            Command::Pre { bank, at } => {
                let b = self.banks.entry(bank).or_default();
                match (b.open_row, b.last_act) {
                    (Some(_), Some(act)) => {
                        if at < act + u64::from(t.t_ras) {
                            self.violations.push(ProtocolViolation {
                                command: cmd,
                                rule: "tRAS".into(),
                            });
                        }
                    }
                    _ => self.violations.push(ProtocolViolation {
                        command: cmd,
                        rule: "PRE to closed bank".into(),
                    }),
                }
                if let Some(wend) = b.last_write_end {
                    if at < wend + u64::from(t.t_wr) {
                        self.violations.push(ProtocolViolation {
                            command: cmd,
                            rule: "tWR".into(),
                        });
                    }
                }
                let b = self.banks.entry(bank).or_default();
                b.open_row = None;
                b.last_pre = Some(at);
            }
            Command::Read { bank, at } => {
                self.check_cas(cmd, bank, at, u64::from(t.t_cl));
                if let Some(wend) = self.last_write_data_end {
                    if at < wend + u64::from(t.t_cdlr) {
                        self.flag(cmd, "tCDLR");
                    }
                }
                self.bus_free = at + u64::from(t.t_cl) + u64::from(t.t_ccd);
            }
            Command::Write { bank, at } => {
                self.check_cas(cmd, bank, at, u64::from(t.t_wl));
                let end = at + u64::from(t.t_wl) + u64::from(t.t_ccd);
                self.bus_free = end;
                self.last_write_data_end = Some(end);
                self.banks.entry(bank).or_default().last_write_end = Some(end);
            }
        }
    }

    fn check_cas(&mut self, cmd: Command, bank: usize, at: u64, latency: u64) {
        let t = self.t;
        let b = self.banks.entry(bank).or_default();
        match (b.open_row, b.last_act) {
            (Some(_), Some(act)) => {
                if at < act + u64::from(t.t_rcd) {
                    self.violations.push(ProtocolViolation {
                        command: cmd,
                        rule: "tRCD".into(),
                    });
                }
            }
            _ => self.violations.push(ProtocolViolation {
                command: cmd,
                rule: "CAS to closed bank".into(),
            }),
        }
        if at + latency < self.bus_free {
            self.flag(cmd, "data bus overlap");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aud() -> Auditor {
        Auditor::new(DramTimings::default())
    }

    #[test]
    fn clean_sequence_passes() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Read { bank: 0, at: 12 });
        a.observe(Command::Read { bank: 0, at: 14 });
        a.observe(Command::Pre { bank: 0, at: 28 });
        a.observe(Command::Act {
            bank: 0,
            row: 2,
            at: 40,
        });
        assert!(a.check().is_ok(), "{:?}", a.violations());
    }

    #[test]
    fn detects_trcd_violation() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Read { bank: 0, at: 11 });
        assert_eq!(a.violations()[0].rule, "tRCD");
    }

    #[test]
    fn detects_tras_violation() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Pre { bank: 0, at: 27 });
        assert_eq!(a.violations()[0].rule, "tRAS");
    }

    #[test]
    fn detects_trrd_violation() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Act {
            bank: 1,
            row: 1,
            at: 5,
        });
        assert_eq!(a.violations()[0].rule, "tRRD");
    }

    #[test]
    fn detects_command_bus_conflict() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Act {
            bank: 1,
            row: 1,
            at: 0,
        });
        assert!(a
            .violations()
            .iter()
            .any(|v| v.rule.contains("command bus")));
    }

    #[test]
    fn detects_cas_to_closed_bank() {
        let mut a = aud();
        a.observe(Command::Read { bank: 0, at: 5 });
        assert_eq!(a.violations()[0].rule, "CAS to closed bank");
    }

    #[test]
    fn detects_data_bus_overlap() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Act {
            bank: 1,
            row: 1,
            at: 6,
        });
        a.observe(Command::Read { bank: 0, at: 18 });
        a.observe(Command::Read { bank: 1, at: 19 }); // data would overlap
        assert!(a.violations().iter().any(|v| v.rule == "data bus overlap"));
    }

    #[test]
    fn detects_tcdlr_violation() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Write { bank: 0, at: 12 }); // data 16..18
        a.observe(Command::Read { bank: 0, at: 20 }); // < 18 + 5
        assert!(a.violations().iter().any(|v| v.rule == "tCDLR"));
    }

    #[test]
    fn detects_twr_violation() {
        let mut a = aud();
        a.observe(Command::Act {
            bank: 0,
            row: 1,
            at: 0,
        });
        a.observe(Command::Write { bank: 0, at: 12 }); // data end 18, +tWR=30
        a.observe(Command::Pre { bank: 0, at: 29 });
        assert!(a.violations().iter().any(|v| v.rule == "tWR"));
    }

    #[test]
    fn violation_displays_rule() {
        let mut a = aud();
        a.observe(Command::Read { bank: 0, at: 5 });
        let err = a.check().unwrap_err();
        assert!(err.to_string().contains("CAS to closed bank"));
    }
}
