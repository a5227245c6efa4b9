//! Global-address ⇄ DRAM-location mapping.
//!
//! The global linear address space is interleaved across channels in
//! [`GpuConfig::chunk_bytes`]-sized chunks (256 B in the baseline, Table I).
//! Within one channel the per-channel address is decomposed, low to high, as
//! `[chunk-in-row | bank (bank-group major) | row]`, so that
//!
//! * consecutive chunks of one channel fall into the *same row* (good spatial
//!   locality maps to row-buffer hits), and
//! * consecutive rows fall into *different bank groups* (maximizing bank-level
//!   parallelism, like GPGPU-Sim's default GDDR5 mapping).

use crate::config::GpuConfig;

/// A fully decomposed DRAM location for one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Location {
    /// Memory channel (memory-controller / L2-slice) index.
    pub channel: u16,
    /// Bank-group index within the channel.
    pub bank_group: u16,
    /// Bank index within the bank group.
    pub bank_in_group: u16,
    /// Row (page) index within the bank.
    pub row: u32,
    /// Cache-line index within the row.
    pub col: u16,
}

impl Location {
    /// Flat bank index within the channel, `bank_group * banks_in_group + bank_in_group`.
    pub fn flat_bank(&self, banks_per_group: usize) -> usize {
        self.bank_group as usize * banks_per_group + self.bank_in_group as usize
    }
}

/// Address mapper derived from a [`GpuConfig`].
///
/// All sizes except the channel count are powers of two; the channel count
/// (6 in the baseline) is handled with an explicit div/mod, matching the
/// "interleaved among partitions in chunks of 256 bytes" rule of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    line_bytes: u64,
    chunk_bytes: u64,
    channels: u64,
    chunks_per_row: u64,
    lines_per_chunk: u64,
    banks_per_channel: u64,
    bank_groups: u64,
    banks_per_group: u64,
}

impl AddressMap {
    /// Builds the mapper for a GPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if line/chunk/row sizes are not powers of two, if the chunk is
    /// smaller than a line, or if the bank count is not divisible by the
    /// bank-group count.
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.chunk_bytes.is_power_of_two(),
            "chunk size must be a power of two"
        );
        assert!(
            cfg.row_bytes.is_power_of_two(),
            "row size must be a power of two"
        );
        assert!(
            cfg.chunk_bytes >= cfg.line_bytes,
            "chunk must hold at least one line"
        );
        assert!(
            cfg.row_bytes >= cfg.chunk_bytes,
            "row must hold at least one chunk"
        );
        assert_eq!(
            cfg.banks_per_channel % cfg.bank_groups,
            0,
            "banks must divide evenly into bank groups"
        );
        Self {
            line_bytes: cfg.line_bytes as u64,
            chunk_bytes: cfg.chunk_bytes as u64,
            channels: cfg.num_channels as u64,
            chunks_per_row: (cfg.row_bytes / cfg.chunk_bytes) as u64,
            lines_per_chunk: (cfg.chunk_bytes / cfg.line_bytes) as u64,
            banks_per_channel: cfg.banks_per_channel as u64,
            bank_groups: cfg.bank_groups as u64,
            banks_per_group: (cfg.banks_per_channel / cfg.bank_groups) as u64,
        }
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes as usize
    }

    /// Number of memory channels.
    pub fn channels(&self) -> usize {
        self.channels as usize
    }

    /// Number of banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        self.banks_per_channel as usize
    }

    /// Banks per bank group.
    pub fn banks_per_group(&self) -> usize {
        self.banks_per_group as usize
    }

    /// Rounds a byte address down to its cache-line base.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Decomposes a byte address into its DRAM location (line granularity).
    pub fn decompose(&self, addr: u64) -> Location {
        let chunk_id = addr / self.chunk_bytes;
        let channel = chunk_id % self.channels;
        let local_chunk = chunk_id / self.channels;
        let chunk_in_row = local_chunk % self.chunks_per_row;
        let region = local_chunk / self.chunks_per_row; // 1 region = 1 row of 1 bank
                                                        // Bank-group-major interleave: consecutive regions visit
                                                        // bank groups 0,1,2,3, then the next bank within each group.
        let bank_linear = region % self.banks_per_channel;
        let bank_group = bank_linear % self.bank_groups;
        let bank_in_group = (bank_linear / self.bank_groups) % self.banks_per_group;
        let row = region / self.banks_per_channel;
        let line_in_chunk = (addr % self.chunk_bytes) / self.line_bytes;
        let col = chunk_in_row * self.lines_per_chunk + line_in_chunk;
        Location {
            channel: channel as u16,
            bank_group: bank_group as u16,
            bank_in_group: bank_in_group as u16,
            row: row as u32,
            col: col as u16,
        }
    }

    /// Recomposes a location back into the byte address of its line base.
    ///
    /// This is the exact inverse of [`AddressMap::decompose`] restricted to
    /// line-aligned addresses.
    pub fn compose(&self, loc: Location) -> u64 {
        let bank_linear = loc.bank_in_group as u64 * self.bank_groups + loc.bank_group as u64;
        let region = loc.row as u64 * self.banks_per_channel + bank_linear;
        let chunk_in_row = loc.col as u64 / self.lines_per_chunk;
        let line_in_chunk = loc.col as u64 % self.lines_per_chunk;
        let local_chunk = region * self.chunks_per_row + chunk_in_row;
        let chunk_id = local_chunk * self.channels + loc.channel as u64;
        chunk_id * self.chunk_bytes + line_in_chunk * self.line_bytes
    }

    /// Channel index of a byte address (cheaper than full decomposition).
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.chunk_bytes) % self.channels) as usize
    }

    /// A stable identifier for the (channel, bank, row) triple of an address,
    /// used to detect "same row" relations without comparing full locations.
    pub fn row_id(&self, addr: u64) -> u64 {
        let loc = self.decompose(addr);
        ((loc.channel as u64) << 48)
            | ((loc.bank_group as u64) << 44)
            | ((loc.bank_in_group as u64) << 40)
            | loc.row as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map() -> AddressMap {
        AddressMap::new(&GpuConfig::default())
    }

    #[test]
    fn sequential_chunks_interleave_channels() {
        let m = map();
        for i in 0..12u64 {
            assert_eq!(m.channel_of(i * 256), (i % 6) as usize);
        }
    }

    #[test]
    fn lines_within_a_chunk_share_everything_but_col() {
        let m = map();
        let a = m.decompose(0);
        let b = m.decompose(128);
        assert_eq!(
            (a.channel, a.bank_group, a.bank_in_group, a.row),
            (b.channel, b.bank_group, b.bank_in_group, b.row)
        );
        assert_eq!(a.col + 1, b.col);
    }

    #[test]
    fn one_row_holds_sixteen_lines() {
        // Walking a single channel's chunks, the first 8 chunks (16 lines)
        // must land in the same (bank, row).
        let m = map();
        let base = m.decompose(0);
        for chunk in 0..8u64 {
            for line in 0..2u64 {
                let addr = chunk * (256 * 6) + line * 128; // stay on channel 0
                let loc = m.decompose(addr);
                assert_eq!(loc.channel, 0);
                assert_eq!(loc.row, base.row, "chunk {chunk} changed row");
                assert_eq!(loc.bank_group, base.bank_group);
                assert_eq!(loc.bank_in_group, base.bank_in_group);
                assert_eq!(loc.col as u64, chunk * 2 + line);
            }
        }
        // The 9th chunk of channel 0 starts a new region → different bank group.
        let next = m.decompose(8 * 256 * 6);
        assert_ne!(
            (next.bank_group, next.bank_in_group, next.row),
            (base.bank_group, base.bank_in_group, base.row)
        );
    }

    #[test]
    fn consecutive_regions_rotate_bank_groups() {
        let m = map();
        let region_bytes = 2048u64 * 6; // one row of one bank, across the interleave
        let groups: Vec<u16> = (0..4)
            .map(|i| m.decompose(i * region_bytes).bank_group)
            .collect();
        assert_eq!(groups, vec![0, 1, 2, 3]);
    }

    #[test]
    fn row_id_distinguishes_rows_and_matches_same_row() {
        let m = map();
        assert_eq!(m.row_id(0), m.row_id(128));
        assert_eq!(m.row_id(0), m.row_id(6 * 256 + 128)); // next chunk, same row
        assert_ne!(m.row_id(0), m.row_id(2048 * 6)); // next region
        assert_ne!(m.row_id(0), m.row_id(256)); // different channel
    }

    #[test]
    fn flat_bank_is_dense() {
        let m = map();
        let mut seen = std::collections::HashSet::new();
        let region_bytes = 2048u64 * 6;
        for i in 0..16u64 {
            let loc = m.decompose(i * region_bytes);
            seen.insert(loc.flat_bank(m.banks_per_group()));
        }
        assert_eq!(
            seen.len(),
            16,
            "16 consecutive regions must cover all 16 banks"
        );
    }

    proptest! {
        #[test]
        fn compose_decompose_roundtrip(addr in 0u64..(1 << 40)) {
            let m = map();
            let line = m.line_of(addr);
            let loc = m.decompose(addr);
            prop_assert_eq!(m.compose(loc), line);
        }

        #[test]
        fn decompose_is_line_invariant(addr in 0u64..(1 << 40), off in 0u64..128) {
            let m = map();
            let base = m.line_of(addr);
            prop_assert_eq!(m.decompose(base), m.decompose(base + off));
        }

        #[test]
        fn channel_of_matches_decompose(addr in 0u64..(1 << 40)) {
            let m = map();
            prop_assert_eq!(m.channel_of(addr), m.decompose(addr).channel as usize);
        }
    }
}
