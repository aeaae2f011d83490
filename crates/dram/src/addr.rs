//! Physical address decoding into (channel, rank, bank, row).
//!
//! The decoder uses a row-interleaved mapping: the low bits address bytes
//! within a row, the next bits select the channel, then bank, then rank,
//! and the remaining high bits select the row. Row-granularity channel
//! interleaving keeps each DRAM row physically contiguous (a 2KB Chameleon
//! segment maps onto exactly one row) while consecutive rows spread across
//! channels and banks for parallelism.

use crate::DramConfig;

/// The decoded location of a physical address within a DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub offset: u32,
}

impl DecodedAddr {
    /// Flat index of this bank across the whole device (for stats arrays).
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        ((self.channel * cfg.ranks_per_channel + self.rank) * cfg.banks_per_rank + self.bank)
            as usize
    }
}

/// Decoder for a fixed [`DramConfig`] geometry.
#[derive(Debug, Clone)]
pub struct AddrDecoder {
    row_shift: u32,
    channel_mask: u64,
    channel_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    rank_mask: u64,
    rank_shift: u32,
    capacity: u64,
    offset_mask: u32,
}

impl AddrDecoder {
    /// Builds a decoder for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(cfg: &DramConfig) -> Self {
        // INVARIANT: documented panic; mappers are built from validated configs.
        cfg.validate().expect("invalid DRAM config");
        let row_shift = cfg.row_bytes.bytes().trailing_zeros();
        let channel_shift = row_shift;
        let bank_shift = channel_shift + cfg.channels.trailing_zeros();
        let rank_shift = bank_shift + cfg.banks_per_rank.trailing_zeros();
        Self {
            row_shift: rank_shift + cfg.ranks_per_channel.trailing_zeros(),
            channel_mask: (cfg.channels - 1) as u64,
            channel_shift,
            bank_mask: (cfg.banks_per_rank - 1) as u64,
            bank_shift,
            rank_mask: (cfg.ranks_per_channel - 1) as u64,
            rank_shift,
            capacity: cfg.capacity.bytes(),
            offset_mask: (cfg.row_bytes.bytes() - 1) as u32,
        }
    }

    /// Decodes a physical address.
    ///
    /// Addresses are wrapped modulo the device capacity, so callers that
    /// hold device-relative offsets never go out of range.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let a = addr % self.capacity;
        DecodedAddr {
            channel: ((a >> self.channel_shift) & self.channel_mask) as u32,
            rank: ((a >> self.rank_shift) & self.rank_mask) as u32,
            bank: ((a >> self.bank_shift) & self.bank_mask) as u32,
            row: a >> self.row_shift,
            offset: (a as u32) & self.offset_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn decoder() -> AddrDecoder {
        AddrDecoder::new(&DramConfig::stacked_4gb())
    }

    #[test]
    fn same_row_same_location() {
        let d = decoder();
        let a = d.decode(0x10_0000);
        let b = d.decode(0x10_0000 + 64);
        assert_eq!(
            (a.channel, a.rank, a.bank, a.row),
            (b.channel, b.rank, b.bank, b.row)
        );
        assert_eq!(b.offset, a.offset + 64);
    }

    #[test]
    fn consecutive_rows_alternate_channels() {
        let d = decoder();
        let a = d.decode(0);
        let b = d.decode(2048);
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let d = decoder();
        let cap = 4u64 << 30;
        assert_eq!(d.decode(5), d.decode(cap + 5));
    }

    #[test]
    fn fields_within_bounds() {
        let cfg = DramConfig::offchip_20gb();
        let d = AddrDecoder::new(&cfg);
        let rows_per_bank = cfg.capacity.bytes() / cfg.total_banks() as u64 / cfg.row_bytes.bytes();
        for i in 0..10_000u64 {
            let a = d.decode(i * 7919 * 4096);
            assert!(a.channel < cfg.channels);
            assert!(a.rank < cfg.ranks_per_channel);
            assert!(a.bank < cfg.banks_per_rank);
            assert!(
                a.row < rows_per_bank * cfg.channels as u64 * 2,
                "row {}",
                a.row
            );
            assert!(a.offset < cfg.row_bytes.bytes() as u32);
            assert!(a.flat_bank(&cfg) < cfg.total_banks() as usize);
        }
    }

    #[test]
    fn flat_bank_distinct_per_location() {
        let cfg = DramConfig::stacked_4gb();
        let d = AddrDecoder::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        // Walk one row per (channel, bank, rank) combination.
        for i in 0..cfg.total_banks() as u64 {
            let a = d.decode(i * 2048);
            seen.insert(a.flat_bank(&cfg));
        }
        assert_eq!(seen.len(), cfg.total_banks() as usize);
    }
}
