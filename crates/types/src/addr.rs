//! Physical addresses and their decomposition onto the memory organization.
//!
//! The simulator uses a line-interleaved mapping: consecutive cache lines
//! stripe across channels first (maximizing channel-level parallelism, as in
//! the paper's 4-channel system), then across columns of an open row, then
//! banks, then rows. The decode is driven entirely by [`crate::MemOrg`], so
//! alternative geometries used in tests and ablations decode correctly too.

use crate::config::MemOrg;
use crate::ids::{BankId, ChannelId, ColAddr, RankId, RowAddr};
use crate::line::LINE_BYTES;
use core::fmt;

/// A byte-granular physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A cache-line-granular address (`PhysAddr >> 6` for 64-byte lines).
///
/// This is the address the PCMap rotation schemes key off: the data layout
/// rotates by `LineAddr % 8` and the ECC/PCC placement by `LineAddr % 10`
/// (§IV-C2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl PhysAddr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES as u64)
    }

    /// Byte offset within the cache line.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the offset is below LINE_BYTES (64)"
    )]
    pub fn line_offset(self) -> usize {
        (self.0 % LINE_BYTES as u64) as usize
    }
}

impl LineAddr {
    /// First byte address of the line.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 * LINE_BYTES as u64)
    }

    /// The line `n` lines after this one.
    #[inline]
    pub fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl From<u64> for PhysAddr {
    #[inline]
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The hardware coordinates of a cache line: which channel, rank, bank, row
/// and column it occupies, plus the byte offset of the original address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemLocation {
    /// Memory channel (and therefore memory controller).
    pub channel: ChannelId,
    /// Rank within the channel.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: BankId,
    /// Row (page) within the bank.
    pub row: RowAddr,
    /// Column — the cache-line slot within the row.
    pub col: ColAddr,
    /// Byte offset of the decoded address within its line.
    pub line_offset: usize,
    /// The cache line address this location was decoded from.
    pub line: LineAddr,
}

impl MemOrg {
    /// Decodes a physical address into hardware coordinates.
    ///
    /// Bit order (LSB first): line offset, channel, column, bank, rank, row.
    /// Addresses beyond the installed capacity wrap (the simulator treats
    /// the address space as toroidal rather than faulting).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each coordinate is taken modulo a MemOrg dimension of its own type (u8 or u32), so it fits"
    )]
    pub fn decode(&self, addr: PhysAddr) -> MemLocation {
        let line = addr.line();
        let mut v = line.0;
        let channel = (v % self.channels as u64) as u8;
        v /= self.channels as u64;
        let col = (v % self.lines_per_row as u64) as u32;
        v /= self.lines_per_row as u64;
        let bank = (v % self.banks as u64) as u8;
        v /= self.banks as u64;
        let rank = (v % self.ranks_per_channel as u64) as u8;
        v /= self.ranks_per_channel as u64;
        let row = (v % self.rows_per_bank as u64) as u32;
        MemLocation {
            channel: ChannelId(channel),
            rank: RankId(rank),
            bank: BankId(bank),
            row: RowAddr(row),
            col: ColAddr(col),
            line_offset: addr.line_offset(),
            line,
        }
    }

    /// Re-encodes hardware coordinates into the canonical line address that
    /// decodes back to them (inverse of [`MemOrg::decode`] for in-range
    /// coordinates).
    pub fn encode(
        &self,
        channel: ChannelId,
        rank: RankId,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
    ) -> LineAddr {
        let mut v = row.0 as u64;
        v = v * self.ranks_per_channel as u64 + rank.0 as u64;
        v = v * self.banks as u64 + bank.0 as u64;
        v = v * self.lines_per_row as u64 + col.0 as u64;
        v = v * self.channels as u64 + channel.0 as u64;
        LineAddr(v)
    }

    /// Total installed capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.banks as u64
            * self.rows_per_bank as u64
            * self.lines_per_row as u64
            * LINE_BYTES as u64
    }

    /// Total cache lines installed.
    pub fn capacity_lines(&self) -> u64 {
        self.capacity_bytes() / LINE_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_is_8_gib() {
        let org = MemOrg::paper_default();
        assert_eq!(org.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn consecutive_lines_stripe_channels() {
        let org = MemOrg::paper_default();
        let a = org.decode(PhysAddr::new(0));
        let b = org.decode(PhysAddr::new(64));
        let c = org.decode(PhysAddr::new(64 * 4));
        assert_eq!(a.channel, ChannelId(0));
        assert_eq!(b.channel, ChannelId(1));
        // After all 4 channels, back to channel 0 at the next column.
        assert_eq!(c.channel, ChannelId(0));
        assert_eq!(c.col, ColAddr(1));
        assert_eq!(c.bank, a.bank);
        assert_eq!(c.row, a.row);
    }

    #[test]
    fn line_offset_extracted() {
        let org = MemOrg::paper_default();
        let loc = org.decode(PhysAddr::new(64 + 17));
        assert_eq!(loc.line_offset, 17);
        assert_eq!(loc.line, LineAddr(1));
    }

    #[test]
    fn encode_decode_round_trip() {
        let org = MemOrg::paper_default();
        let line = org.encode(
            ChannelId(3),
            RankId(0),
            BankId(5),
            RowAddr(1234),
            ColAddr(77),
        );
        let loc = org.decode(line.base());
        assert_eq!(loc.channel, ChannelId(3));
        assert_eq!(loc.bank, BankId(5));
        assert_eq!(loc.row, RowAddr(1234));
        assert_eq!(loc.col, ColAddr(77));
    }

    #[test]
    fn decode_wraps_beyond_capacity() {
        let org = MemOrg::paper_default();
        let cap = org.capacity_bytes();
        let a = org.decode(PhysAddr::new(100 * 64));
        let b = org.decode(PhysAddr::new(cap + 100 * 64));
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(a.col, b.col);
    }

    #[test]
    fn phys_addr_line_math() {
        let a = PhysAddr::new(0x1000);
        assert_eq!(a.line(), LineAddr(0x40));
        assert_eq!(a.line().base(), a);
        assert_eq!(LineAddr(5).offset(3), LineAddr(8));
    }
}
