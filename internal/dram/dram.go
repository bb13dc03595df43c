// Package dram models DRAM geometry and physical address mapping for
// the baseline system of the paper (Table 2): 32 GB of DDR4 organized
// as 2 channels x 1 rank x 16 banks with 8 KB rows.
//
// The package owns three responsibilities:
//
//   - Geometry: counts of channels/ranks/banks/rows and derived values
//     such as the total number of rows (4 M for the baseline).
//   - Address mapping: decoding a physical line address into a
//     (channel, rank, bank, row, column) location and composing global
//     row identifiers. The mapping places the channel bits lowest (for
//     channel-level parallelism), then the column bits (so streaming
//     accesses within a row stay row-buffer hits), then bank, then row.
//   - Reserved metadata region: the layout of tracker metadata (e.g.
//     Hydra's Row-Count Table) in the top rows of each bank.
package dram

import (
	"fmt"
	"math/bits"
)

// LineBytes is the size of one memory line (one 64-byte transfer).
const LineBytes = 64

// Config describes the memory geometry.
type Config struct {
	Channels        int // independent channels, each with its own bus
	RanksPerChannel int
	BanksPerRank    int
	RowsPerBank     int
	RowBytes        int // bytes per row (row-buffer size)
}

// Baseline returns the paper's Table 2 configuration: 32 GB DDR4,
// 2 channels x 1 rank x 16 banks, 8 KB rows (131072 rows per bank).
func Baseline() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    16,
		RowsPerBank:     131072,
		RowBytes:        8192,
	}
}

// DDR5 returns a DDR5-style organization of the same 32 GB capacity:
// twice the banks per rank (the change that doubles per-bank trackers'
// storage in Table 5) with correspondingly fewer rows per bank.
func DDR5() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    32,
		RowsPerBank:     65536,
		RowBytes:        8192,
	}
}

// Validate reports an error if any field is non-positive or the row is
// not a whole number of lines.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	case c.RanksPerChannel <= 0:
		return fmt.Errorf("dram: RanksPerChannel must be positive, got %d", c.RanksPerChannel)
	case c.BanksPerRank <= 0:
		return fmt.Errorf("dram: BanksPerRank must be positive, got %d", c.BanksPerRank)
	case c.RowsPerBank <= 0:
		return fmt.Errorf("dram: RowsPerBank must be positive, got %d", c.RowsPerBank)
	case c.RowBytes < LineBytes || c.RowBytes%LineBytes != 0:
		return fmt.Errorf("dram: RowBytes must be a positive multiple of %d, got %d", LineBytes, c.RowBytes)
	}
	return nil
}

// TotalBanks returns the number of banks across the whole system.
func (c Config) TotalBanks() int {
	return c.Channels * c.RanksPerChannel * c.BanksPerRank
}

// TotalRows returns the number of rows across the whole system.
func (c Config) TotalRows() int {
	return c.TotalBanks() * c.RowsPerBank
}

// TotalBytes returns the memory capacity in bytes.
func (c Config) TotalBytes() int64 {
	return int64(c.TotalRows()) * int64(c.RowBytes)
}

// LinesPerRow returns the number of 64-byte lines per row (columns).
func (c Config) LinesPerRow() int {
	return c.RowBytes / LineBytes
}

// Loc identifies one line's position in the memory system.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     int // row index within the bank
	Col     int // line index within the row
}

// Decode maps a line address (byte address >> 6) to its location.
// Bit layout, low to high: channel | column | bank | rank | row.
func (c Config) Decode(line uint64) Loc {
	var l Loc
	var v uint64
	line, v = divmod(line, uint64(c.Channels))
	l.Channel = int(v)
	// LinesPerRow, spelled out: the method call copies the receiver,
	// which measured as a stall on this per-request path.
	line, v = divmod(line, uint64(c.RowBytes)/LineBytes)
	l.Col = int(v)
	line, v = divmod(line, uint64(c.BanksPerRank))
	l.Bank = int(v)
	line, v = divmod(line, uint64(c.RanksPerChannel))
	l.Rank = int(v)
	_, v = divmod(line, uint64(c.RowsPerBank))
	l.Row = int(v)
	return l
}

// Place is a line's location in the form the memory controller
// consumes on every request: the channel, the bank as an index within
// its channel (Rank*BanksPerRank + the bank within the rank), the rank,
// the row within the bank, and the global row (GlobalRow of the line's
// Loc).
type Place struct {
	Channel   int32
	Rank      int32
	Bank      int32
	Row       int32
	GlobalRow uint32
}

// Mapping is Decode precomputed for one geometry. When every dimension
// is a power of two, as in every shipped geometry, each field of a
// Place is one shift and one mask of the line address; otherwise Place
// falls back to Decode.
type Mapping struct {
	cfg  Config
	pow2 bool
	// Shifts of the bank and row fields, and the field masks. The bank
	// field spans the rank bits above the bank-in-rank bits, so it reads
	// as the channel-local bank index directly.
	bankShift, rowShift, rankBits uint
	chMask, bankMask, rowMask     uint64
	gBankShift, gChShift          uint // bank and channel offsets in a global row
}

// Mapping returns the precomputed address mapping of c.
func (c Config) Mapping() Mapping {
	m := Mapping{cfg: c}
	banks := c.RanksPerChannel * c.BanksPerRank
	for _, n := range [...]int{c.Channels, c.LinesPerRow(), c.BanksPerRank, c.RanksPerChannel, c.RowsPerBank} {
		if n <= 0 || n&(n-1) != 0 {
			return m
		}
	}
	log2 := func(n int) uint { return uint(bits.TrailingZeros64(uint64(n))) }
	m.pow2 = true
	m.bankShift = log2(c.Channels) + log2(c.LinesPerRow())
	m.rowShift = m.bankShift + log2(banks)
	m.rankBits = log2(c.BanksPerRank)
	m.chMask = uint64(c.Channels - 1)
	m.bankMask = uint64(banks - 1)
	m.rowMask = uint64(c.RowsPerBank - 1)
	m.gBankShift = log2(c.RowsPerBank)
	m.gChShift = m.gBankShift + log2(banks)
	return m
}

// Place maps a line address to its Place; it agrees with Decode and
// GlobalRow on every line.
func (m *Mapping) Place(line uint64) Place {
	if !m.pow2 {
		return m.cfg.place(m.cfg.Decode(line))
	}
	ch := line & m.chMask
	bank := line >> m.bankShift & m.bankMask
	row := line >> m.rowShift & m.rowMask
	return Place{
		Channel:   int32(ch),
		Rank:      int32(bank >> m.rankBits),
		Bank:      int32(bank),
		Row:       int32(row),
		GlobalRow: uint32(ch<<m.gChShift | bank<<m.gBankShift | row),
	}
}

// place converts a decoded Loc into a Place.
func (c Config) place(l Loc) Place {
	return Place{
		Channel:   int32(l.Channel),
		Rank:      int32(l.Rank),
		Bank:      int32(l.Rank*c.BanksPerRank + l.Bank),
		Row:       int32(l.Row),
		GlobalRow: c.GlobalRow(l),
	}
}

// divmod returns x/n and x%n. Every shipped geometry has power-of-two
// dimensions, for which it shifts and masks instead of dividing: the
// runtime divisions were most of Decode's cost on the per-request path.
func divmod(x, n uint64) (uint64, uint64) {
	if n&(n-1) == 0 {
		// The shift is below 64 for a power of two; the mask says so,
		// which drops the compiler's oversized-shift guard.
		return x >> (bits.TrailingZeros64(n) & 63), x & (n - 1)
	}
	return x / n, x % n
}

// Encode is the inverse of Decode.
func (c Config) Encode(l Loc) uint64 {
	line := uint64(l.Row)
	line = line*uint64(c.RanksPerChannel) + uint64(l.Rank)
	line = line*uint64(c.BanksPerRank) + uint64(l.Bank)
	line = line*uint64(c.LinesPerRow()) + uint64(l.Col)
	line = line*uint64(c.Channels) + uint64(l.Channel)
	return line
}

// GlobalRow composes a system-wide row identifier from a location.
// Rows of the same bank are contiguous, so row +/- 1 within a bank is
// global row +/- 1, which makes blast-radius arithmetic trivial.
func (c Config) GlobalRow(l Loc) uint32 {
	bank := (l.Channel*c.RanksPerChannel+l.Rank)*c.BanksPerRank + l.Bank
	return uint32(bank*c.RowsPerBank + l.Row)
}

// RowLoc returns the (channel, rank, bank, row) of a global row id.
// Col is always 0.
func (c Config) RowLoc(row uint32) Loc {
	bankGlobal, inBank := divmod(uint64(row), uint64(c.RowsPerBank))
	ch, rest := divmod(bankGlobal, uint64(c.RanksPerChannel*c.BanksPerRank))
	rank, bank := divmod(rest, uint64(c.BanksPerRank))
	return Loc{
		Channel: int(ch),
		Rank:    int(rank),
		Bank:    int(bank),
		Row:     int(inBank),
	}
}

// Victims returns the global row ids of the rows within blast-radius
// distance of the aggressor, clipped at bank boundaries. With blast=2
// (the paper's default) it returns up to four rows: two on each side.
func (c Config) Victims(aggressor uint32, blast int) []uint32 {
	inBank := int(aggressor) % c.RowsPerBank
	victims := make([]uint32, 0, 2*blast)
	for d := 1; d <= blast; d++ {
		if inBank-d >= 0 {
			victims = append(victims, aggressor-uint32(d))
		}
		if inBank+d < c.RowsPerBank {
			victims = append(victims, aggressor+uint32(d))
		}
	}
	return victims
}
