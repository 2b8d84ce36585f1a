// Package stats provides the measurement helpers behind the paper's
// figures: cumulative histograms and the operand-significance analyzer that
// reproduces Figure 2 (how many bits integer and floating-point operands
// actually need).
package stats

import (
	"fmt"
	"strings"

	"prisim/internal/emu"
	"prisim/internal/isa"
)

// Histogram is a fixed-range integer histogram with cumulative queries.
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewHistogram covers values 0..max (values above max clamp into the last
// bucket).
func NewHistogram(max int) *Histogram {
	return &Histogram{counts: make([]uint64, max+1)}
}

// Add records one observation.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.total }

// CumulativeFrac returns the fraction of observations <= v.
func (h *Histogram) CumulativeFrac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	var sum uint64
	for i := 0; i <= v; i++ {
		sum += h.counts[i]
	}
	return float64(sum) / float64(h.total)
}

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum uint64
	for v, c := range h.counts {
		sum += uint64(v) * c
	}
	return float64(sum) / float64(h.total)
}

// Significance aggregates the paper's Figure 2 measurements over a dynamic
// instruction stream: the two's-complement width of every integer register
// operand read, and the compressed exponent/significand widths of every
// floating-point operand read.
type Significance struct {
	IntBits     *Histogram // 1..64 significant bits per integer operand
	ExpBits     *Histogram // 0..11 exponent bits per FP operand
	SigBits     *Histogram // 0..52 significand bits per FP operand
	FPTrivial   uint64     // FP operands whose whole pattern is zeroes/ones
	IntOperands uint64
	FPOperands  uint64
}

// NewSignificance returns an empty analyzer.
func NewSignificance() *Significance {
	return &Significance{
		IntBits: NewHistogram(64),
		ExpBits: NewHistogram(11),
		SigBits: NewHistogram(52),
	}
}

// Observe records one source operand value.
func (s *Significance) Observe(reg isa.Reg, value uint64) {
	if reg.IsFP() {
		s.FPOperands++
		if isa.FPTrivial(value) {
			s.FPTrivial++
		}
		s.ExpBits.Add(isa.FPExponentBits(value))
		s.SigBits.Add(isa.FPSignificandBits(value))
		return
	}
	s.IntOperands++
	s.IntBits.Add(isa.SignificantBits(value))
}

// Analyze runs prog functionally for limit instructions, observing every
// source register operand, and returns the aggregate.
func Analyze(m *emu.Machine, limit uint64) *Significance {
	s := NewSignificance()
	var srcs [3]isa.Reg
	for i := uint64(0); i < limit && !m.Halted(); i++ {
		in := m.PeekInst()
		for _, r := range in.Sources(srcs[:0]) {
			s.Observe(r, m.Reg(r))
		}
		m.Step()
	}
	return s
}

// IntFracWithin returns the fraction of integer operands representable in n
// bits (the paper's headline: ~half of operands fit in 10 bits).
func (s *Significance) IntFracWithin(n int) float64 { return s.IntBits.CumulativeFrac(n) }

// FPTrivialFrac returns the fraction of FP operands that are all zeroes or
// all ones.
func (s *Significance) FPTrivialFrac() float64 {
	if s.FPOperands == 0 {
		return 0
	}
	return float64(s.FPTrivial) / float64(s.FPOperands)
}

// Table renders a fixed-width text table: prisim.Table renders every
// figure and table reproduction through it, and internal/plot charts it.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// F formats a float at the given precision (table cell helper).
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
