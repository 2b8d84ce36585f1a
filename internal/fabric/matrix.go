package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"prisim"
	"prisim/internal/stats"
	"prisim/prisimclient"
)

// NormalizeMatrix fills a matrix's defaulted dimensions with their explicit
// values: widths [4], phys_regs [0] (machine default), and the universal
// measurement-budget defaults. Content hashing, expansion, and durable
// records all operate on the normalized form, so a spec and its
// explicit-default spelling are the same matrix.
func NormalizeMatrix(m prisimclient.Matrix) prisimclient.Matrix {
	if len(m.Widths) == 0 {
		m.Widths = []int{4}
	}
	if len(m.PhysRegs) == 0 {
		m.PhysRegs = []int{0}
	}
	if m.FastForward == 0 {
		m.FastForward = prisim.DefaultFastForward
	}
	if m.Run == 0 {
		m.Run = prisim.DefaultRun
	}
	return m
}

// MatrixID derives a matrix's durable identity: "mx-" plus the leading hex
// of the SHA-256 digest of (kernel version, normalized spec). Identical
// specs — submitted by any client, before or after a coordinator restart —
// collapse onto one ID, which is what lets duplicate submissions coalesce
// instead of recomputing.
func MatrixID(kernelVersion string, m prisimclient.Matrix) string {
	m = NormalizeMatrix(m)
	h := sha256.New()
	fmt.Fprintf(h, "prisim-matrix-v1\nkernel=%s\n", kernelVersion)
	for _, b := range m.Benchmarks {
		fmt.Fprintf(h, "bench=%s\n", b)
	}
	for _, p := range m.Policies {
		fmt.Fprintf(h, "policy=%s\n", p)
	}
	for _, w := range m.Widths {
		fmt.Fprintf(h, "width=%d\n", w)
	}
	for _, n := range m.PhysRegs {
		fmt.Fprintf(h, "phys_regs=%d\n", n)
	}
	fmt.Fprintf(h, "fast_forward=%d\nrun=%d\n", m.FastForward, m.Run)
	return "mx-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Expand expands a matrix into its simulate points in canonical order —
// width-major, then phys-regs, benchmark, policy — each carrying an
// explicit budget and its content-hash CacheKey. The order is part of the
// wire contract: tables assemble rows and columns from the same iteration,
// so a fabric run and a single-node run produce byte-identical output.
func Expand(kernelVersion string, m prisimclient.Matrix) []prisimclient.JobRequest {
	m = NormalizeMatrix(m)
	out := make([]prisimclient.JobRequest, 0, len(m.Widths)*len(m.PhysRegs)*len(m.Benchmarks)*len(m.Policies))
	for _, width := range m.Widths {
		for _, prs := range m.PhysRegs {
			for _, bench := range m.Benchmarks {
				for _, pol := range m.Policies {
					req := prisimclient.JobRequest{
						Kind:        prisimclient.KindSimulate,
						Benchmark:   bench,
						Width:       width,
						Policy:      pol,
						PhysRegs:    prs,
						FastForward: m.FastForward,
						Run:         m.Run,
					}
					req.CacheKey = prisimclient.CacheKeyFor(kernelVersion, req)
					out = append(out, req)
				}
			}
		}
	}
	return out
}

// ValidateMatrix checks the spec's shape and its benchmark/policy names
// against the engine's lists, so a bad matrix fails at submit rather than
// inside a worker.
func ValidateMatrix(m prisimclient.Matrix) error {
	if err := m.Validate(); err != nil {
		return err
	}
	known := make(map[string]bool)
	for _, b := range prisim.Benchmarks() {
		known[b.Name] = true
	}
	for _, b := range m.Benchmarks {
		if !known[b] {
			return fmt.Errorf("unknown benchmark %q", b)
		}
	}
	pols := make(map[string]bool)
	for _, p := range prisim.Policies() {
		pols[string(p)] = true
	}
	for _, p := range m.Policies {
		if !pols[p] {
			return fmt.Errorf("unknown policy %q", p)
		}
	}
	return nil
}

// matrixMetrics are the per-point values a matrix table reports, one table
// block per metric: IPC (the headline comparison) and total register
// lifetime (the paper's Figure 8 axis).
var matrixMetrics = []struct {
	name string
	cell func(prisim.Result) string
}{
	{"IPC", func(r prisim.Result) string { return stats.F(r.IPC, 3) }},
	{"avg register lifetime (cycles)", func(r prisim.Result) string {
		return stats.F(r.AllocToWrite+r.WriteToRead+r.ReadToRelease, 1)
	}},
}

// AssembleTables renders a matrix's experiment tables — one table per
// (metric, width, phys-regs) combination, benchmarks as rows and policies
// as columns — from per-point results looked up by cache key. It walks
// Expand's points, whose canonical order is exactly table-major, row-major
// order, so the points and their keys are declared once. Assembly is a
// pure function of (spec, results): the coordinator uses it over its
// store, and the byte-identity tests use it over direct Engine runs.
func AssembleTables(kernelVersion string, m prisimclient.Matrix, get func(cacheKey string) (prisim.Result, bool)) ([]prisim.Table, error) {
	m = NormalizeMatrix(m)
	points := Expand(kernelVersion, m)
	perTable := len(m.Benchmarks) * len(m.Policies)
	var tables []prisim.Table
	for _, metric := range matrixMetrics {
		for i, p := range points {
			if i%perTable == 0 {
				prsLabel := "default"
				if p.PhysRegs != 0 {
					prsLabel = fmt.Sprintf("%d", p.PhysRegs)
				}
				tables = append(tables, prisim.Table{
					Title:   fmt.Sprintf("Fabric matrix: %s by policy (width %d, PRs %s, ff %d, run %d)", metric.name, p.Width, prsLabel, m.FastForward, m.Run),
					Columns: append([]string{"bench"}, m.Policies...),
				})
			}
			t := &tables[len(tables)-1]
			if i%len(m.Policies) == 0 {
				t.Rows = append(t.Rows, []string{p.Benchmark})
			}
			res, ok := get(p.CacheKey)
			if !ok {
				return nil, fmt.Errorf("missing result for point %s/%s width=%d prs=%d (key %.12s...)", p.Benchmark, p.Policy, p.Width, p.PhysRegs, p.CacheKey)
			}
			row := &t.Rows[len(t.Rows)-1]
			*row = append(*row, metric.cell(res))
		}
	}
	return tables, nil
}
