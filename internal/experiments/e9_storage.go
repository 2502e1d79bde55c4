package experiments

import (
	"fmt"

	"scaddar/internal/scaddar"
)

// E9Config parameterizes the metadata-storage experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E9Config struct {
	// Ops is the length of the scaling history both schemes must support.
	Ops int
	// Libraries lists (objects, blocksPer) library shapes to sweep.
	Libraries [][2]int
}

// DefaultE9 sweeps library sizes from a small server to the paper's
// "thousands of CM objects ... each ... tens of thousands of blocks".
func DefaultE9() E9Config {
	return E9Config{
		Ops: 8,
		Libraries: [][2]int{
			{20, 1000},    // the Section 5 simulation scale
			{100, 10000},  // a mid-size server
			{1000, 20000}, // the paper's "thousands of objects"
			{5000, 50000}, // a large library
		},
	}
}

// E9Row compares metadata footprints for one library shape.
type E9Row struct {
	Objects, BlocksPer int
	// TotalBlocks is objects × blocksPer.
	TotalBlocks int64
	// DirectoryBytes is the floor for a block-location directory: 4 bytes
	// per block (a packed disk index; real directories with keys and
	// pointers are several times larger).
	DirectoryBytes int64
	// ScaddarBytes is the measured size of the binary operation log plus
	// one 8-byte seed per object.
	ScaddarBytes int64
	// Ratio is DirectoryBytes / ScaddarBytes.
	Ratio float64
}

// E9Result is the metadata-storage table.
type E9Result struct {
	Config E9Config
	Rows   []E9Row
}

// RunE9 quantifies the paper's storage claim: SCADDAR needs "only a storage
// structure for recording scaling operations, which is significantly less
// than the number of all block locations", versus a directory that "can
// potentially expand to millions of entries". The directory figure below is
// a deliberate *under*-estimate (4 bytes per block, no keys, no index
// structure), so the measured ratios are lower bounds on SCADDAR's
// advantage.
func RunE9(cfg E9Config) (*E9Result, error) {
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("experiments: E9 needs at least one operation")
	}
	// Build a representative operation log and measure its encoded size.
	h, err := scaddar.NewHistory(8)
	if err != nil {
		return nil, err
	}
	for j := 0; j < cfg.Ops; j++ {
		if j%3 == 2 {
			if _, err := h.Remove(j % h.N()); err != nil {
				return nil, err
			}
		} else {
			if _, err := h.Add(1); err != nil {
				return nil, err
			}
		}
	}
	logBytes, err := h.MarshalBinary()
	if err != nil {
		return nil, err
	}

	res := &E9Result{Config: cfg}
	for _, lib := range cfg.Libraries {
		objects, blocksPer := lib[0], lib[1]
		total := int64(objects) * int64(blocksPer)
		row := E9Row{
			Objects:        objects,
			BlocksPer:      blocksPer,
			TotalBlocks:    total,
			DirectoryBytes: total * 4,
			ScaddarBytes:   int64(len(logBytes)) + int64(objects)*8,
		}
		row.Ratio = float64(row.DirectoryBytes) / float64(row.ScaddarBytes)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the storage comparison.
func (r *E9Result) Table() *Table {
	t := &Table{
		ID: "E9",
		Caption: fmt.Sprintf("Metadata storage — block directory (4 B/block floor) vs SCADDAR log (%d ops) + seeds",
			r.Config.Ops),
		Header: []string{"objects", "blocks/obj", "total blocks", "directory bytes", "scaddar bytes", "ratio"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.Objects), d(row.BlocksPer),
			fmt.Sprintf("%d", row.TotalBlocks),
			fmt.Sprintf("%d", row.DirectoryBytes),
			fmt.Sprintf("%d", row.ScaddarBytes),
			fmt.Sprintf("%.0fx", row.Ratio),
		})
	}
	return t
}
