// The results layer: per-cell summary.json files (the byte-reproducible
// artifacts of the determinism contract) and the sweep-level report.json
// and bench.json aggregates.

package lab

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/fsx"
	"repro/internal/wire"
)

// writeCellSummary writes results/<stamp>/<cell>/summary.json. The file is
// indented, key-ordered json.MarshalIndent output with a trailing newline —
// fully determined by the summary value, which is what makes the
// determinism contract a byte comparison.
func writeCellSummary(outDir string, sum wire.LabCellSummary) error {
	dir := filepath.Join(outDir, sum.Cell)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "summary.json"), sum)
}

// writeReport writes the sweep aggregates: report.json (the full
// cross-cell view) and bench.json (the compact lab_matrix entry).
func writeReport(outDir string, report *wire.LabReport) error {
	if err := writeJSON(filepath.Join(outDir, "report.json"), report); err != nil {
		return err
	}
	return writeJSON(filepath.Join(outDir, "bench.json"), report.Bench)
}

// writeJSON marshals v indented and writes it through fsx.WriteFileAtomic
// (tmp + fsync + rename), so a sweep interrupted mid-write — or a system
// crash right after it — never leaves a torn or zero-length summary a
// resume would half-trust.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return fsx.WriteFileAtomic(path, data, nil)
}
