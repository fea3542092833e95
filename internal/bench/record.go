package bench

import (
	"encoding/json"
	"io"
)

// Record is one machine-readable measurement: experiment name, metric
// name (qualified by labels such as {alloc=slub,size=512}), value and
// unit. cmd/prudence-bench's -json flag emits a list of these for every
// experiment it runs, so the performance trajectory of the repository
// can be tracked across changes.
type Record struct {
	Exp    string  `json:"exp"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// WriteRecords writes records as indented JSON.
func WriteRecords(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
