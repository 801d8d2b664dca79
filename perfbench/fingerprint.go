package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// fingerprint is what a cell simulated. A change that only speeds the
// simulator up must leave every fingerprint unchanged.
type fingerprint struct {
	Cycles int64 `json:"cycles"`
	Instrs int64 `json:"instrs"`
}

// fingerprints maps scale/workload/bench/config to the cell's fingerprint.
type fingerprints map[string]fingerprint

//go:embed fingerprints.json
var recordedJSON []byte

func recorded() (fingerprints, error) {
	var f fingerprints
	if err := json.Unmarshal(recordedJSON, &f); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return f, nil
}

// write stores the fingerprints as indented JSON with sorted keys.
func (f fingerprints) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
