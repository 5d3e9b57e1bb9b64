package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Shared JSON-report plumbing for the real-benchmark subcommands
// (selbench, obsbench, adaptbench, distbench): every BENCH_*.json
// document carries the same generation header and is written the same
// way.

// reportMeta is the header every benchmark report shares. Embed it
// first so the fields lead the JSON document.
type reportMeta struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
}

// newReportMeta stamps a header for a report generated now.
func newReportMeta() reportMeta {
	return reportMeta{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
}

// writeReport marshals report (indented, trailing newline) and writes
// it to path; "-" writes to stdout only.
func writeReport(path string, report any) error {
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
