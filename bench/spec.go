package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// spec is BENCHMARK.json at the repository root: the workload list and
// every metric's name, unit, direction and (end-to-end only) regression
// bound. The program reports exactly the metrics it names.
type spec struct {
	Workloads []workload   `json:"workloads"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findSpec locates BENCHMARK.json from the repository root (where the
// ledger is normally run) or from bench/ (go run ., go test).
func findSpec() string {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, errors.New(path + ": no workloads or no end-to-end metrics")
	}
	return &s, nil
}

// metricsFor is the metric list a run reports: end-to-end untraced,
// per-layer traced.
func (s *spec) metricsFor(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
