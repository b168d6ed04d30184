package main

import (
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the collector process the live
// workloads start.
func TestMain(m *testing.M) {
	if env := os.Getenv(collectorEnv); env != "" {
		if err := runCollector(env, os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for about a second at a low rate with all
// checks on, brute traced, so the harness itself stays tested.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.workload = w
			cfg.seconds = 1
			cfg.warmup = 200 * time.Millisecond
			cfg.setups = 1
			cfg.dir = t.TempDir()
			if w == "brute" {
				cfg.trace = true
				cfg.spans = filepath.Join(cfg.dir, "spans.jsonl")
			}
			spec := liveWorkloads[w]
			spec.rate /= 10
			res, err := runLive(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			rec := res.finish()
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("check %s: %s", c.name, c.detail)
				}
			}
			if !rec.Correct || rec.Failed != 0 || len(rec.Metrics) != len(res.reported()) {
				t.Errorf("correct %v, %d of %d failed, %d of %d metrics", rec.Correct, rec.Failed, rec.Attempted,
					len(rec.Metrics), len(res.reported()))
			}
			if cfg.trace {
				if err := summarize(testWriter{t}, cfg.spans); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) {
	w.t.Log(string(b))
	return len(b), nil
}
