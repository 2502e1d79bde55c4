package main

import (
	"bytes"
	"os"
	"path/filepath"

	"scaddar/internal/gateway"
	"scaddar/internal/obs"
)

// scrape renders a registry in the exposition format GET /v1/metrics serves
// and parses it back — the same cells and the same code path a dashboard
// reads, without a socket in the way of the measurement.
func scrape(reg *obs.Registry) *obs.MetricSet {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return obs.NewMetricSet(nil)
	}
	samples, err := obs.ParseText(&b)
	if err != nil {
		return obs.NewMetricSet(nil)
	}
	return obs.NewMetricSet(samples)
}

// delta is after − before for one unlabelled series (before may be nil).
func delta(before, after *obs.MetricSet, name string) float64 {
	v, _ := after.Value(name)
	if before != nil {
		b, _ := before.Value(name)
		v -= b
	}
	return v
}

// meanMS is a histogram's mean over the interval, in milliseconds: the
// _sum delta over the _count delta.
func meanMS(before, after *obs.MetricSet, family string) float64 {
	n := delta(before, after, family+"_count")
	if n <= 0 {
		return 0
	}
	return delta(before, after, family+"_sum") / n * 1e3
}

// tickMeanMS is round_busy_ms over a gateway's whole life: the mean wall
// time of its rounds.
func tickMeanMS(gw *gateway.Gateway) float64 {
	return meanMS(nil, scrape(gw.Registry()), "gateway_tick_seconds")
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	_ = filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// copyDir copies the regular files directly under src into dst, as they lie.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
