package concurrent

import (
	"bytes"
	"testing"

	"s3fifo/internal/telemetry"
)

// sampleCount reads how many samples h holds off its exposition's _count
// line.
func sampleCount(t *testing.T, h *telemetry.Histogram) float64 {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Histogram("replay_seconds", "replay latency", nil).Merge(h)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return vals["replay_seconds_count"]
}

func TestReplayReportsLatency(t *testing.T) {
	w := NewZipfWorkload(1000, 10000, 1.0, 16, 3)
	c := NewS3FIFO(100)
	Warm(c, w)
	r := Replay(c, w, 2, 4000)
	if sampleCount(t, &r.Latency) == 0 {
		t.Fatal("replay recorded no latency samples")
	}
	// 1-in-16 sampling of 8000 ops → ~500 samples.
	if got := sampleCount(t, &r.Latency); got < 400 || got > 1000 {
		t.Errorf("sample count = %v, want ~500", got)
	}
	if r.P50() <= 0 || r.P99() < r.P50() || r.P999() < r.P99() {
		t.Errorf("percentiles not sane: p50=%v p99=%v p999=%v", r.P50(), r.P99(), r.P999())
	}
	if r.Shards == 0 {
		t.Error("s3fifo replay should report its shard count")
	}
}
