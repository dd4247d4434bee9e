package workload

import "s3fifo/internal/trace"

// Profile describes one of the paper's 14 trace datasets (Table 1) as a
// parameterized synthetic workload. The parameters were chosen so the
// generated traces reproduce the statistics Table 1 reports — cache type,
// requests-per-object ratio, skew, scan share, and the one-hit-wonder
// ratios of the full trace and of 10%/1% sub-sequences — which §3 argues
// are the workload properties eviction performance is sensitive to.
type Profile struct {
	// Name matches the paper's dataset label.
	Name string
	// CacheType is "block", "kv", or "object".
	CacheType string
	// Base is the generator configuration for a canonical trace of this
	// dataset. Objects/Requests scale with the harness's -scale flag.
	Base Config
	// Traces is the relative number of traces this dataset contributes to
	// the corpus (scaled down from the paper's counts, preserving ratios).
	Traces int
	// Target records Table 1's reported one-hit-wonder ratios for the
	// real dataset (full trace / 10% sub-sequence / 1% sub-sequence); the
	// generator parameters are calibrated against these.
	Target [3]float64
}

// Profiles lists all 14 datasets. The corpus used by the evaluation
// harness generates `Traces` variants of each by varying the seed and
// jittering skew ±10%.
var Profiles = []Profile{
	// Block workloads: moderate skew, scan/loop content, high
	// one-hit-wonder ratios on sub-sequences (MSR 0.56 full / 0.74 @10%).
	// Parameters were calibrated against the Table 1 targets with
	// s3sim onehit -mode table1 (see EXPERIMENTS.md for measured values).
	{Name: "msr", CacheType: "block", Traces: 4, Target: [3]float64{0.56, 0.74, 0.86},
		Base: Config{Objects: 80_000, Requests: 1_000_000, Alpha: 0.8, OneHitFraction: 0.046, ScanFraction: 0.04, LoopFraction: 0.02, TemporalBias: 0.25, TemporalDepth: 512}},
	{Name: "fiu", CacheType: "block", Traces: 3, Target: [3]float64{0.28, 0.91, 0.91},
		Base: Config{Objects: 80_000, Requests: 2_000_000, Alpha: 0.3, OneHitFraction: 0.0077, ScanFraction: 0.008, LoopFraction: 0.02, TemporalBias: 0.05, TemporalDepth: 2048}},
	{Name: "cloudphysics", CacheType: "block", Traces: 8, Target: [3]float64{0.40, 0.71, 0.80},
		Base: Config{Objects: 100_000, Requests: 1_300_000, Alpha: 0.7, OneHitFraction: 0.012, ScanFraction: 0.03, LoopFraction: 0.02, TemporalBias: 0.25, TemporalDepth: 512}},
	{Name: "systor", CacheType: "block", Traces: 3, Target: [3]float64{0.37, 0.80, 0.94},
		Base: Config{Objects: 90_000, Requests: 2_500_000, Alpha: 0.45, OneHitFraction: 0.0089, ScanFraction: 0.012, LoopFraction: 0.02, TemporalBias: 0.25, TemporalDepth: 1024}},
	{Name: "tencent_cbs", CacheType: "block", Traces: 10, Target: [3]float64{0.25, 0.73, 0.77},
		Base: Config{Objects: 60_000, Requests: 2_000_000, Alpha: 0.55, OneHitFraction: 0.0019, ScanFraction: 0.006, LoopFraction: 0.015, TemporalBias: 0.4, TemporalDepth: 256}},
	{Name: "alibaba", CacheType: "block", Traces: 8, Target: [3]float64{0.36, 0.68, 0.81},
		Base: Config{Objects: 90_000, Requests: 1_500_000, Alpha: 0.7, ScanFraction: 0.03, LoopFraction: 0.02, TemporalBias: 0.3, TemporalDepth: 512}},

	// Object/CDN workloads: larger one-hit-wonder share even on the full
	// trace (0.42-0.61), lognormal object sizes.
	{Name: "cdn1", CacheType: "object", Traces: 8, Target: [3]float64{0.42, 0.58, 0.70},
		Base: Config{Objects: 120_000, Requests: 1_000_000, Alpha: 1.2, OneHitFraction: 0.0021, TemporalBias: 0.3, TemporalDepth: 128, MeanSize: 64 << 10, SizeSigma: 1.5}},
	{Name: "tencent_photo", CacheType: "object", Traces: 2, Target: [3]float64{0.55, 0.66, 0.74},
		Base: Config{Objects: 150_000, Requests: 1_000_000, Alpha: 1.1, OneHitFraction: 0.0253, TemporalBias: 0.25, TemporalDepth: 128, MeanSize: 24 << 10, SizeSigma: 1.2}},
	{Name: "wiki_cdn", CacheType: "object", Traces: 3, Target: [3]float64{0.46, 0.60, 0.80},
		Base: Config{Objects: 80_000, Requests: 900_000, Alpha: 1.1, OneHitFraction: 0.0159, TemporalBias: 0.25, TemporalDepth: 256, MeanSize: 48 << 10, SizeSigma: 1.6}},
	{Name: "cdn2", CacheType: "object", Traces: 10, Target: [3]float64{0.49, 0.58, 0.64},
		Base: Config{Objects: 110_000, Requests: 1_000_000, Alpha: 1.25, OneHitFraction: 0.0062, TemporalBias: 0.3, TemporalDepth: 96, MeanSize: 96 << 10, SizeSigma: 1.8}},
	{Name: "meta_cdn", CacheType: "object", Traces: 3, Target: [3]float64{0.61, 0.76, 0.81},
		Base: Config{Objects: 100_000, Requests: 450_000, Alpha: 1.0, OneHitFraction: 0.0704, TemporalBias: 0.2, TemporalDepth: 256, MeanSize: 512 << 10, SizeSigma: 1.4}},

	// Key-value workloads: heavy skew, tight temporal reuse, long traces
	// relative to footprint, low full-trace one-hit-wonder ratio (Twitter
	// 0.19, Social 0.17), frequent deletes, tiny objects.
	{Name: "twitter", CacheType: "kv", Traces: 6, Target: [3]float64{0.19, 0.32, 0.42},
		Base: Config{Objects: 70_000, Requests: 1_700_000, Alpha: 1.0, OneHitFraction: 0.0004, TemporalBias: 0.75, TemporalDepth: 16, DeleteFraction: 0.01, MeanSize: 300, SizeSigma: 1.0}},
	{Name: "social1", CacheType: "kv", Traces: 8, Target: [3]float64{0.17, 0.28, 0.37},
		Base: Config{Objects: 80_000, Requests: 1_700_000, Alpha: 1.0, TemporalBias: 0.8, TemporalDepth: 12, DeleteFraction: 0.02, MeanSize: 200, SizeSigma: 0.9}},
	{Name: "meta_kv", CacheType: "kv", Traces: 3, Target: [3]float64{0.51, 0.53, 0.61},
		Base: Config{Objects: 60_000, Requests: 1_200_000, Alpha: 1.1, OneHitFraction: 0.0233, TemporalBias: 0.45, TemporalDepth: 96, DeleteFraction: 0.01, MeanSize: 400, SizeSigma: 1.1}},
}

// ProfileByName returns the named profile, or false when unknown.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// seedFor derives a stable per-trace seed from the dataset name and index.
func seedFor(name string, variant int) int64 {
	h := int64(1469598103934665603)
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h*31 + int64(variant)
}

// Generate produces variant i of the profile at the given scale factor
// (scale 1.0 = the canonical parameters; smaller scales shrink footprint
// and length proportionally for quick runs). Variants jitter skew by ±10%
// to mimic per-tenant diversity within a dataset.
func (p Profile) Generate(variant int, scale float64) trace.Trace {
	cfg := p.Base
	if scale > 0 && scale != 1 {
		cfg.Objects = max(int(float64(cfg.Objects)*scale), 100)
		cfg.Requests = max(int(float64(cfg.Requests)*scale), 1000)
	}
	// Deterministic jitter per variant.
	jitter := 1 + 0.1*float64(variant%5-2)/2 // 0.9 .. 1.1
	cfg.Alpha *= jitter
	return Generate(cfg, seedFor(p.Name, variant))
}

// TraceSpec identifies one corpus trace without materializing it.
type TraceSpec struct {
	Profile Profile
	Variant int
	Scale   float64
}

// Name returns a unique label like "msr/3".
func (s TraceSpec) Name() string {
	return s.Profile.Name + "/" + itoa(s.Variant)
}

// Materialize generates the trace.
func (s TraceSpec) Materialize() trace.Trace { return s.Profile.Generate(s.Variant, s.Scale) }

// Corpus enumerates every trace in the evaluation corpus at the given
// scale. It is deterministic: the same scale yields the same specs.
func Corpus(scale float64) []TraceSpec {
	var specs []TraceSpec
	for _, p := range Profiles {
		for v := 0; v < p.Traces; v++ {
			specs = append(specs, TraceSpec{Profile: p, Variant: v, Scale: scale})
		}
	}
	return specs
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
