package harness

import "testing"

// TestHerdAmplification is the acceptance test for the anti-stampede
// stack (ISSUE 10): a 1000-key hot set expiring at one instant under
// 12 pipelined binary clients over real TCP. Naive serving must show
// the herd (every client refetches every key: amplification >= 10x);
// coalescing+leases must flatten it to nearly one backend fill per key
// (<= 1.2x), with zero client-visible errors in both modes.
func TestHerdAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size herd: waits out a real TTL expiry under load")
	}
	base := HerdConfig{
		HotKeys: 1000,
		Workers: 12,
		Rounds:  1,
	}

	off := base
	off.Mode = "off"
	offRes, err := Herd(off)
	if err != nil {
		t.Fatalf("herd off: %v", err)
	}
	t.Logf("off:   amplification %.2f (%d fills / %d keys), %d errors, %v",
		offRes.Amplification, offRes.HotFills, offRes.HotKeys, offRes.ClientErrors, offRes.Elapsed)

	lease := base
	lease.Mode = "lease"
	leaseRes, err := Herd(lease)
	if err != nil {
		t.Fatalf("herd lease: %v", err)
	}
	t.Logf("lease: amplification %.2f (%d fills / %d keys), %d stale served, %d errors, %v",
		leaseRes.Amplification, leaseRes.HotFills, leaseRes.HotKeys,
		leaseRes.StaleServed, leaseRes.ClientErrors, leaseRes.Elapsed)

	if offRes.ClientErrors != 0 || leaseRes.ClientErrors != 0 {
		t.Fatalf("client errors: off=%d lease=%d, want zero in both modes",
			offRes.ClientErrors, leaseRes.ClientErrors)
	}
	if offRes.Amplification < 10 {
		t.Fatalf("off-mode amplification %.2f < 10x: the naive herd never formed (12 lockstep workers)",
			offRes.Amplification)
	}
	if leaseRes.Amplification > 1.2 {
		t.Fatalf("lease-mode amplification %.2f > 1.2x: coalescing+leases failed to absorb the herd",
			leaseRes.Amplification)
	}
}

// TestHerdSmallRun is the CI-sized herd smoke: a small synchronized
// expiry driven through real TCP in the naive and lease modes. It
// asserts the direction of the result (leases strictly reduce backend
// fill amplification, nobody sees an error), leaving the full-size
// ratio assertions to TestHerdAmplification.
func TestHerdSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("herd smoke waits out a real TTL expiry")
	}
	base := HerdConfig{
		HotKeys:       64,
		Workers:       4,
		Rounds:        1,
		MissingKeys:   8,
		OneHitWonders: 50,
		BurstScan:     50,
	}

	off := base
	off.Mode = "off"
	offRes, err := Herd(off)
	if err != nil {
		t.Fatalf("herd off: %v", err)
	}
	lease := base
	lease.Mode = "lease"
	leaseRes, err := Herd(lease)
	if err != nil {
		t.Fatalf("herd lease: %v", err)
	}

	for _, r := range []HerdResult{offRes, leaseRes} {
		if r.ClientErrors != 0 {
			t.Fatalf("mode %s: %d client errors", r.Mode, r.ClientErrors)
		}
		if r.HotLookups == 0 {
			t.Fatalf("mode %s: no hot lookups recorded", r.Mode)
		}
	}
	if offRes.Amplification < 1 {
		t.Fatalf("off-mode amplification %.2f < 1: the herd never formed", offRes.Amplification)
	}
	if leaseRes.Amplification >= offRes.Amplification {
		t.Fatalf("lease amplification %.2f did not improve on off %.2f",
			leaseRes.Amplification, offRes.Amplification)
	}
	if leaseRes.LeaseGrants == 0 {
		t.Fatalf("lease mode granted no leases")
	}
	if leaseRes.MissingProbes >= leaseRes.MissingLookups && leaseRes.MissingLookups > 8 {
		t.Fatalf("negative caching absorbed nothing: %d probes for %d missing lookups",
			leaseRes.MissingProbes, leaseRes.MissingLookups)
	}
}
