package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
)

// TestDeleteReply pins what DELETE answers now that it asks the cache
// once (Cache.Delete's own report) where it used to probe Contains first:
// held in DRAM or only in the second tier -> deleted; absent, already
// deleted, or expired but not yet reaped -> not found. Both protocols.
func TestDeleteReply(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/binary=%v", served, binary), func(t *testing.T) {
			t.Parallel() // each case sleeps out a one-second TTL
			addr, srv := startServerOpts(t, cache.Config{MaxBytes: 16 << 10, Shards: 1,
				FlashDir: t.TempDir(), FlashBytes: 4 << 20})
			t.Cleanup(func() { srv.cache.Close() })
			c := dialBinary(t, addr, client.Options{Binary: binary})

			// ~60 KB through a 16 KB cache: the early keys live on flash only.
			const keys = 200
			for i := 0; i < keys; i++ {
				if ok, err := c.Set(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte("v"), 300)); err != nil || !ok {
					t.Fatalf("Set key-%03d = %v, %v", i, ok, err)
				}
			}
			if srv.cache.Stats().Demotions == 0 {
				t.Fatal("nothing was demoted; the flash-only case is not covered")
			}
			if ok, err := c.SetWithTTL("short-lived", []byte("v"), time.Second); err != nil || !ok {
				t.Fatalf("SetWithTTL = %v, %v", ok, err)
			}
			time.Sleep(1100 * time.Millisecond) // expired now, and nothing has looked at it since

			resident := fmt.Sprintf("key-%03d", keys-1)
			for _, tc := range []struct {
				name, key string
				want      bool
			}{
				{"resident in DRAM", resident, true},
				{"same key again", resident, false},
				{"on flash only", "key-000", true},
				{"same flash key again", "key-000", false},
				{"never stored", "no-such-key", false},
				{"expired, not yet reaped", "short-lived", false},
			} {
				if got, err := c.Delete(tc.key); err != nil || got != tc.want {
					t.Errorf("%s: Delete(%s) = %v, %v; want %v", tc.name, tc.key, got, err, tc.want)
				}
				if _, ok, _ := c.Get(tc.key); ok {
					t.Errorf("%s: %s readable after Delete", tc.name, tc.key)
				}
			}
		})
	}
}
