package cache_test

import (
	"bytes"
	"fmt"
	"os"

	"s3fifo/cache"
)

func Example() {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		panic(err)
	}
	c.Set("answer", []byte("42"))
	if v, ok := c.Get("answer"); ok {
		fmt.Printf("answer = %s\n", v)
	}
	_, ok := c.Get("question")
	fmt.Printf("question cached: %v\n", ok)
	// Output:
	// answer = 42
	// question cached: false
}

func ExampleNew_policySelection() {
	// Any algorithm from the paper's evaluation can back the cache.
	for _, policy := range []string{"s3fifo", "lru", "arc", "tinylfu"} {
		c, err := cache.New(cache.Config{MaxBytes: 1 << 20, Policy: policy})
		if err != nil {
			panic(err)
		}
		c.Set("k", []byte("v"))
		fmt.Println(policy, c.Contains("k"))
	}
	// Output:
	// s3fifo true
	// lru true
	// arc true
	// tinylfu true
}

func ExampleCache_Stats() {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 20})
	c.Set("a", []byte("1"))
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	fmt.Printf("hits=%d misses=%d ratio=%.2f\n", st.Hits, st.Misses, st.HitRatio())
	// Output:
	// hits=2 misses=1 ratio=0.67
}

func ExampleCache_Save() {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 20})
	c.Set("session", []byte("state"))

	// Persist across a restart.
	var snapshot bytes.Buffer
	if err := c.Save(&snapshot); err != nil {
		panic(err)
	}
	restored, err := cache.Load(&snapshot, cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		panic(err)
	}
	v, _ := restored.Get("session")
	fmt.Printf("restored session = %s\n", v)
	// Output:
	// restored session = state
}

func ExampleConfig_flashTier() {
	dir, err := os.MkdirTemp("", "s3f")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	c, err := cache.New(cache.Config{
		MaxBytes:   4 << 10, // tier 1: DRAM
		FlashDir:   dir,     // tier 2: log-structured flash store
		FlashBytes: 1 << 20,
		Admission:  "ghost", // or "all", "freq", "prob"
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	value := bytes.Repeat([]byte("v"), 100)
	c.Set("wanted", value)
	// One-hit wonders push "wanted" out of DRAM. Nothing asked for it while
	// it was resident, so ghost admission declines to write it to flash.
	flood := func() {
		for i := 0; c.Contains("wanted") && i < 1000; i++ {
			c.Set(fmt.Sprintf("flood-%d", i), value)
		}
	}
	flood()
	_, ok := c.Get("wanted")
	fmt.Println("after the first flood, wanted cached:", ok)

	// Asked for while absent, it is remembered by the ghost queue: the
	// caller's re-Set writes it through to flash, where it outlives the
	// next flood.
	c.Set("wanted", value)
	flood()
	_, ok = c.Get("wanted")
	st := c.Stats()
	fmt.Println("after the second flood, wanted cached:", ok)
	fmt.Println("served from flash:", st.FlashHits, "flash written:", st.FlashBytesWritten > 0)
	// Output:
	// after the first flood, wanted cached: false
	// after the second flood, wanted cached: true
	// served from flash: 1 flash written: true
}
