package client_test

import (
	"fmt"
	"net"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
)

// Example runs the cache server and its Go client in one process: the
// memcached-style deployment the paper's algorithms ship in.
func Example() {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		panic(err)
	}
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	for _, key := range []string{"user:1", "user:2", "user:1"} {
		// Look aside: on a miss, fetch from the origin and fill the cache.
		if v, ok, err := cl.Get(key); err != nil {
			panic(err)
		} else if ok {
			fmt.Printf("%s hit: %s\n", key, v)
		} else if _, err := cl.Set(key, []byte("profile of "+key)); err != nil {
			panic(err)
		} else {
			fmt.Printf("%s miss, filled\n", key)
		}
	}
	stats, err := cl.Stats()
	if err != nil {
		panic(err)
	}
	fmt.Printf("hits %d, misses %d, entries %d\n", stats["hits"], stats["misses"], stats["entries"])
	// Output:
	// user:1 miss, filled
	// user:2 miss, filled
	// user:1 hit: profile of user:1
	// hits 1, misses 2, entries 2
}
