package client

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzKeysPayload hardens the keys-export payload parser — the frame
// body a cluster router trusts a (possibly skewed) server to produce —
// against malformed lines: it must either parse or error, never panic,
// and whatever parses must round out to well-formed samples.
func FuzzKeysPayload(f *testing.F) {
	f.Add([]byte("KEY 3 alpha\r\nKEY 0 beta\r\n"))
	f.Add([]byte("KEY 15 key with spaces\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("KEY -1 negative\r\n"))
	f.Add([]byte("KEY notanumber k\r\n"))
	f.Add([]byte("STAT hits 4\r\n"))
	f.Add([]byte("KEY 1\r\n"))
	f.Add([]byte("KEY 9 \r\n"))
	f.Add([]byte("\r\n\r\nKEY 2 x\r\n"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		samples, err := parseKeysPayload(payload)
		if err != nil {
			return
		}
		for _, s := range samples {
			if strings.ContainsAny(s.Key, "\r\n") {
				t.Fatalf("parsed key %q contains line breaks", s.Key)
			}
		}
	})
}

// FuzzStatPayload hardens the stats payload parser, which both protocols'
// stats replies go through: it must either parse or error, never panic,
// and whatever parses must render back to lines that parse to the same
// map.
func FuzzStatPayload(f *testing.F) {
	f.Add([]byte("STAT engine concurrent\r\nSTAT hits 4\r\n"))
	f.Add([]byte("STAT node_id rack 1\r\n"))
	f.Add([]byte("STAT hit_ratio 0.5\n"))
	f.Add([]byte(""))
	f.Add([]byte("STAT hits\r\n"))
	f.Add([]byte("STAT  4\r\n"))
	f.Add([]byte("STAT empty \r\n"))
	f.Add([]byte("KEY 3 alpha\r\n"))
	f.Add([]byte("\r\n\r\nSTAT a b\rc\r\n"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		stats, err := parseStatPayload(payload)
		if err != nil {
			return
		}
		var again []byte
		for name, value := range stats {
			if name == "" || strings.ContainsAny(name, " \n") || strings.Contains(value, "\n") {
				t.Fatalf("parsed stat %q = %q", name, value)
			}
			again = append(again, "STAT "+name+" "+value+"\r\n"...)
		}
		reparsed, err := parseStatPayload(again)
		if err != nil {
			t.Fatalf("rendered stats do not parse: %v", err)
		}
		if !reflect.DeepEqual(reparsed, stats) {
			t.Fatalf("round trip: %q, want %q", reparsed, stats)
		}
	})
}
