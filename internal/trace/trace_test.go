package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpGet: "get", OpSet: "set", OpDelete: "delete", Op(9): "op(9)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestUniqueObjects(t *testing.T) {
	tr := Trace{{ID: 1}, {ID: 2}, {ID: 1}, {ID: 3}, {ID: 2}}
	if got := tr.UniqueObjects(); got != 3 {
		t.Errorf("UniqueObjects = %d, want 3", got)
	}
	if got := Trace(nil).UniqueObjects(); got != 0 {
		t.Errorf("empty UniqueObjects = %d, want 0", got)
	}
}

func TestFootprintBytes(t *testing.T) {
	tr := Trace{{ID: 1, Size: 10}, {ID: 2, Size: 20}, {ID: 1, Size: 99}}
	// First-seen size wins for object 1.
	if got := tr.FootprintBytes(); got != 30 {
		t.Errorf("FootprintBytes = %d, want 30", got)
	}
	if got := tr.TotalBytes(); got != 129 {
		t.Errorf("TotalBytes = %d, want 129", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := Trace{
		{ID: 0, Size: 0, Op: OpGet},
		{ID: 1<<64 - 1, Size: 1<<32 - 1, Op: OpDelete},
		{ID: 42, Size: 4096, Op: OpSet},
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range tr {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip = %v, want %v", got, tr)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(ids []uint64, sizes []uint32) bool {
		var tr Trace
		for i, id := range ids {
			size := uint32(1)
			if i < len(sizes) {
				size = sizes[i]
			}
			tr = append(tr, Request{ID: id, Size: size, Op: Op(i % 3)})
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range tr {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(NewBinaryReader(&buf))
		if err != nil {
			return false
		}
		if len(tr) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinaryEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d requests, want 0", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewBinaryReader(strings.NewReader("NOPE rest of data"))
	if _, err := r.Read(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("err = %v, want bad magic", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(Request{ID: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	_, err := ReadAll(NewBinaryReader(bytes.NewReader(data)))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err = %v, want truncated", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace{{ID: 1, Size: 100, Op: OpGet}, {ID: 2, Size: 1, Op: OpDelete}}
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, r := range tr {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewCSVReader(&buf))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip = %v, want %v", got, tr)
	}
}

func TestCSVDefaultsAndComments(t *testing.T) {
	in := "# a comment\n7\n\n8,\n9,512\n10,2,del\n"
	got, err := ReadAll(NewCSVReader(strings.NewReader(in)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := Trace{
		{ID: 7, Size: 1, Op: OpGet},
		{ID: 8, Size: 1, Op: OpGet},
		{ID: 9, Size: 512, Op: OpGet},
		{ID: 10, Size: 2, Op: OpDelete},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCSVErrors(t *testing.T) {
	for _, in := range []string{"notanumber\n", "1,big\n", "1,1,frobnicate\n"} {
		if _, err := ReadAll(NewCSVReader(strings.NewReader(in))); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reqs := make(Trace, 4096)
	for i := range reqs {
		reqs[i] = Request{ID: rng.Uint64(), Size: 4096}
	}
	b.ReportAllocs()
	b.ResetTimer()
	w := NewBinaryWriter(io.Discard)
	for i := 0; i < b.N; i++ {
		if err := w.Write(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}
