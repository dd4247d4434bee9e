package proto

import (
	"bytes"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		op    Op
		ttl   uint32
		id    uint32
		key   string
		value []byte
	}{
		{"get", OpGet, 0, 1, "user:42", nil},
		{"set", OpSet, 0, 2, "k", []byte("hello")},
		{"set-ttl", OpSet, 3600, 1 << 30, "k", []byte("hello")},
		{"set-empty-value", OpSet, 0, 3, "k", []byte{}},
		{"delete", OpDelete, 0, 4, "gone", nil},
		{"stats", OpStats, 0, 5, "", nil},
		{"ping", OpPing, 0, 0, "", nil},
		{"max-key", OpGet, 0, 6, string(bytes.Repeat([]byte("k"), MaxKeyLen)), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := AppendRequest(nil, c.op, c.ttl, c.id, c.key, c.value)
			if want := HeaderLen + len(c.key) + len(c.value); len(frame) != want {
				t.Fatalf("frame length = %d, want %d", len(frame), want)
			}
			h, err := ParseRequestHeader(frame)
			if err != nil {
				t.Fatalf("ParseRequestHeader: %v", err)
			}
			if h.Op != c.op || h.TTL != c.ttl || h.ID != c.id {
				t.Fatalf("decoded %+v, want op=%v ttl=%d id=%d", h, c.op, c.ttl, c.id)
			}
			if h.KeyLen != len(c.key) || h.ValueLen != len(c.value) {
				t.Fatalf("decoded lengths %d/%d, want %d/%d", h.KeyLen, h.ValueLen, len(c.key), len(c.value))
			}
			body := frame[HeaderLen:]
			if string(body[:h.KeyLen]) != c.key {
				t.Fatalf("key bytes = %q, want %q", body[:h.KeyLen], c.key)
			}
			if !bytes.Equal(body[h.KeyLen:], c.value) {
				t.Fatalf("value bytes = %q, want %q", body[h.KeyLen:], c.value)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, status := range []Status{StatusOK, StatusMiss, StatusNotStored, StatusErr} {
		frame := AppendResponse(nil, status, 7, []byte("payload"))
		h, err := ParseResponseHeader(frame)
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if h.Status != status || h.ID != 7 || h.ValueLen != 7 {
			t.Fatalf("decoded %+v, want status=%d id=7 len=7", h, status)
		}
		if string(frame[HeaderLen:]) != "payload" {
			t.Fatalf("payload = %q", frame[HeaderLen:])
		}
	}
}

// TestParseRequestHeaderRejects drives every validation failure: the
// decoder must return the matching error, never a header with lengths a
// reader would then trust.
func TestParseRequestHeaderRejects(t *testing.T) {
	valid := func() []byte { return AppendRequest(nil, OpSet, 0, 1, "key", []byte("v")) }
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrShortHeader},
		{"empty", func(b []byte) []byte { return nil }, ErrShortHeader},
		{"bad-magic", func(b []byte) []byte { b[0] = 'g'; return b }, ErrBadMagic},
		{"resp-magic", func(b []byte) []byte { b[0] = MagicResp; return b }, ErrBadMagic},
		{"bad-opcode", func(b []byte) []byte { b[1] = 99; return b }, ErrBadOp},
		{"zero-opcode", func(b []byte) []byte { b[1] = 0; return b }, ErrBadOp},
		{"oversize-key", func(b []byte) []byte { b[2], b[3] = 0xff, 0xff; return b }, ErrKeyTooLong},
		{"oversize-value", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrValueTooLong},
		{"get-with-value", func(b []byte) []byte { b[1] = byte(OpGet); return b }, ErrBadFrame},
		{"get-empty-key", func(b []byte) []byte {
			b = AppendRequest(nil, OpGet, 0, 1, "k", nil)
			b[2], b[3] = 0, 0
			return b
		}, ErrBadFrame},
		{"stats-with-key", func(b []byte) []byte { b[1] = byte(OpStats); return b }, ErrBadFrame},
		{"ping-with-value", func(b []byte) []byte {
			b = AppendRequest(nil, OpPing, 0, 1, "", nil)
			b[11] = 1
			return b
		}, ErrBadFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseRequestHeader(c.mutate(valid())); err != c.want {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestParseResponseHeaderRejects(t *testing.T) {
	frame := AppendResponse(nil, StatusOK, 1, nil)
	if _, err := ParseResponseHeader(frame[:3]); err != ErrShortHeader {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = MagicReq
	if _, err := ParseResponseHeader(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[1] = 200
	if _, err := ParseResponseHeader(bad); err != ErrBadStatus {
		t.Fatalf("status: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := ParseResponseHeader(bad); err != ErrValueTooLong {
		t.Fatalf("value len: %v", err)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*b))
	}
	*b = AppendRequest(*b, OpGet, 0, 1, "k", nil)
	PutBuf(b)
	b2 := GetBuf()
	if len(*b2) != 0 {
		t.Fatalf("reused buffer not reset: len %d", len(*b2))
	}
	PutBuf(b2)
	// Oversize buffers must not be retained.
	big := make([]byte, 0, 128<<10)
	PutBuf(&big)
}
