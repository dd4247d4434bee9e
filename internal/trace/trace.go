// Package trace defines the request model shared by every simulator,
// workload generator, and analysis tool in this repository, together with
// binary and CSV codecs for persisting traces to disk.
//
// A trace is a sequence of Requests. Requests carry a 64-bit object ID, an
// object size in bytes, and an operation. Most of the paper's experiments
// ignore object size (slab storage, §5.1.2 of the paper); size is used for
// byte-miss-ratio and flash experiments.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Op is the operation carried by a request.
type Op uint8

// Operations. Cache simulations treat Get misses as insertions
// (on-demand fill); Delete removes an object if present.
const (
	OpGet Op = iota
	OpSet
	OpDelete
)

// String returns the canonical lower-case name of the operation.
func (op Op) String() string {
	switch op {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Request is a single cache request.
type Request struct {
	// ID identifies the requested object.
	ID uint64
	// Size is the object size in bytes. Unit-size workloads use 1.
	Size uint32
	// Op is the operation; the zero value is OpGet.
	Op Op
}

// Trace is an in-memory request sequence.
type Trace []Request

// UniqueObjects returns the number of distinct object IDs in t.
func (t Trace) UniqueObjects() int {
	seen := make(map[uint64]struct{}, len(t)/2+1)
	for _, r := range t {
		seen[r.ID] = struct{}{}
	}
	return len(seen)
}

// FootprintBytes returns the total size of distinct objects in t, using the
// size seen on each object's first appearance.
func (t Trace) FootprintBytes() uint64 {
	seen := make(map[uint64]struct{}, len(t)/2+1)
	var total uint64
	for _, r := range t {
		if _, ok := seen[r.ID]; ok {
			continue
		}
		seen[r.ID] = struct{}{}
		total += uint64(r.Size)
	}
	return total
}

// TotalBytes returns the sum of request sizes across the whole trace.
func (t Trace) TotalBytes() uint64 {
	var total uint64
	for _, r := range t {
		total += uint64(r.Size)
	}
	return total
}

// Reader yields requests one at a time. Implementations return io.EOF when
// the stream is exhausted.
type Reader interface {
	Read() (Request, error)
}

// ReadAll drains r into an in-memory trace.
func ReadAll(r Reader) (Trace, error) {
	var t Trace
	for {
		req, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return t, nil
			}
			return t, err
		}
		t = append(t, req)
	}
}

// binaryMagic guards the binary trace format. Format: magic, then for each
// request a fixed 13-byte little-endian record: id u64, size u32, op u8.
var binaryMagic = [4]byte{'S', '3', 'T', '1'}

const binaryRecordSize = 13

// BinaryWriter encodes requests in the repository's compact binary format.
type BinaryWriter struct {
	w       *bufio.Writer
	started bool
}

// NewBinaryWriter returns a writer that encodes to w. Call Flush when done.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write appends one request.
func (bw *BinaryWriter) Write(r Request) error {
	if !bw.started {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.started = true
	}
	var rec [binaryRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], r.ID)
	binary.LittleEndian.PutUint32(rec[8:12], r.Size)
	rec[12] = byte(r.Op)
	_, err := bw.w.Write(rec[:])
	return err
}

// Flush writes any buffered data, emitting the header even for an empty
// trace so the output is always a valid trace file.
func (bw *BinaryWriter) Flush() error {
	if !bw.started {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.started = true
	}
	return bw.w.Flush()
}

// BinaryReader decodes the binary trace format.
type BinaryReader struct {
	r       *bufio.Reader
	started bool
}

// NewBinaryReader returns a Reader decoding from r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Read returns the next request or io.EOF.
func (br *BinaryReader) Read() (Request, error) {
	if !br.started {
		var magic [4]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return Request{}, fmt.Errorf("trace: truncated header")
			}
			return Request{}, err
		}
		if magic != binaryMagic {
			return Request{}, fmt.Errorf("trace: bad magic %q", magic[:])
		}
		br.started = true
	}
	var rec [binaryRecordSize]byte
	if _, err := io.ReadFull(br.r, rec[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Request{}, fmt.Errorf("trace: truncated record")
		}
		return Request{}, err
	}
	return Request{
		ID:   binary.LittleEndian.Uint64(rec[0:8]),
		Size: binary.LittleEndian.Uint32(rec[8:12]),
		Op:   Op(rec[12]),
	}, nil
}

// CSVWriter encodes requests as "id,size,op" lines.
type CSVWriter struct {
	w *bufio.Writer
}

// NewCSVWriter returns a CSV trace writer. Call Flush when done.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: bufio.NewWriter(w)} }

// Write appends one request as a CSV line.
func (cw *CSVWriter) Write(r Request) error {
	_, err := fmt.Fprintf(cw.w, "%d,%d,%s\n", r.ID, r.Size, r.Op)
	return err
}

// Flush writes any buffered data.
func (cw *CSVWriter) Flush() error { return cw.w.Flush() }

// CSVReader decodes "id,size,op" lines; op defaults to get when omitted and
// size defaults to 1 when omitted, so bare "id" lines are valid.
type CSVReader struct {
	s    *bufio.Scanner
	line int
}

// NewCSVReader returns a Reader decoding CSV lines from r.
func NewCSVReader(r io.Reader) *CSVReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &CSVReader{s: s}
}

// Read returns the next request or io.EOF.
func (cr *CSVReader) Read() (Request, error) {
	for cr.s.Scan() {
		cr.line++
		line := strings.TrimSpace(cr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := parseCSVLine(line)
		if err != nil {
			return Request{}, fmt.Errorf("trace: line %d: %w", cr.line, err)
		}
		return req, nil
	}
	if err := cr.s.Err(); err != nil {
		return Request{}, err
	}
	return Request{}, io.EOF
}

func parseCSVLine(line string) (Request, error) {
	fields := strings.Split(line, ",")
	req := Request{Size: 1, Op: OpGet}
	id, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad id %q", fields[0])
	}
	req.ID = id
	if len(fields) > 1 && strings.TrimSpace(fields[1]) != "" {
		size, err := strconv.ParseUint(strings.TrimSpace(fields[1]), 10, 32)
		if err != nil {
			return Request{}, fmt.Errorf("bad size %q", fields[1])
		}
		req.Size = uint32(size)
	}
	if len(fields) > 2 {
		switch op := strings.TrimSpace(fields[2]); op {
		case "get", "":
			req.Op = OpGet
		case "set":
			req.Op = OpSet
		case "delete", "del":
			req.Op = OpDelete
		default:
			return Request{}, fmt.Errorf("bad op %q", op)
		}
	}
	return req, nil
}
