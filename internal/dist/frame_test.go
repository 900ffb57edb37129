package dist

// Task-frame unit tests: round trip through both writers (response
// writeTo and request body), the reflection guard that no []byte field
// reaches the JSON header, the corruption table every frame reader
// must classify as runio.ErrCorrupt, and FuzzReadFrame.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

func sampleRequest() *TaskRequest {
	return &TaskRequest{
		Job:     NewJobRef("er/match", []byte(`{"spec":"SPEC-BYTES"}`)),
		Phase:   "reduce",
		M:       3,
		Task:    2,
		Attempt: 1,
		Input:   []byte("INPUT-BLOB\x00\xff\x01"),
		// A reduce request carries no input in practice; the frame does
		// not care.
		InputCount: 7,
		Sources: []SegmentRef{
			{MapTask: 0, URLs: []string{"http://a/run/1", "http://m/replica/1"}, Off: 16, Len: 40, Records: 3, CodeWidth: 16},
			{MapTask: 2, URLs: []string{"http://m/replica/3"}, Len: 9, Records: 1},
		},
	}
}

func sampleResponse() *TaskResponse {
	return &TaskResponse{
		Metrics: mapreduce.TaskMetrics{
			Kind: mapreduce.MapTask, Index: 1, InputRecords: 10, OutputRecords: 12,
			SideOutputRecords: 2, Comparisons: 5, Counters: map[string]int64{"x": 3},
		},
		Side:        []byte("SIDE-BLOB\x80"),
		SideCount:   2,
		RunURL:      "http://w/run/9",
		Output:      []byte("OUTPUT-BLOB"),
		OutputCount: 4,
	}
}

func encodeBytes(t testing.TB, msg framed) []byte {
	t.Helper()
	f, err := encodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != f.size {
		t.Fatalf("frame size %d, wrote %d bytes", f.size, buf.Len())
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	for _, msg := range []framed{sampleRequest(), sampleResponse(), &TaskRequest{Phase: "map"}, &TaskResponse{}} {
		wire := encodeBytes(t, msg)
		// The request-body reader yields the same bytes and runs its
		// done callback exactly once, on Close.
		f, _ := encodeFrame(msg)
		var done int
		body := f.body(func() { done++ })
		viaBody, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaBody, wire) {
			t.Fatalf("%T: body reader and writeTo disagree", msg)
		}
		body.Close()
		body.Close()
		if done != 1 {
			t.Fatalf("%T: done ran %d times on two Closes, want 1", msg, done)
		}
		if _, err := body.Read(make([]byte, 1)); !errors.Is(err, errBodyClosed) {
			t.Fatalf("%T: Read after Close: %v, want errBodyClosed", msg, err)
		}

		got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(framed)
		if err := readFrame(bytes.NewReader(wire), got); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestFrameHeaderCarriesNoBlobs pins the frame's point: every []byte
// field of the task messages travels as a raw section, none through
// the JSON header (where it would be base64-encoded).
func TestFrameHeaderCarriesNoBlobs(t *testing.T) {
	for _, msg := range []framed{sampleRequest(), sampleResponse()} {
		// Every []byte field, however deeply nested, is `json:"-"` and
		// is one of the message's sections.
		secs := map[*[]byte]bool{}
		for _, p := range msg.sections() {
			secs[p] = true
		}
		var found int
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			for i := 0; i < v.NumField(); i++ {
				f, fv := v.Type().Field(i), v.Field(i)
				switch {
				case f.Type == reflect.TypeOf([]byte(nil)):
					found++
					if tag := f.Tag.Get("json"); tag != "-" {
						t.Errorf("%s.%s: json tag %q, want \"-\" (a []byte field must not reach the header)", path, f.Name, tag)
					}
					if !secs[fv.Addr().Interface().(*[]byte)] {
						t.Errorf("%s.%s is not one of the message's sections", path, f.Name)
					}
				case f.Type.Kind() == reflect.Struct:
					walk(fv, path+"."+f.Name)
				}
			}
		}
		walk(reflect.ValueOf(msg).Elem(), reflect.TypeOf(msg).Elem().Name())
		if found != len(secs) {
			t.Errorf("%T: %d []byte fields, %d sections", msg, found, len(secs))
		}

		wire := encodeBytes(t, msg)
		hlen := binary.LittleEndian.Uint32(wire[8:])
		header := string(wire[framePrefixLen : framePrefixLen+int(hlen)])
		for _, p := range msg.sections() {
			if len(*p) == 0 {
				continue
			}
			if strings.Contains(header, string(*p)) || strings.Contains(header, base64.StdEncoding.EncodeToString(*p)) {
				t.Errorf("%T: header carries section bytes %q: %s", msg, *p, header)
			}
		}
	}
}

// frameMutation damages a valid encoded frame.
type frameMutation struct {
	name string
	mut  func(b []byte) []byte
}

// frameMutations are the wire damages every frame reader must refuse
// as runio.ErrCorrupt. Each assumes the frame's last section is
// non-empty.
var frameMutations = []frameMutation{
	{"empty body", func(b []byte) []byte { return nil }},
	{"truncated prefix", func(b []byte) []byte { return b[:framePrefixLen-3] }},
	{"bad magic", func(b []byte) []byte { b[1] ^= 0x20; return b }},
	{"bad version", func(b []byte) []byte { b[4] = 9; return b }},
	{"header length past body", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], uint32(len(b)))
		return b
	}},
	{"oversized header length", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], maxFrameHeader+1)
		return b
	}},
	{"flipped header bit", func(b []byte) []byte { b[framePrefixLen+3] ^= 0x04; return b }},
	{"short section", func(b []byte) []byte { return b[:len(b)-1] }},
	{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
	{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b }},
}

func TestReadFrameCorruption(t *testing.T) {
	for _, msg := range []framed{sampleRequest(), sampleResponse()} {
		for _, c := range frameMutations {
			wire := c.mut(encodeBytes(t, msg))
			got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(framed)
			err := readFrame(bytes.NewReader(wire), got)
			if !errors.Is(err, runio.ErrCorrupt) {
				t.Errorf("%T/%s: err = %v, want runio.ErrCorrupt", msg, c.name, err)
			}
			for i, p := range got.sections() {
				if *p != nil {
					t.Errorf("%T/%s: section %d left with the caller after an error", msg, c.name, i)
				}
			}
		}
	}
	// A failing transport is the transport's error, not corruption.
	boom := errors.New("connection reset")
	err := readFrame(io.MultiReader(bytes.NewReader(encodeBytes(t, sampleResponse())[:20]), errReader{boom}), &TaskResponse{})
	if !errors.Is(err, boom) || errors.Is(err, runio.ErrCorrupt) {
		t.Fatalf("transport failure mid-frame: err = %v, want the transport's error, not ErrCorrupt", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// FuzzReadFrame: no input panics the reader; any frame it accepts
// re-encodes to a frame that reads back identically.
func FuzzReadFrame(f *testing.F) {
	for _, msg := range []framed{sampleRequest(), sampleResponse(), &TaskResponse{}} {
		wire := encodeBytes(f, msg)
		f.Add(wire)
		for _, c := range frameMutations {
			f.Add(c.mut(bytes.Clone(wire)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, msg := range []framed{&TaskRequest{}, &TaskResponse{}} {
			if err := readFrame(bytes.NewReader(data), msg); err != nil {
				continue
			}
			again := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(framed)
			if err := readFrame(bytes.NewReader(encodeBytes(t, msg)), again); err != nil {
				t.Fatalf("%T: re-encoded frame does not read back: %v", msg, err)
			}
			if !reflect.DeepEqual(again, msg) {
				t.Fatalf("%T: re-encoded frame reads back different:\n got %+v\nwant %+v", msg, again, msg)
			}
		}
	})
}
