package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// The /task request and response bodies are task frames:
//
//	prefix   16 bytes: magic "ERTF" ‖ version ‖ header length ‖ header CRC32C
//	         (the three integers uint32 little-endian)
//	header   JSON {"sections":[{"len":n,"crc":c},…],"msg":{…}}
//	sections the message's []byte fields, raw, in sections() order
//
// The header carries only scalars and small structs; every record blob
// and the job spec travel as a raw section, so no payload byte is ever
// base64-encoded or scanned by the JSON decoder. Each section's length
// and CRC32C (Castagnoli) are declared in the header, and the header's
// own CRC32C sits in the prefix, so a flipped bit anywhere in a frame —
// or a frame cut short or padded — fails the read as runio.ErrCorrupt
// before anything is decoded, never as a wrong record.
const (
	frameMagic       = "ERTF"
	frameVersion     = 1
	framePrefixLen   = 16
	frameContentType = "application/x-ertask-frame"
	// maxFrameHeader bounds the header a reader will allocate for; a
	// real header is a few KiB (metrics, segment refs).
	maxFrameHeader = 16 << 20
	// maxFrameSection bounds one declared section length.
	maxFrameSection = math.MaxInt32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// framed is a message whose []byte fields travel as raw sections:
// sections returns pointers to all of them, in wire order. Those fields
// are tagged `json:"-"` so they never reach the header.
type framed interface {
	sections() []*[]byte
}

func (r *TaskRequest) sections() []*[]byte  { return []*[]byte{&r.Job.Spec, &r.Input} }
func (r *TaskResponse) sections() []*[]byte { return []*[]byte{&r.Side, &r.Output} }

type sectionDesc struct {
	Len int64  `json:"len"`
	CRC uint32 `json:"crc"`
}

type frameHeader struct {
	Sections []sectionDesc `json:"sections"`
	Msg      any           `json:"msg"`
}

// frame is an encoded message: the prefix and header in parts[0], then
// the sections, which alias the message's own buffers (nothing is
// copied).
type frame struct {
	parts [][]byte
	size  int64
}

func encodeFrame(msg framed) (*frame, error) {
	secs := msg.sections()
	hdr := frameHeader{Sections: make([]sectionDesc, len(secs)), Msg: msg}
	f := &frame{parts: make([][]byte, 1, 1+len(secs))}
	for i, p := range secs {
		hdr.Sections[i] = sectionDesc{Len: int64(len(*p)), CRC: crc32.Checksum(*p, castagnoli)}
		f.parts = append(f.parts, *p)
		f.size += int64(len(*p))
	}
	js, err := json.Marshal(&hdr)
	if err != nil {
		return nil, fmt.Errorf("dist: encode task frame header: %w", err)
	}
	head := make([]byte, framePrefixLen, framePrefixLen+len(js))
	copy(head, frameMagic)
	binary.LittleEndian.PutUint32(head[4:], frameVersion)
	binary.LittleEndian.PutUint32(head[8:], uint32(len(js)))
	binary.LittleEndian.PutUint32(head[12:], crc32.Checksum(js, castagnoli))
	f.parts[0] = append(head, js...)
	f.size += int64(len(f.parts[0]))
	return f, nil
}

// writeTo writes the frame to w part by part.
func (f *frame) writeTo(w io.Writer) error {
	for _, p := range f.parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// body returns the frame as a request body. done runs once, when the
// body is closed — the transport closes a request body when it is done
// with it, which may be after Client.Do returns — and after that no
// Read touches the frame's buffers, so done may recycle them.
func (f *frame) body(done func()) *frameBody {
	return &frameBody{parts: f.parts, done: done}
}

type frameBody struct {
	mu     sync.Mutex
	parts  [][]byte
	done   func()
	closed bool
}

var errBodyClosed = errors.New("dist: task frame body read after close")

func (b *frameBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errBodyClosed
	}
	n := 0
	for len(p) > 0 && len(b.parts) > 0 {
		c := copy(p, b.parts[0])
		n += c
		p = p[c:]
		if b.parts[0] = b.parts[0][c:]; len(b.parts[0]) == 0 {
			b.parts = b.parts[1:]
		}
	}
	if len(b.parts) == 0 {
		return n, io.EOF
	}
	return n, nil
}

func (b *frameBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.parts = nil
		b.done()
	}
	return nil
}

// readFrame decodes one task frame from r into msg. Every section is
// read into one pooled buffer of exactly its declared length
// (mapreduce.GetBlob) and checked against its CRC before readFrame
// returns; the caller owns those buffers and hands each back with
// mapreduce.PutBlob once it is decoded. A malformed or damaged frame —
// truncated, padded, wrong magic or version, checksum mismatch, header
// that does not parse or does not match the message — is an error
// wrapping runio.ErrCorrupt; any other error is the reader's own (a
// broken connection, a cancelled request). On error no buffer is left
// with the caller.
func readFrame(r io.Reader, msg framed) (err error) {
	secs := msg.sections()
	for _, p := range secs {
		*p = nil
	}
	defer func() {
		if err != nil {
			for _, p := range secs {
				mapreduce.PutBlob(*p)
				*p = nil
			}
		}
	}()
	var prefix [framePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return frameReadError("prefix", err)
	}
	if string(prefix[:4]) != frameMagic {
		return corruptFrame("bad magic %q", prefix[:4])
	}
	if v := binary.LittleEndian.Uint32(prefix[4:]); v != frameVersion {
		return corruptFrame("unsupported version %d (want %d)", v, frameVersion)
	}
	hlen := binary.LittleEndian.Uint32(prefix[8:])
	if hlen > maxFrameHeader {
		return corruptFrame("header length %d exceeds %d", hlen, maxFrameHeader)
	}
	head := make([]byte, hlen)
	if _, err := io.ReadFull(r, head); err != nil {
		return frameReadError("header", err)
	}
	if crc32.Checksum(head, castagnoli) != binary.LittleEndian.Uint32(prefix[12:]) {
		return corruptFrame("header checksum mismatch")
	}
	hdr := frameHeader{Msg: msg}
	if err := json.Unmarshal(head, &hdr); err != nil {
		return corruptFrame("header: %v", err)
	}
	if len(hdr.Sections) != len(secs) {
		return corruptFrame("%d sections, want %d", len(hdr.Sections), len(secs))
	}
	for i, d := range hdr.Sections {
		if d.Len < 0 || d.Len > maxFrameSection {
			return corruptFrame("section %d length %d out of range", i, d.Len)
		}
		if d.Len == 0 {
			continue
		}
		*secs[i] = mapreduce.GetBlob(int(d.Len))
		if _, err := io.ReadFull(r, *secs[i]); err != nil {
			return frameReadError(fmt.Sprintf("section %d", i), err)
		}
		if crc32.Checksum(*secs[i], castagnoli) != d.CRC {
			return corruptFrame("section %d checksum mismatch", i)
		}
	}
	var one [1]byte
	switch n, err := io.ReadFull(r, one[:]); {
	case n > 0:
		return corruptFrame("trailing bytes after %d sections", len(secs))
	case err != io.EOF:
		return fmt.Errorf("dist: task frame: read past end: %w", err)
	}
	return nil
}

func corruptFrame(format string, args ...any) error {
	return fmt.Errorf("%w: task frame: %s", runio.ErrCorrupt, fmt.Sprintf(format, args...))
}

// frameReadError classifies a failed read of one frame part: a body
// that ends early is a truncated (corrupt) frame, anything else is the
// transport's error.
func frameReadError(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptFrame("truncated %s", part)
	}
	return fmt.Errorf("dist: task frame: read %s: %w", part, err)
}
