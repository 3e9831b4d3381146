package relation

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Wire format of a serialized fragment, little-endian:
//
//	magic     uint32  // frameMagic
//	index     uint32
//	of        uint32
//	hops      uint32
//	epoch     uint32
//	paywidth  uint32
//	tuples    uint64
//	keys      tuples × uint64
//	payload   tuples × paywidth bytes
//
// The format is deliberately flat so that a fragment can be encoded into a
// pre-registered RDMA buffer without intermediate allocations, mirroring the
// paper's requirement that all transfer units live in statically registered
// memory (§III-C). On little-endian hosts the key region IS a []uint64: the
// codec moves it with a single bulk copy (Encode/Decode) or aliases it
// outright (View), never looping per tuple.

const frameMagic = 0xc1c70901 // "cyclotron" v1

// headerSize is the fixed prefix length of an encoded fragment.
const headerSize = 4 * 6 // five uint32 fields + magic
const tupleCountSize = 8

// hopsOffset locates the hops field inside the header — the only bytes the
// encode-free forwarding path rewrites per hop.
const hopsOffset = 12

// EncodedSize returns the number of bytes Encode will produce for f.
func EncodedSize(f *Fragment) int {
	return headerSize + tupleCountSize + f.Rel.Len()*f.Rel.schema.TupleWidth()
}

// Encode serializes f into dst, which must have room for EncodedSize(f)
// bytes, and returns the number of bytes written.
func Encode(f *Fragment, dst []byte) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	need := EncodedSize(f)
	if len(dst) < need {
		return 0, fmt.Errorf("relation: encode %v: buffer %d B, need %d B", f, len(dst), need)
	}
	le := binary.LittleEndian
	le.PutUint32(dst[0:], frameMagic)
	le.PutUint32(dst[4:], uint32(f.Index))
	le.PutUint32(dst[8:], uint32(f.Of))
	le.PutUint32(dst[12:], uint32(f.Hops))
	le.PutUint32(dst[16:], uint32(f.Epoch))
	le.PutUint32(dst[20:], uint32(f.Rel.schema.PayloadWidth))
	le.PutUint64(dst[24:], uint64(f.Rel.Len()))
	off := headerSize + tupleCountSize
	n := f.Rel.Len()
	if wire := aliasUint64(dst[off:off+n*KeyWidth], n); wire != nil {
		// Bulk fast path: the destination key region reinterpreted as a
		// uint64 column, filled by one memmove.
		copy(wire, f.Rel.keys)
		off += n * KeyWidth
	} else {
		for _, k := range f.Rel.keys {
			le.PutUint64(dst[off:], k)
			off += KeyWidth
		}
	}
	off += copy(dst[off:], f.Rel.pay)
	return off, nil
}

// EncodeAppend serializes f onto dst, growing it as needed, and returns the
// extended slice. Convenience wrapper around Encode for non-registered
// buffers (tests, kernel-TCP framing, hot-set spills). The grown region is
// never zero-filled: Encode overwrites every byte it claims.
func EncodeAppend(f *Fragment, dst []byte) ([]byte, error) {
	need := EncodedSize(f)
	dst = slices.Grow(dst, need)
	start := len(dst)
	dst = dst[:start+need]
	if _, err := Encode(f, dst[start:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// frameHeader is the parsed fixed prefix of an encoded fragment.
type frameHeader struct {
	index, of, hops, epoch int
	width, tuples          int
}

// parseHeader validates an encoded frame's prefix against the bytes that
// are physically present. Every check runs BEFORE anything is allocated or
// aliased: a hostile header must not be able to overflow the byte
// arithmetic or demand an enormous allocation.
func parseHeader(src []byte) (frameHeader, error) {
	var h frameHeader
	if len(src) < headerSize+tupleCountSize {
		return h, fmt.Errorf("relation: decode: short frame (%d B)", len(src))
	}
	le := binary.LittleEndian
	if m := le.Uint32(src[0:]); m != frameMagic {
		return h, fmt.Errorf("relation: decode: bad magic %#x", m)
	}
	h.index = int(le.Uint32(src[4:]))
	h.of = int(le.Uint32(src[8:]))
	h.hops = int(le.Uint32(src[12:]))
	h.epoch = int(le.Uint32(src[16:]))
	h.width = int(le.Uint32(src[20:]))
	h.tuples = int(le.Uint64(src[24:]))
	if h.tuples < 0 || h.width < 0 {
		return h, fmt.Errorf("relation: decode: invalid frame (n=%d width=%d)", h.tuples, h.width)
	}
	body := int64(len(src) - headerSize - tupleCountSize)
	if int64(h.tuples) > body/KeyWidth {
		return h, fmt.Errorf("relation: decode: frame header claims %d tuples, only %d B present", h.tuples, body)
	}
	need := int64(h.tuples) * int64(KeyWidth+h.width)
	if need > body {
		return h, fmt.Errorf("relation: decode: truncated frame: %d B body, need %d B", body, need)
	}
	return h, nil
}

// Decode deserializes a fragment from src. The schema name is applied to the
// decoded relation; the payload width is taken from the wire. The decoded
// relation owns fresh storage (no aliasing of src), so the source buffer can
// be immediately reposted for the next RDMA receive. The key column moves
// with one bulk copy on little-endian hosts; use View to skip even that.
// Exactly four allocations: the relation, its two columns, the fragment —
// a View would be a fifth, heap-escaped by its internal self-reference.
func Decode(src []byte, name string) (*Fragment, error) {
	h, err := parseHeader(src)
	if err != nil {
		return nil, err
	}
	off := headerSize + tupleCountSize
	keyBytes := src[off : off+h.tuples*KeyWidth]
	payOff := off + h.tuples*KeyWidth
	rel := New(Schema{Name: name, PayloadWidth: h.width}, h.tuples)
	if wire := aliasUint64(keyBytes, h.tuples); wire != nil {
		rel.keys = append(rel.keys, wire...)
	} else {
		// Portable path: bulk-decode the key column straight into the
		// freshly owned storage.
		le := binary.LittleEndian
		for i := 0; i < h.tuples; i++ {
			rel.keys = append(rel.keys, le.Uint64(keyBytes[i*KeyWidth:]))
		}
	}
	rel.pay = append(rel.pay, src[payOff:payOff+h.tuples*h.width]...)
	f := &Fragment{Rel: rel, Index: h.index, Of: h.of, Hops: h.hops, Epoch: h.epoch}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("relation: decode: %w", err)
	}
	return f, nil
}

// SetFrameHops patches the hops field of an encoded frame in place. This is
// the entire per-hop serialization work of the encode-free forwarding path:
// four bytes rewritten, everything else moves as-is.
func SetFrameHops(frame []byte, hops int) error {
	if err := checkFramePrefix(frame); err != nil {
		return err
	}
	if hops < 0 {
		return fmt.Errorf("relation: patch frame: negative hop count %d", hops)
	}
	binary.LittleEndian.PutUint32(frame[hopsOffset:], uint32(hops))
	return nil
}

// checkFramePrefix guards the in-place header accessors against frames too
// short or foreign to carry a header at all.
func checkFramePrefix(frame []byte) error {
	if len(frame) < headerSize {
		return fmt.Errorf("relation: frame too short for a header (%d B)", len(frame))
	}
	if m := binary.LittleEndian.Uint32(frame); m != frameMagic {
		return fmt.Errorf("relation: bad magic %#x", m)
	}
	return nil
}

// NativeLittleEndian reports whether this build aliases wire key columns in
// place (host byte order == wire byte order). On other hosts View falls
// back to a reusable scratch column and the bulk codec to per-key loops.
func NativeLittleEndian() bool { return nativeLittleEndian }
