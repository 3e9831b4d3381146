package relation

import (
	"encoding/binary"
	"fmt"
)

// View is a fragment decoded in place: Bind parses the header of an encoded
// frame and mounts the key and payload columns directly over the frame's
// bytes — no per-tuple work and, in steady state, no heap allocation. On a
// ring node this is what lets the join entity probe keys and payloads
// straight out of statically registered receive memory, the paper's
// zero-copy discipline (§III-C: data copying alone accounts for ~half the
// CPU cost of a kernel TCP stack).
//
// On little-endian hosts the key column aliases the frame via an unsafe
// reinterpretation (the wire format is little-endian); misaligned frames
// and big-endian hosts transparently fall back to a scratch column that is
// reused across Bind calls, so the fallback amortizes to zero allocations
// too.
//
// A View is valid only as long as the frame bytes are: rebinding the view,
// reposting the receive buffer underneath it, or letting the frame's owner
// reuse the storage invalidates the Fragment returned by Frag. Call
// Materialize to copy the data out where ownership is genuinely needed
// (retained results, hot-set storage, shipping setup structures). A View
// must not be shared between goroutines without external synchronization.
// The fields below follow the view's owner: Bind runs in whichever
// goroutine holds the underlying receive buffer, and readers see the
// view only after the buffer hand-off (procQ, completion channel) that
// viewescape polices. The hand-off is the happens-before edge.
type View struct {
	// Each field is rebound only by the buffer owner; readers follow the
	// buffer hand-off.
	frag  Fragment
	rel   Relation
	frame []byte
	// portable-path key storage, reused across binds
	scratch []uint64
}

// Bind parses frame into v, replacing any previous binding. It runs all of
// Decode's hostile-header bounds checks before aliasing anything and
// rejects exactly the frames Decode rejects.
func (v *View) Bind(frame []byte, name string) error {
	h, err := parseHeader(frame)
	if err != nil {
		return err
	}
	off := headerSize + tupleCountSize
	keyBytes := frame[off : off+h.tuples*KeyWidth]
	keys := aliasUint64(keyBytes, h.tuples)
	if keys == nil {
		// Portable path: bulk-decode the key column into the reusable
		// scratch slice.
		if cap(v.scratch) < h.tuples {
			v.scratch = make([]uint64, h.tuples)
		}
		keys = v.scratch[:h.tuples]
		le := binary.LittleEndian
		for i := range keys {
			keys[i] = le.Uint64(keyBytes[i*KeyWidth:])
		}
	}
	payOff := off + h.tuples*KeyWidth
	payEnd := payOff + h.tuples*h.width
	v.frame = frame[:payEnd:payEnd]
	v.rel = Relation{
		schema: Schema{Name: name, PayloadWidth: h.width},
		keys:   keys,
		pay:    frame[payOff:payEnd:payEnd],
	}
	v.frag = Fragment{Rel: &v.rel, Index: h.index, Of: h.of, Hops: h.hops, Epoch: h.epoch}
	if err := v.frag.Validate(); err != nil {
		return fmt.Errorf("relation: decode: %w", err)
	}
	return nil
}

// Frag returns the bound fragment. The fragment and its relation alias the
// view's storage; they are invalidated by the next Bind and by the frame
// bytes being reused.
func (v *View) Frag() *Fragment { return &v.frag }

// Frame returns the encoded frame exactly as bound, trimmed to the
// fragment's true encoded size (trailing garbage past the payload is
// dropped). Forwarding a fragment unchanged is one copy of these bytes
// plus a SetFrameHops patch — no decode, no re-encode.
func (v *View) Frame() []byte { return v.frame }

// Materialize deep-copies the bound fragment into fresh storage that
// survives buffer reuse. This is the single point where the zero-copy path
// pays for ownership; everything else aliases.
func (v *View) Materialize() *Fragment {
	rel := New(v.rel.schema, len(v.rel.keys))
	rel.keys = append(rel.keys, v.rel.keys...)
	rel.pay = append(rel.pay, v.rel.pay...)
	return &Fragment{Rel: rel, Index: v.frag.Index, Of: v.frag.Of, Hops: v.frag.Hops, Epoch: v.frag.Epoch}
}
