package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzDecode hammers the wire decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to an equivalent fragment.
// The ring decodes frames straight off the transport, so this is the
// parser a byzantine peer would attack.
func FuzzDecode(f *testing.F) {
	// Seed with a valid frame and a few mutations.
	valid := New(Schema{Name: "R", PayloadWidth: 2}, 3)
	for _, k := range []uint64{1, 2, 3} {
		if err := valid.Append(k, []byte{byte(k), 0}); err != nil {
			f.Fatal(err)
		}
	}
	seedFrag := &Fragment{Rel: valid, Index: 1, Of: 4, Hops: 2}
	seed, err := EncodeAppend(seedFrag, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:10])
	f.Add(keysOnlyFrame(f, seedFrag))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data, "fuzz")
		if err != nil {
			return // rejected, fine
		}
		// Accepted frames must round-trip.
		back, err := EncodeAppend(got, nil)
		if err != nil {
			t.Fatalf("accepted fragment does not re-encode: %v", err)
		}
		again, err := Decode(back, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded fragment does not decode: %v", err)
		}
		if !again.Rel.Equal(got.Rel) || again.Index != got.Index || again.Of != got.Of {
			t.Fatal("decode/encode/decode not idempotent")
		}
	})
}

// keysOnlyFrame encodes frag's key column alone: the width-0 frame a
// counting revolution puts on the wire.
func keysOnlyFrame(f *testing.F, frag *Fragment) []byte {
	projected := *frag
	projected.Rel = frag.Rel.KeysOnly()
	frame, err := EncodeAppend(&projected, nil)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}

// referenceDecode is the original per-tuple wire decoder, kept verbatim as
// the oracle for the bulk codec and the aliasing view: every frame must
// produce byte-identical results through all three paths.
func referenceDecode(src []byte, name string) (*Fragment, error) {
	le := binary.LittleEndian
	if len(src) < headerSize+tupleCountSize {
		return nil, fmt.Errorf("short frame (%d B)", len(src))
	}
	if m := le.Uint32(src[0:]); m != frameMagic {
		return nil, fmt.Errorf("bad magic %#x", m)
	}
	index := int(le.Uint32(src[4:]))
	of := int(le.Uint32(src[8:]))
	hops := int(le.Uint32(src[12:]))
	epoch := int(le.Uint32(src[16:]))
	width := int(le.Uint32(src[20:]))
	n := int(le.Uint64(src[24:]))
	if n < 0 || width < 0 {
		return nil, fmt.Errorf("invalid frame (n=%d width=%d)", n, width)
	}
	body := int64(len(src) - headerSize - tupleCountSize)
	if int64(n) > body/KeyWidth || int64(n)*int64(KeyWidth+width) > body {
		return nil, fmt.Errorf("truncated frame")
	}
	rel := New(Schema{Name: name, PayloadWidth: width}, n)
	off := headerSize + tupleCountSize
	for i := 0; i < n; i++ {
		rel.keys = append(rel.keys, le.Uint64(src[off:]))
		off += KeyWidth
	}
	rel.pay = append(rel.pay, src[off:off+n*width]...)
	frag := &Fragment{Rel: rel, Index: index, Of: of, Hops: hops, Epoch: epoch}
	if err := frag.Validate(); err != nil {
		return nil, err
	}
	return frag, nil
}

// fragEqual compares full fragment identity and contents.
func fragEqual(a, b *Fragment) bool {
	return a.Index == b.Index && a.Of == b.Of && a.Hops == b.Hops &&
		a.Epoch == b.Epoch && a.Rel.Equal(b.Rel)
}

// FuzzView feeds arbitrary (and hostile) frames to the in-place View and
// checks it accepts exactly what the reference per-tuple decoder accepts,
// with identical contents — on the original frame AND on a misaligned
// copy, which forces the scratch fallback past the unsafe aliasing path.
func FuzzView(f *testing.F) {
	valid := New(Schema{Name: "R", PayloadWidth: 3}, 4)
	for _, k := range []uint64{9, 8, 7, 6} {
		if err := valid.Append(k, []byte{byte(k), 1, 2}); err != nil {
			f.Fatal(err)
		}
	}
	seedFrag := &Fragment{Rel: valid, Index: 2, Of: 5, Hops: 1, Epoch: 3}
	seed, err := EncodeAppend(seedFrag, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:20])
	f.Add(keysOnlyFrame(f, seedFrag))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 80))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, refErr := referenceDecode(data, "fuzz")

		var v View
		bindErr := v.Bind(data, "fuzz")
		if (bindErr == nil) != (refErr == nil) {
			t.Fatalf("View.Bind err=%v, reference err=%v", bindErr, refErr)
		}
		if refErr != nil {
			return
		}
		if got := v.Materialize(); !fragEqual(got, want) {
			t.Fatalf("view materializes %v, reference decodes %v", got, want)
		}
		if !bytes.Equal(v.Frame(), data[:len(v.Frame())]) {
			t.Fatal("view frame is not a prefix of the source bytes")
		}

		// Misaligned rebind: same frame at an odd offset must take the
		// portable scratch path and still agree byte-for-byte.
		shifted := make([]byte, len(data)+1)
		copy(shifted[1:], data)
		if err := v.Bind(shifted[1:], "fuzz"); err != nil {
			t.Fatalf("misaligned bind rejected a valid frame: %v", err)
		}
		if got := v.Materialize(); !fragEqual(got, want) {
			t.Fatal("misaligned view disagrees with reference decode")
		}

		// Decode (View + Materialize under the hood) must agree too.
		got, err := Decode(data, "fuzz")
		if err != nil {
			t.Fatalf("Decode rejected a frame the reference accepts: %v", err)
		}
		if !fragEqual(got, want) {
			t.Fatal("Decode disagrees with reference decode")
		}
	})
}
