package relation

import (
	"testing"
	"testing/quick"
)

func mustAppend(t *testing.T, r *Relation, key uint64, pay []byte) {
	t.Helper()
	if err := r.Append(key, pay); err != nil {
		t.Fatalf("Append(%d): %v", key, err)
	}
}

func TestSchemaValidate(t *testing.T) {
	tests := []struct {
		name    string
		schema  Schema
		wantErr bool
	}{
		{"zero payload", Schema{Name: "R"}, false},
		{"normal", Schema{Name: "R", PayloadWidth: 4}, false},
		{"negative", Schema{Name: "R", PayloadWidth: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.schema.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTupleWidth(t *testing.T) {
	s := Schema{Name: "R", PayloadWidth: 4}
	if got, want := s.TupleWidth(), 12; got != want {
		t.Errorf("TupleWidth() = %d, want %d (paper's 12-byte tuples)", got, want)
	}
}

func TestAppendAndAccess(t *testing.T) {
	r := New(Schema{Name: "R", PayloadWidth: 4}, 0)
	mustAppend(t, r, 7, []byte{1, 2, 3, 4})
	mustAppend(t, r, 9, []byte{5, 6, 7, 8})
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
	if r.Key(1) != 9 {
		t.Errorf("Key(1) = %d, want 9", r.Key(1))
	}
	if got := r.Payload(0); string(got) != string([]byte{1, 2, 3, 4}) {
		t.Errorf("Payload(0) = %v", got)
	}
	if got := r.Bytes(); got != 24 {
		t.Errorf("Bytes() = %d, want 24", got)
	}
}

func TestAppendWidthMismatch(t *testing.T) {
	r := New(Schema{Name: "R", PayloadWidth: 4}, 0)
	if err := r.Append(1, []byte{1, 2}); err == nil {
		t.Error("Append with short payload: want error, got nil")
	}
}

func TestAppendKeyZeroesPayload(t *testing.T) {
	r := New(Schema{Name: "R", PayloadWidth: 3}, 0)
	r.AppendKey(42)
	if got := r.Payload(0); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("Payload(0) = %v, want zeroed 3 bytes", got)
	}
}

func TestZeroPayloadWidth(t *testing.T) {
	r := New(Schema{Name: "K"}, 0)
	if err := r.Append(5, nil); err != nil {
		t.Fatalf("Append(nil payload): %v", err)
	}
	if r.Payload(0) != nil {
		t.Errorf("Payload(0) = %v, want nil", r.Payload(0))
	}
}

func TestWrap(t *testing.T) {
	keys := []uint64{1, 2, 3}
	pay := []byte{10, 20, 30}
	r, err := Wrap(Schema{Name: "W", PayloadWidth: 1}, keys, pay)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	if r.Len() != 3 || r.Payload(2)[0] != 30 {
		t.Errorf("wrapped relation wrong: len=%d", r.Len())
	}
	if _, err := Wrap(Schema{PayloadWidth: 2}, keys, pay); err == nil {
		t.Error("Wrap with mismatched payload length: want error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New(Schema{Name: "R", PayloadWidth: 1}, 0)
	mustAppend(t, r, 1, []byte{9})
	cp := r.Clone()
	mustAppend(t, r, 2, []byte{8})
	if cp.Len() != 1 {
		t.Errorf("clone affected by append: len=%d", cp.Len())
	}
	if !cp.Equal(mustSlice(t, r, 0, 1)) {
		t.Error("clone differs from original prefix")
	}
}

func mustSlice(t *testing.T, r *Relation, lo, hi int) *Relation {
	t.Helper()
	s, err := r.Slice(lo, hi)
	if err != nil {
		t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
	}
	return s
}

func TestSliceBounds(t *testing.T) {
	r := FromKeys(Schema{Name: "R"}, []uint64{1, 2, 3})
	tests := []struct {
		lo, hi  int
		wantErr bool
		wantLen int
	}{
		{0, 3, false, 3},
		{1, 2, false, 1},
		{2, 2, false, 0},
		{-1, 2, true, 0},
		{2, 1, true, 0},
		{0, 4, true, 0},
	}
	for _, tt := range tests {
		s, err := r.Slice(tt.lo, tt.hi)
		if (err != nil) != tt.wantErr {
			t.Errorf("Slice(%d,%d) error = %v, wantErr %v", tt.lo, tt.hi, err, tt.wantErr)
			continue
		}
		if err == nil && s.Len() != tt.wantLen {
			t.Errorf("Slice(%d,%d).Len() = %d, want %d", tt.lo, tt.hi, s.Len(), tt.wantLen)
		}
	}
}

func TestKeysOnly(t *testing.T) {
	r := New(Schema{Name: "R", PayloadWidth: 3}, 4)
	for _, k := range []uint64{7, 7, 1, 9} {
		mustAppend(t, r, k, []byte{byte(k), 2, 3})
	}
	before := r.Clone()

	k := r.KeysOnly()
	if &k.Keys()[0] != &r.Keys()[0] {
		t.Error("KeysOnly copied the key column")
	}
	if k.Len() != r.Len() || k.Bytes() != KeyWidth*r.Len() {
		t.Errorf("Len = %d, Bytes = %d, want %d and %d", k.Len(), k.Bytes(), r.Len(), KeyWidth*r.Len())
	}
	if got := k.Schema(); got != (Schema{Name: "R"}) {
		t.Errorf("schema = %+v, want R with no payload", got)
	}
	if k.Payload(1) != nil || len(k.PayloadColumn()) != 0 {
		t.Error("key-only view has payload bytes")
	}

	// The width-0 frame is ordinary wire format: it binds as a view.
	frame, err := EncodeAppend(&Fragment{Rel: k, Index: 1, Of: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != EncodedSize(&Fragment{Rel: k, Of: 1}) {
		t.Errorf("encoded %d B, EncodedSize says %d", len(frame), EncodedSize(&Fragment{Rel: k, Of: 1}))
	}
	var v View
	if err := v.Bind(frame, "R"); err != nil {
		t.Fatal(err)
	}
	if got := v.Frag(); !got.Rel.Equal(k) || got.Index != 1 || got.Of != 2 {
		t.Errorf("bound %v, want the key column as fragment 1/2", got)
	}

	// Appending to the view must not reach into the source's spare capacity.
	k.AppendKey(42)
	mustAppend(t, r, 5, []byte{5, 2, 3})
	mustAppend(t, before, 5, []byte{5, 2, 3})
	if !r.Equal(before) {
		t.Error("KeysOnly, or an append to its result, changed the source relation")
	}

	empty := New(Schema{Name: "E", PayloadWidth: 8}, 0).KeysOnly()
	if empty.Len() != 0 || empty.Bytes() != 0 || empty.Schema().PayloadWidth != 0 {
		t.Errorf("KeysOnly of an empty relation = %v", empty)
	}
}

func TestAppendFromSchemaMismatch(t *testing.T) {
	a := FromKeys(Schema{Name: "A", PayloadWidth: 0}, []uint64{1})
	b := New(Schema{Name: "B", PayloadWidth: 2}, 0)
	if err := b.AppendFrom(a, 0); err == nil {
		t.Error("AppendFrom across widths: want error")
	}
}

func TestEqual(t *testing.T) {
	a := FromKeys(Schema{Name: "A", PayloadWidth: 2}, []uint64{1, 2})
	b := FromKeys(Schema{Name: "B", PayloadWidth: 2}, []uint64{1, 2})
	if !a.Equal(b) {
		t.Error("identical content, different names: want Equal")
	}
	c := FromKeys(Schema{Name: "C", PayloadWidth: 2}, []uint64{2, 1})
	if a.Equal(c) {
		t.Error("different key order: want not Equal")
	}
}

func TestResetKeepsSchema(t *testing.T) {
	r := FromKeys(Schema{Name: "R", PayloadWidth: 1}, []uint64{1, 2})
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("Len after Reset = %d", r.Len())
	}
	mustAppend(t, r, 3, []byte{1})
	if r.Key(0) != 3 {
		t.Errorf("Key(0) after reuse = %d", r.Key(0))
	}
}

// TestHashKeyAvalanche checks that sequential keys spread across low bits,
// which the radix partitioning of the hash join depends on.
func TestHashKeyAvalanche(t *testing.T) {
	const buckets = 64
	var counts [buckets]int
	const n = 64 * 1024
	for k := uint64(0); k < n; k++ {
		counts[HashKey(k)%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d keys, want ≈%d", b, c, want)
		}
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	f := func(k uint64) bool { return HashKey(k) == HashKey(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
