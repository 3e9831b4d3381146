// Package relation implements the columnar in-memory relation storage used
// throughout the cyclo-join system.
//
// The paper's workloads are narrow tuples: a 4-byte join key plus a small
// fixed-width payload (12 bytes per tuple in most experiments). We store a
// relation column-wise — one slice of join keys plus one contiguous byte
// slice of fixed-width payloads — which matches the MonetDB heritage of the
// paper's join implementations and keeps fragments trivially serializable
// for transport around the Data Roundabout ring.
package relation

import (
	"errors"
	"fmt"
)

// Schema describes the physical layout of a relation's tuples.
//
// Every tuple consists of one uint64 join key and PayloadWidth bytes of
// opaque payload. The paper uses 4-byte keys; we widen keys to uint64 so the
// same code handles larger key domains (band joins over timestamps, etc.)
// without a second code path.
type Schema struct {
	// Name identifies the relation in diagnostics and traces.
	Name string
	// PayloadWidth is the number of payload bytes per tuple. Zero is valid
	// (key-only relations).
	PayloadWidth int
}

// KeyWidth is the serialized width of a join key in bytes.
const KeyWidth = 8

// TupleWidth returns the serialized width of one tuple.
func (s Schema) TupleWidth() int { return KeyWidth + s.PayloadWidth }

// Validate reports whether the schema is usable.
func (s Schema) Validate() error {
	if s.PayloadWidth < 0 {
		return fmt.Errorf("relation: schema %q: negative payload width %d", s.Name, s.PayloadWidth)
	}
	return nil
}

// ErrSchemaMismatch is returned when two relations that must share a layout
// do not.
var ErrSchemaMismatch = errors.New("relation: schema mismatch")

// Relation is an in-memory columnar table: a slice of join keys and a
// parallel, contiguous payload area.
//
// A Relation is also used for the fragments R_j and S_i that cyclo-join
// operates on; Fragment wraps a Relation with ring metadata.
type Relation struct {
	schema Schema
	keys   []uint64
	pay    []byte // len == len(keys)*schema.PayloadWidth
}

// New returns an empty relation with the given schema and capacity hint.
func New(schema Schema, capacity int) *Relation {
	if capacity < 0 {
		capacity = 0
	}
	return &Relation{
		schema: schema,
		keys:   make([]uint64, 0, capacity),
		pay:    make([]byte, 0, capacity*schema.PayloadWidth),
	}
}

// FromKeys builds a relation with the given keys and zeroed payloads.
func FromKeys(schema Schema, keys []uint64) *Relation {
	r := New(schema, len(keys))
	r.keys = append(r.keys, keys...)
	r.pay = make([]byte, len(keys)*schema.PayloadWidth)
	return r
}

// Wrap adopts existing column storage without copying. The payload slice
// length must equal len(keys)*schema.PayloadWidth.
func Wrap(schema Schema, keys []uint64, pay []byte) (*Relation, error) {
	if len(pay) != len(keys)*schema.PayloadWidth {
		return nil, fmt.Errorf("relation: wrap %q: payload length %d does not match %d tuples × width %d",
			schema.Name, len(pay), len(keys), schema.PayloadWidth)
	}
	return &Relation{schema: schema, keys: keys, pay: pay}, nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.keys) }

// Bytes returns the total serialized payload-plus-key volume of the
// relation. This is the "data volume" quantity the paper's figures use.
func (r *Relation) Bytes() int { return len(r.keys) * r.schema.TupleWidth() }

// Key returns the join key of tuple i.
func (r *Relation) Key(i int) uint64 { return r.keys[i] }

// Keys returns the key column. Callers must not modify it.
func (r *Relation) Keys() []uint64 { return r.keys }

// Payload returns the payload bytes of tuple i. The returned slice aliases
// the relation's storage; callers must not modify it.
func (r *Relation) Payload(i int) []byte {
	w := r.schema.PayloadWidth
	if w == 0 {
		return nil
	}
	return r.pay[i*w : (i+1)*w : (i+1)*w]
}

// PayloadColumn returns the whole payload area. Callers must not modify it.
func (r *Relation) PayloadColumn() []byte { return r.pay }

// Append adds one tuple. The payload must be exactly PayloadWidth bytes
// (nil is accepted when PayloadWidth is zero).
func (r *Relation) Append(key uint64, payload []byte) error {
	if len(payload) != r.schema.PayloadWidth {
		return fmt.Errorf("relation: append to %q: payload width %d, want %d",
			r.schema.Name, len(payload), r.schema.PayloadWidth)
	}
	r.keys = append(r.keys, key)
	r.pay = append(r.pay, payload...)
	return nil
}

// AppendKey adds one tuple with a zeroed payload.
func (r *Relation) AppendKey(key uint64) {
	r.keys = append(r.keys, key)
	for i := 0; i < r.schema.PayloadWidth; i++ {
		r.pay = append(r.pay, 0)
	}
}

// AppendFrom copies tuple i of src onto the end of r. The schemas must have
// equal payload widths.
func (r *Relation) AppendFrom(src *Relation, i int) error {
	if src.schema.PayloadWidth != r.schema.PayloadWidth {
		return fmt.Errorf("%w: append from %q (width %d) to %q (width %d)",
			ErrSchemaMismatch, src.schema.Name, src.schema.PayloadWidth, r.schema.Name, r.schema.PayloadWidth)
	}
	r.keys = append(r.keys, src.keys[i])
	r.pay = append(r.pay, src.Payload(i)...)
	return nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	cp := &Relation{
		schema: r.schema,
		keys:   make([]uint64, len(r.keys)),
		pay:    make([]byte, len(r.pay)),
	}
	copy(cp.keys, r.keys)
	copy(cp.pay, r.pay)
	return cp
}

// Slice returns a view of tuples [lo, hi). The view aliases r's storage.
func (r *Relation) Slice(lo, hi int) (*Relation, error) {
	if lo < 0 || hi < lo || hi > len(r.keys) {
		return nil, fmt.Errorf("relation: slice [%d,%d) of %q with %d tuples out of range",
			lo, hi, r.schema.Name, len(r.keys))
	}
	w := r.schema.PayloadWidth
	return &Relation{
		schema: r.schema,
		keys:   r.keys[lo:hi:hi],
		pay:    r.pay[lo*w : hi*w : hi*w],
	}, nil
}

// KeysOnly returns r projected onto its key column: the same tuples, in the
// same order, with no payloads. The view aliases r's keys, so it costs no
// copy; r is unchanged.
func (r *Relation) KeysOnly() *Relation {
	n := len(r.keys)
	return &Relation{
		schema: Schema{Name: r.schema.Name},
		keys:   r.keys[:n:n],
	}
}

// Reset truncates the relation to zero tuples, keeping capacity.
func (r *Relation) Reset() {
	r.keys = r.keys[:0]
	r.pay = r.pay[:0]
}

// String implements fmt.Stringer for diagnostics.
func (r *Relation) String() string {
	return fmt.Sprintf("%s[%d tuples, %d B]", r.schema.Name, r.Len(), r.Bytes())
}

// Equal reports whether two relations have identical schema layout and
// tuple-for-tuple identical contents (order-sensitive).
func (r *Relation) Equal(o *Relation) bool {
	if r.schema.PayloadWidth != o.schema.PayloadWidth || len(r.keys) != len(o.keys) {
		return false
	}
	for i := range r.keys {
		if r.keys[i] != o.keys[i] {
			return false
		}
	}
	return string(r.pay) == string(o.pay)
}
