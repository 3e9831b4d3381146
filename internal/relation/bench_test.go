package relation

import (
	"testing"
)

func benchFragment(b testing.TB, tuples, width int) (*Fragment, []byte) {
	b.Helper()
	rel := New(Schema{Name: "bench", PayloadWidth: width}, tuples)
	pay := make([]byte, width)
	for i := 0; i < tuples; i++ {
		for j := range pay {
			pay[j] = byte(i + j)
		}
		if err := rel.Append(uint64(i)*2654435761, pay); err != nil {
			b.Fatal(err)
		}
	}
	frag := &Fragment{Rel: rel, Index: 0, Of: 1}
	buf := make([]byte, EncodedSize(frag))
	if _, err := Encode(frag, buf); err != nil {
		b.Fatal(err)
	}
	return frag, buf
}

func BenchmarkEncode(b *testing.B) {
	frag, buf := benchFragment(b, 8192, 8)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(frag, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	_, buf := benchFragment(b, 8192, 8)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewBind is the receive-side hot path: parse + alias a frame in
// place. On little-endian hosts this is header validation plus pointer
// arithmetic, independent of tuple count, with zero allocations.
func BenchmarkViewBind(b *testing.B) {
	_, buf := benchFragment(b, 8192, 8)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var v View
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Bind(buf, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sinkKey = v.Frag().Rel.Key(0)
}

// sinkKey defeats dead-code elimination.
var sinkKey uint64

// TestEncodeZeroAlloc: encoding the benchmarks' 8192-tuple, 8 B-payload
// fragment into a buffer that fits it allocates nothing.
func TestEncodeZeroAlloc(t *testing.T) {
	frag, buf := benchFragment(t, 8192, 8)
	var failure error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Encode(frag, buf); err != nil {
			failure = err
		}
	})
	if failure != nil {
		t.Fatal(failure)
	}
	if allocs != 0 {
		t.Errorf("Encode: %v allocs/op, want 0", allocs)
	}
}

// TestViewBindZeroAlloc: binding a View to that fragment's frame, the
// receive-side hot path, allocates nothing on the little-endian fast path.
func TestViewBindZeroAlloc(t *testing.T) {
	if !NativeLittleEndian() {
		t.Skip("portable-endian build: key column binds through the scratch path")
	}
	_, buf := benchFragment(t, 8192, 8)
	var v View
	var failure error
	allocs := testing.AllocsPerRun(100, func() {
		if err := v.Bind(buf, "bench"); err != nil {
			failure = err
		}
	})
	if failure != nil {
		t.Fatal(failure)
	}
	if allocs != 0 {
		t.Errorf("View.Bind: %v allocs/op, want 0", allocs)
	}
	if v.Frag().Rel.Len() != 8192 {
		t.Errorf("bound %d tuples, want 8192", v.Frag().Rel.Len())
	}
}

// BenchmarkPartitionByHash is key placement's cost per tuple: 200k narrow
// tuples onto 4 hosts, as core.Cluster.StationByKey places each stationary
// side. Allocations are the two output columns plus O(chunks·hosts) of
// histogram, fragment headers and goroutines — none per tuple.
func BenchmarkPartitionByHash(b *testing.B) {
	const tuples, hosts = 200_000, 4
	keys := make([]uint64, tuples)
	for i := range keys {
		keys[i] = uint64(i) * 2654435761 % tuples
	}
	rel, err := Wrap(Schema{Name: "bench", PayloadWidth: 4}, keys, make([]byte, tuples*4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags, err := PartitionByHash(rel, hosts)
		if err != nil {
			b.Fatal(err)
		}
		sinkKey += uint64(frags[hosts-1].Rel.Len())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/tuple")
}
