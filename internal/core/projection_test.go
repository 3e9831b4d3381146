package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/jointest"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// wireBytes is what one revolution of the fragments puts on the wire: every
// fragment crosses every link but the one back to its home node.
func wireBytes(perHost [][]*relation.Fragment, nodes int, keysOnly bool) int64 {
	var total int64
	for _, frags := range perHost {
		for _, f := range frags {
			if keysOnly {
				f = &relation.Fragment{Rel: f.Rel.KeysOnly(), Index: f.Index, Of: f.Of}
			}
			total += int64(relation.EncodedSize(f)) * int64(nodes-1)
		}
	}
	return total
}

func bytesOut(res *Result) int64 {
	var total int64
	for _, n := range res.Nodes {
		total += n.BytesOut
	}
	return total
}

// TestRotateIntoShipsWhatCollectorsRead pins the rule a revolution decides
// by when it rotates into the collectors it is given: one whose collectors
// are all join.MatchCounters ships the key column, any other ships whole
// tuples — as exact byte counts, revolving one pair of handles again and
// again, with a materialization after a key-only revolution to show the
// payloads are still there.
func TestRotateIntoShipsWhatCollectorsRead(t *testing.T) {
	const nodes, fragsPerHost = 3, 2
	rng := rand.New(rand.NewSource(61))
	r := jointest.RandomRelation(rng, "R", 700, 90, 13)
	s := jointest.RandomRelation(rng, "S", 500, 90, 5)

	ref, err := nested.Join{}.SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refRows := join.NewMaterializer("ref", 13, 5)
	if err := ref.Join(r, refRows); err != nil {
		t.Fatal(err)
	}
	wantRows := jointest.RowCounts(refRows.Result())
	wantCount := int64(refRows.Result().Len())

	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rParts, err := relation.Partition(r, nodes*fragsPerHost)
	if err != nil {
		t.Fatal(err)
	}
	rFrags := make([][]*relation.Fragment, nodes)
	for i := range rFrags {
		rFrags[i] = rParts[i*fragsPerHost : (i+1)*fragsPerHost]
	}
	keyBytes, tupleBytes := wireBytes(rFrags, nodes, true), wireBytes(rFrags, nodes, false)

	materializers := func(int) join.Collector { return join.NewMaterializer("out", 13, 5) }
	revolutions := []struct {
		name    string
		collect func(node int) join.Collector
		keys    bool
	}{
		{"Counter", nil, true},
		{"Discard", func(int) join.Collector { return join.Discard{} }, true},
		{"Materializer", materializers, false},
		{"Tee{Counter}", func(int) join.Collector { return join.Tee{&join.Counter{}} }, false},
		{"Counter and Materializers", func(node int) join.Collector {
			if node == 0 {
				return &join.Counter{}
			}
			return materializers(node)
		}, false},
		{"Counter again", nil, true},
	}

	type variant struct {
		alg    join.Algorithm
		links  string
		writes bool
		skip   bool
	}
	var variants []variant
	for _, alg := range []join.Algorithm{hashjoin.Join{}, sortmerge.Join{}, nested.Join{}} {
		for _, links := range []string{"mem", "tcp"} {
			for _, writes := range []bool{false, true} {
				variants = append(variants, variant{alg: alg, links: links, writes: writes})
			}
		}
	}
	variants = append(variants, variant{alg: hashjoin.Join{}, links: "mem", skip: true})

	for _, v := range variants {
		t.Run(fmt.Sprintf("%s/%s/writes=%v/skipSetup=%v", v.alg.Name(), v.links, v.writes, v.skip), func(t *testing.T) {
			links := ring.MemLinks()
			if v.links == "tcp" {
				links = ring.TCPLinks()
			}
			c, err := NewCluster(Config{
				Nodes:             nodes,
				Algorithm:         v.alg,
				Predicate:         join.Equi{},
				Opts:              join.Options{Parallelism: 2},
				Ring:              ring.Config{OneSidedWrites: v.writes},
				Links:             links,
				SkipRotatingSetup: v.skip,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				_ = c.Close()
			}()
			rot, side := byPosition(t, c, sFrags, rFrags)
			var shipped int64 // the ring's counters run on from revolution to revolution
			keyRevs, tupleRevs := mKeyRevolutions.Value(), mTupleRevolutions.Value()
			for _, rev := range revolutions {
				res, err := c.Revolve(rot, side, rev.collect)
				if err != nil {
					t.Fatalf("%s: %v", rev.name, err)
				}
				want := tupleBytes
				if rev.keys {
					want = keyBytes
					keyRevs++
				} else {
					tupleRevs++
				}
				if got := bytesOut(res) - shipped; got != want {
					t.Errorf("%s: shipped %d B, want %d B (keys %d B, tuples %d B)", rev.name, got, want, keyBytes, tupleBytes)
				}
				shipped = bytesOut(res)

				var count int64
				var rows []*relation.Fragment
				for i, col := range res.Collectors {
					switch col := col.(type) {
					case *join.Counter:
						count += col.Count()
					case join.Tee:
						count += col[0].(*join.Counter).Count()
					case *join.Materializer:
						count += int64(col.Result().Len())
						rows = append(rows, &relation.Fragment{Rel: col.Result(), Index: i, Of: nodes})
					case join.Discard:
						count = -1 // nothing to read back
					}
				}
				if count >= 0 && count != wantCount {
					t.Errorf("%s: %d matches, join/nested finds %d", rev.name, count, wantCount)
				}
				if len(rows) == nodes {
					all, err := relation.Concat(refRows.Result().Schema(), rows)
					if err != nil {
						t.Fatal(err)
					}
					if !maps.Equal(jointest.RowCounts(all), wantRows) {
						t.Errorf("%s: rows differ from join/nested", rev.name)
					}
				}
			}
			if got := mKeyRevolutions.Value(); got != keyRevs {
				t.Errorf("core_revolutions_total{ships=keys} = %d, want %d", got, keyRevs)
			}
			if got := mTupleRevolutions.Value(); got != tupleRevs {
				t.Errorf("core_revolutions_total{ships=tuples} = %d, want %d", got, tupleRevs)
			}
		})
	}
}
