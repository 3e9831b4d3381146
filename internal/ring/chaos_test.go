package ring

import (
	"errors"
	"testing"
	"time"

	"cyclojoin/internal/rdma/chaoslink"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/testutil"
	"cyclojoin/internal/workload"
)

// The tests in this file run revolutions over a faulty network: a
// chaoslink.Plan sits between the ring and the real transport and injects
// drops, partitions, delays and jitter from a seeded schedule.
// The acceptance bar is the paper's exactly-once invariant under fire —
// after recovery, every node has still seen every fragment exactly once,
// with byte-identical contents, and no buffer credit or goroutine has
// leaked. Run with -race.

// chaosTransports is the transport matrix every recovery property is
// checked against.
var chaosTransports = []struct {
	name  string
	links func() LinkFactory
}{
	{"mem", MemLinks},
	{"tcp", TCPLinks},
}

// sendRecv is the subtest level that names the two-sided send/recv
// transport. The ring once had a one-sided write mode as well, and every
// test that ran in both modes named its cases writes=true and
// writes=false; the send/recv cases keep their names.
const sendRecv = "writes=false"

// buildAssign spreads nodes*chunks fragments of a fresh relation round-robin
// across the nodes and returns the assignment plus per-fragment content
// checksums.
func buildAssign(t *testing.T, nodes, chunks, tuples int) ([][]*relation.Fragment, map[int]uint64) {
	t.Helper()
	rel := workload.Sequential("R", tuples, 8)
	frags, err := relation.Partition(rel, nodes*chunks)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]uint64, len(frags))
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		want[f.Index] = fragChecksum(f)
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	return assign, want
}

// newChecksumRing builds a ring whose processors checksum every fragment.
func newChecksumRing(t *testing.T, cfg Config, links LinkFactory) (*Ring, []*checksummer) {
	t.Helper()
	sums := make([]*checksummer, cfg.Nodes)
	procs := make([]Processor, cfg.Nodes)
	for i := range procs {
		sums[i] = newChecksummer()
		procs[i] = sums[i]
	}
	r, err := New(cfg, links, procs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, sums
}

// assertExactlyOnce verifies every node saw every fragment exactly once
// with byte-identical contents — the invariant recovery must preserve.
func assertExactlyOnce(t *testing.T, sums []*checksummer, want map[int]uint64) {
	t.Helper()
	for n, cs := range sums {
		cs.mu.Lock()
		got := cs.sums
		if len(got) != len(want) {
			t.Errorf("node %d saw %d distinct fragments, want %d", n, len(got), len(want))
		}
		for idx, s := range got {
			if len(s) != 1 {
				t.Errorf("node %d processed fragment %d %d times, want exactly once", n, idx, len(s))
			}
			for _, sum := range s {
				if sum != want[idx] {
					t.Errorf("node %d fragment %d: checksum %#x, want %#x (content corrupted in recovery?)", n, idx, sum, want[idx])
				}
			}
		}
		cs.mu.Unlock()
	}
}

// assertAtMostOnce is the partial-result variant: no duplicates, no
// corruption — but gaps are expected.
func assertAtMostOnce(t *testing.T, sums []*checksummer, want map[int]uint64) {
	t.Helper()
	for n, cs := range sums {
		cs.mu.Lock()
		for idx, s := range cs.sums {
			if len(s) > 1 {
				t.Errorf("node %d processed fragment %d %d times after partial run, want at most once", n, idx, len(s))
			}
			for _, sum := range s {
				if sum != want[idx] {
					t.Errorf("node %d fragment %d: checksum %#x, want %#x", n, idx, sum, want[idx])
				}
			}
		}
		cs.mu.Unlock()
	}
}

// assertPoolsWhole verifies the buffer accounting after a completed run:
// no receive credit still pinned, and every send buffer back in its pool —
// a recovery that leaked either would wedge a later revolution. The final
// send completion of a revolution races Run's return by a reaper
// scheduling beat, so the check polls briefly before declaring a leak.
func assertPoolsWhole(t *testing.T, r *Ring) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		whole := true
		for _, n := range r.nodes {
			if pinnedCount(n) != 0 || n.freeSend.Len() != n.sendPool {
				whole = false
			}
		}
		if whole {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i, n := range r.nodes {
		if got := pinnedCount(n); got != 0 {
			t.Errorf("node %d: %d receive buffers still pinned after run", i, got)
		}
		if got, want := n.freeSend.Len(), n.sendPool; got != want {
			t.Errorf("node %d: send pool holds %d of %d buffers after run", i, got, want)
		}
	}
}

// TestChaosSingleDropRecovery injects one RC-style link failure (error
// completion + dead queue pair) mid-revolution and requires the run to
// complete via re-dial and frame re-routing: nil error, exactly-once
// byte-identical delivery, a second dial on the failed link only, and
// whole buffer pools afterwards.
func TestChaosSingleDropRecovery(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name+"/"+sendRecv, func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			const nodes = 3
			plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
				{From: 0, To: 1}: {FailFrame: 3},
			}}
			r, sums := newChecksumRing(t, Config{
				Nodes:       nodes,
				BufferSlots: 2,
				Recovery:    Recovery{MaxRetries: 3, Backoff: time.Millisecond},
			}, plan.Wrap(tr.links()))
			assign, want := buildAssign(t, nodes, 4, 240)
			if err := r.Run(assign); err != nil {
				t.Fatalf("Run did not recover from injected drop: %v", err)
			}
			assertExactlyOnce(t, sums, want)
			if got := plan.Dials(chaoslink.Link{From: 0, To: 1}); got != 2 {
				t.Errorf("faulted link dialed %d times, want 2 (initial + recovery re-dial)", got)
			}
			assertPoolsWhole(t, r)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosFlappingLinkRecovers re-dials into a still-faulty link: the
// first recovery lands on a link that fails again, and only the third dial
// comes up clean. Progress between failures must keep the retry budget
// from exhausting.
func TestChaosFlappingLinkRecovers(t *testing.T) {
	testutil.CheckNoLeaks(t)
	const nodes = 3
	plan := &chaoslink.Plan{
		PerLink:    map[chaoslink.Link]*chaoslink.Scenario{{From: 1, To: 2}: {FailFrame: 2}},
		FaultDials: 2,
	}
	r, sums := newChecksumRing(t, Config{
		Nodes:       nodes,
		BufferSlots: 2,
		Recovery:    Recovery{MaxRetries: 3, Backoff: time.Millisecond},
	}, plan.Wrap(MemLinks()))
	assign, want := buildAssign(t, nodes, 4, 240)
	if err := r.Run(assign); err != nil {
		t.Fatalf("Run did not survive a flapping link: %v", err)
	}
	assertExactlyOnce(t, sums, want)
	if got := plan.Dials(chaoslink.Link{From: 1, To: 2}); got != 3 {
		t.Errorf("flapping link dialed %d times, want 3", got)
	}
	for _, st := range r.Stats(nil) {
		want := int64(0)
		if st.Node == 1 {
			want = 2 // the first two dials of 1→2 fail
		}
		if st.LinkFailures != want {
			t.Errorf("node %d LinkFailures = %d, want %d", st.Node, st.LinkFailures, want)
		}
	}
	assertPoolsWhole(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPartitionDegradesGracefully partitions a link (every re-dial
// refused) and requires bounded retry to give up with a PartialError that
// reports honest progress — duplicates and corruption are still forbidden.
func TestChaosPartitionDegradesGracefully(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			const nodes = 3
			plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
				{From: 0, To: 1}: {FailFrame: 2, RefuseRedials: true},
			}}
			r, sums := newChecksumRing(t, Config{
				Nodes:       nodes,
				BufferSlots: 2,
				Recovery:    Recovery{MaxRetries: 2, Backoff: 100 * time.Microsecond},
			}, plan.Wrap(tr.links()))
			assign, want := buildAssign(t, nodes, 4, 240)
			total := 0
			for _, fs := range assign {
				total += len(fs)
			}
			err := r.Run(assign)
			if err == nil {
				t.Fatal("Run succeeded across a partitioned link")
			}
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("Run returned %v, want a *PartialError", err)
			}
			if pe.Total != total {
				t.Errorf("PartialError.Total = %d, want %d", pe.Total, total)
			}
			if pe.Retired >= pe.Total {
				t.Errorf("PartialError claims %d/%d retired despite the partition", pe.Retired, pe.Total)
			}
			if !errors.Is(err, chaoslink.ErrPartitioned) {
				t.Errorf("error chain %v does not surface the partition cause", err)
			}
			assertAtMostOnce(t, sums, want)
		})
	}
}

// TestChaosDelayForcesMaterialize paces one link so slowly that the
// upstream node runs out of free send buffers and must take the
// materialize (copy-out) fallback — and the join results must still be
// byte-identical to the zero-copy path.
func TestChaosDelayForcesMaterialize(t *testing.T) {
	t.Run(sendRecv, func(t *testing.T) {
		testutil.CheckNoLeaks(t)
		const nodes = 3
		plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
			{From: 0, To: 1}: {Delay: 200 * time.Microsecond, Pace: 2 * time.Millisecond},
		}}
		r, sums := newChecksumRing(t, Config{
			Nodes:       nodes,
			BufferSlots: 1,
		}, plan.Wrap(MemLinks()))
		before := r.nodes[0].m.materializes.Value()
		assign, want := buildAssign(t, nodes, 4, 240)
		if err := r.Run(assign); err != nil {
			t.Fatal(err)
		}
		assertExactlyOnce(t, sums, want)
		if got := r.nodes[0].m.materializes.Value() - before; got < 1 {
			t.Errorf("paced node materialized %d fragments, want >= 1 (congestion fallback never engaged)", got)
		}
		assertPoolsWhole(t, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChaosJitter delays every frame on every link by a seeded, jittered
// hold: frames still leave each link in post order, so delivery must stay
// exactly-once and uncorrupted.
func TestChaosJitter(t *testing.T) {
	testutil.CheckNoLeaks(t)
	const nodes = 3
	plan := &chaoslink.Plan{Default: &chaoslink.Scenario{
		Seed:   7,
		Delay:  50 * time.Microsecond,
		Jitter: 300 * time.Microsecond,
	}}
	r, sums := newChecksumRing(t, Config{
		Nodes:       nodes,
		BufferSlots: 2,
	}, plan.Wrap(MemLinks()))
	assign, want := buildAssign(t, nodes, 4, 240)
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, sums, want)
	assertPoolsWhole(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCloseMidRevolution closes the ring while a revolution is in
// flight, in every transport/mode combination. Run must return ErrClosed
// and no goroutine may be stranded (CheckNoLeaks enforces it).
func TestChaosCloseMidRevolution(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name+"/"+sendRecv, func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			const nodes = 3
			recs := make([]*recorder, nodes)
			procs := make([]Processor, nodes)
			for i := range recs {
				recs[i] = newRecorder()
				recs[i].delay = 2 * time.Millisecond
				procs[i] = recs[i]
			}
			r, err := New(Config{Nodes: nodes, BufferSlots: 2}, tr.links(), procs)
			if err != nil {
				t.Fatal(err)
			}
			assign, _ := buildAssign(t, nodes, 4, 240)
			runErr := make(chan error, 1)
			go func() { runErr <- r.Run(assign) }()
			// Let the revolution get moving before tearing it down.
			deadline := time.After(2 * time.Second)
			for len(recs[0].counts()) == 0 {
				select {
				case <-deadline:
					t.Fatal("revolution never started")
				case <-time.After(time.Millisecond):
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-runErr:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Run after mid-revolution Close returned %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return after Close")
			}
		})
	}
}

// TestChaosCloseDuringRecovery closes the ring while recovery is mid
// backoff against a partitioned link: the control goroutine must abandon
// the re-dial loop promptly and nothing may leak.
func TestChaosCloseDuringRecovery(t *testing.T) {
	testutil.CheckNoLeaks(t)
	const nodes = 3
	plan := &chaoslink.Plan{PerLink: map[chaoslink.Link]*chaoslink.Scenario{
		{From: 0, To: 1}: {FailFrame: 1, RefuseRedials: true},
	}}
	r, _ := newChecksumRing(t, Config{
		Nodes:       nodes,
		BufferSlots: 2,
		Recovery:    Recovery{MaxRetries: 1 << 20, Backoff: 250 * time.Millisecond},
	}, plan.Wrap(MemLinks()))
	assign, _ := buildAssign(t, nodes, 2, 120)
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run(assign) }()
	deadline := time.After(2 * time.Second)
	for plan.Dials(chaoslink.Link{From: 0, To: 1}) < 2 {
		select {
		case <-deadline:
			t.Fatal("recovery never attempted a re-dial")
		case <-time.After(time.Millisecond):
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Run closed during recovery returned %v, want ErrClosed in the chain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close during recovery backoff")
	}
}
