package ring

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclojoin/internal/relation"
	"cyclojoin/internal/testutil"
	"cyclojoin/internal/workload"
)

// recorder is a Processor that records which fragments it saw.
type recorder struct {
	mu    sync.Mutex
	seen  map[int]int // fragment index → times processed
	delay time.Duration
}

func newRecorder() *recorder { return &recorder{seen: map[int]int{}} }

func (r *recorder) Process(frag *relation.Fragment) error {
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[frag.Index]++
	return nil
}

func (r *recorder) counts() map[int]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make(map[int]int, len(r.seen))
	for k, v := range r.seen {
		cp[k] = v
	}
	return cp
}

// buildFrags partitions a fresh relation into one fragment per node.
func buildFrags(t *testing.T, nodes, tuples int) []*relation.Fragment {
	t.Helper()
	rel := workload.Sequential("R", tuples, 4)
	frags, err := relation.Partition(rel, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return frags
}

func perNode(frags []*relation.Fragment) [][]*relation.Fragment {
	out := make([][]*relation.Fragment, len(frags))
	for i, f := range frags {
		out[i] = []*relation.Fragment{f}
	}
	return out
}

func newRecorderRing(t *testing.T, nodes int, cfg Config, links LinkFactory) (*Ring, []*recorder) {
	t.Helper()
	cfg.Nodes = nodes
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		procs[i] = recs[i]
	}
	r, err := New(cfg, links, procs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = r.Close()
	})
	return r, recs
}

// TestOneRevolutionExactlyOnce is the core Data Roundabout invariant: after
// one Run, every node has processed every fragment exactly once (§IV-B:
// "After one revolution of R, all hosts have seen the full relation").
func TestOneRevolutionExactlyOnce(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 6} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			r, recs := newRecorderRing(t, nodes, Config{}, nil)
			frags := buildFrags(t, nodes, 600)
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			for n, rec := range recs {
				got := rec.counts()
				if len(got) != nodes {
					t.Errorf("node %d saw %d distinct fragments, want %d", n, len(got), nodes)
				}
				for idx, times := range got {
					if times != 1 {
						t.Errorf("node %d processed fragment %d %d times", n, idx, times)
					}
				}
			}
		})
	}
}

func TestMultipleFragmentsPerNode(t *testing.T) {
	const nodes, chunks = 3, 4
	r, recs := newRecorderRing(t, nodes, Config{BufferSlots: 2}, nil)
	rel := workload.Sequential("R", 240, 4)
	frags, err := relation.Partition(rel, nodes*chunks)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		got := rec.counts()
		if len(got) != nodes*chunks {
			t.Errorf("node %d saw %d fragments, want %d", n, len(got), nodes*chunks)
		}
	}
}

// TestRunTwice: a ring is reusable across joins (ternary joins, setup
// reuse).
func TestRunTwice(t *testing.T) {
	testutil.CheckNoLeaks(t)
	r, recs := newRecorderRing(t, 3, Config{}, nil)
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		for idx, times := range rec.counts() {
			if times != 2 {
				t.Errorf("node %d fragment %d processed %d times, want 2", n, idx, times)
			}
		}
	}
}

func TestTCPLinksRing(t *testing.T) {
	testutil.CheckNoLeaks(t)
	r, recs := newRecorderRing(t, 3, Config{}, TCPLinks())
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		if len(rec.counts()) != 3 {
			t.Errorf("node %d saw %d fragments", n, len(rec.counts()))
		}
	}
}

// TestSlowNodeBackpressure: one slow node must not lose or duplicate
// fragments; the ring buffers absorb the imbalance (§V-D).
func TestSlowNodeBackpressure(t *testing.T) {
	const nodes = 4
	recs := make([]*recorder, nodes)
	procs := make([]Processor, nodes)
	for i := range recs {
		recs[i] = newRecorder()
		if i == 1 {
			recs[i].delay = 3 * time.Millisecond
		}
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: nodes, BufferSlots: 2}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	rel := workload.Sequential("R", 400, 4)
	frags, err := relation.Partition(rel, nodes*3)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		assign[i%nodes] = append(assign[i%nodes], f)
	}
	if err := r.Run(assign); err != nil {
		t.Fatal(err)
	}
	for n, rec := range recs {
		got := rec.counts()
		if len(got) != len(frags) {
			t.Errorf("node %d saw %d fragments, want %d", n, len(got), len(frags))
		}
		for idx, times := range got {
			if times != 1 {
				t.Errorf("node %d fragment %d seen %d times", n, idx, times)
			}
		}
	}
}

func TestProcessorErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { return boom }),
	}
	r, err := New(Config{Nodes: 2}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 2, 100)
	err = r.Run(perNode(frags))
	if err == nil {
		t.Fatal("Run with failing processor: want error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error chain lost: %v", err)
	}
}

func TestOversizedFragmentFailsCleanly(t *testing.T) {
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
	}
	r, err := New(Config{Nodes: 2, BufferBytes: 64}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 2, 1000) // far larger than 64-byte buffers
	if err := r.Run(perNode(frags)); err == nil {
		t.Fatal("oversized fragment: want error")
	}
}

func TestStatsAccounting(t *testing.T) {
	r, _ := newRecorderRing(t, 3, Config{}, nil)
	frags := buildFrags(t, 3, 300)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats(nil)
	if len(stats) != 3 {
		t.Fatalf("stats for %d nodes", len(stats))
	}
	totalRetired := 0
	for i, st := range stats {
		if st.Processed != 3 {
			t.Errorf("node %d processed %d, want 3", i, st.Processed)
		}
		if st.BytesIn == 0 || st.BytesOut == 0 {
			t.Errorf("node %d has no traffic: in=%d out=%d", i, st.BytesIn, st.BytesOut)
		}
		if st.RegisteredBytes == 0 {
			t.Errorf("node %d registered no memory", i)
		}
		totalRetired += st.Retired
	}
	if totalRetired != 3 {
		t.Errorf("total retired = %d, want 3", totalRetired)
	}
}

// TestStatsExactAfterRun: the moment Run returns, the counters are final —
// every hop's frame is in BytesOut and BytesIn, not just eventually. A
// counter bumped after the post that lets the revolution finish would show
// up here as a missing last frame.
func TestStatsExactAfterRun(t *testing.T) {
	const nodes = 4
	for _, tr := range chaosTransports {
		t.Run(tr.name+"/"+sendRecv, func(t *testing.T) {
			r, _ := newRecorderRing(t, nodes, Config{}, tr.links())
			frags := buildFrags(t, nodes, 400)
			var wire int64
			for _, f := range frags {
				wire += int64(relation.EncodedSize(f)) * (nodes - 1)
			}
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			var in, out int64
			processed, retired := 0, 0
			for _, st := range r.Stats(nil) {
				in += st.BytesIn
				out += st.BytesOut
				processed += st.Processed
				retired += st.Retired
			}
			if out != wire || in != wire {
				t.Errorf("BytesOut = %d, BytesIn = %d, want both %d", out, in, wire)
			}
			if processed != len(frags)*nodes || retired != len(frags) {
				t.Errorf("Processed = %d, Retired = %d, want %d and %d", processed, retired, len(frags)*nodes, len(frags))
			}
		})
	}
}

// TestStatsReusesDst: a sampler calls Stats on every tick, so once its
// slice has grown a call allocates nothing — hop buckets included.
func TestStatsReusesDst(t *testing.T) {
	r, _ := newRecorderRing(t, 3, Config{}, nil)
	if err := r.Run(perNode(buildFrags(t, 3, 300))); err != nil {
		t.Fatal(err)
	}
	dst := r.Stats(nil)
	if allocs := testing.AllocsPerRun(100, func() { dst = r.Stats(dst[:0]) }); allocs != 0 {
		t.Errorf("Stats on a reused dst: %v allocs per call, want 0", allocs)
	}
	for i, st := range dst {
		if st.Node != i || len(st.HopCounts) != len(st.HopBounds)+1 {
			t.Errorf("row %d: node %d, %d hop counts for %d bounds", i, st.Node, len(st.HopCounts), len(st.HopBounds))
		}
	}
}

// TestStatsArePerRing runs one ring and then reads the stats of a second
// ring that never ran: the registry's per-node series are shared by every
// ring in the process, so a row read from them would report the first
// ring's hops, materializes and queue depth as the second's.
func TestStatsArePerRing(t *testing.T) {
	busy, _ := newRecorderRing(t, 3, Config{}, nil)
	if err := busy.Run(perNode(buildFrags(t, 3, 300))); err != nil {
		t.Fatal(err)
	}
	var hops int64
	for _, st := range busy.Stats(nil) {
		for _, c := range st.HopCounts {
			hops += c
		}
	}
	if hops == 0 {
		t.Fatal("the ring that ran counted no hops")
	}
	idle, _ := newRecorderRing(t, 3, Config{}, nil)
	for _, st := range idle.Stats(nil) {
		var h int64
		for _, c := range st.HopCounts {
			h += c
		}
		if h != 0 || st.Materializes != 0 || st.QueueDepth != 0 || st.Processed != 0 {
			t.Errorf("idle ring, node %d: %d hops, %d materializes, depth %d, %d processed; want all zero",
				st.Node, h, st.Materializes, st.QueueDepth, st.Processed)
		}
	}
}

// TestReplaceNode swaps a fresh machine into position 1 between two runs,
// on both transports: the replacement sees the whole second revolution, the
// untouched nodes see both, and the fresh links re-establish the receive
// credits. The old node's loops see their neighbours' endpoints
// close before their own stop channel does (over real sockets, as EOF) and
// report it; that report must neither survive ReplaceNode nor, should one
// arrive late, abort a later Run on a ring without recovery.
func TestReplaceNode(t *testing.T) {
	const nodes = 3
	for _, tr := range chaosTransports {
		t.Run(tr.name+"/"+sendRecv, func(t *testing.T) {
			r, recs := newRecorderRing(t, nodes, Config{}, tr.links())
			frags := buildFrags(t, nodes, 300)
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			oldIn := r.nodes[1].in
			replacement := newRecorder()
			if err := r.ReplaceNode(1, replacement); err != nil {
				t.Fatal(err)
			}
			if n := len(r.errc); n != 0 {
				t.Errorf("%d errors queued after ReplaceNode, want 0", n)
			}
			// A late echo from the replaced endpoint.
			r.errc <- &linkFailure{le: &LinkError{From: 0, To: 1, Err: io.EOF}, qp: oldIn}
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatalf("Run after ReplaceNode: %v", err)
			}
			if got := replacement.counts(); len(got) != nodes {
				t.Errorf("replacement saw %d fragments, want %d", len(got), nodes)
			}
			// The untouched nodes saw both runs.
			for _, n := range []int{0, 2} {
				for idx, times := range recs[n].counts() {
					if times != 2 {
						t.Errorf("node %d fragment %d seen %d times, want 2", n, idx, times)
					}
				}
			}
		})
	}
}

// TestStatsSurviveReplaceNode: a replacement keeps counting where its ring
// position left off. A Stats row going backwards would read as a negative
// window to internal/health's sampler.
func TestStatsSurviveReplaceNode(t *testing.T) {
	const nodes = 3
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) {
			r, _ := newRecorderRing(t, nodes, Config{}, tr.links())
			frags := buildFrags(t, nodes, 300)
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			before := r.Stats(nil)
			if err := r.ReplaceNode(1, newRecorder()); err != nil {
				t.Fatal(err)
			}
			if err := r.Run(perNode(frags)); err != nil {
				t.Fatal(err)
			}
			for i, st := range r.Stats(nil) {
				b := before[i]
				// Every node processes, forwards and retires in each Run.
				if st.Processed <= b.Processed || st.Retired <= b.Retired || st.BytesIn <= b.BytesIn || st.BytesOut <= b.BytesOut {
					t.Errorf("node %d: processed %d → %d, retired %d → %d, in %d → %d, out %d → %d; want all to grow",
						i, b.Processed, st.Processed, b.Retired, st.Retired, b.BytesIn, st.BytesIn, b.BytesOut, st.BytesOut)
				}
				if st.ProcessTime < b.ProcessTime || st.WaitTime < b.WaitTime || st.StageTime < b.StageTime ||
					st.StallTime < b.StallTime || st.Materializes < b.Materializes {
					t.Errorf("node %d went backwards: %+v → %+v", i, b, st)
				}
				for j, c := range st.HopCounts {
					if c < b.HopCounts[j] {
						t.Errorf("node %d hop bucket %d went backwards: %d → %d", i, j, b.HopCounts[j], c)
					}
				}
			}
		})
	}
}

func TestReplaceNodeSingleNodeRing(t *testing.T) {
	r, _ := newRecorderRing(t, 1, Config{}, nil)
	frags := buildFrags(t, 1, 50)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	replacement := newRecorder()
	if err := r.ReplaceNode(0, replacement); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatal(err)
	}
	if len(replacement.counts()) != 1 {
		t.Error("replacement did not process")
	}
}

func TestReplaceNodeOutOfRange(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.ReplaceNode(5, newRecorder()); err == nil {
		t.Error("want error for out-of-range node")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}, nil, nil); err == nil {
		t.Error("zero nodes: want error")
	}
	if _, err := New(Config{Nodes: 2}, nil, []Processor{newRecorder()}); err == nil {
		t.Error("processor count mismatch: want error")
	}
}

func TestRunValidation(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.Run(make([][]*relation.Fragment, 3)); err == nil {
		t.Error("wrong perNode length: want error")
	}
	bad := &relation.Fragment{} // nil Rel
	if err := r.Run([][]*relation.Fragment{{bad}, nil}); err == nil {
		t.Error("invalid fragment: want error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	r, _ := newRecorderRing(t, 2, Config{}, nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallWatchdog: a hung join entity turns into a diagnostic error
// instead of a wedged Run.
func TestStallWatchdog(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	procs := []Processor{
		ProcessorFunc(func(f *relation.Fragment) error { return nil }),
		ProcessorFunc(func(f *relation.Fragment) error { <-hang; return nil }),
	}
	r, err := New(Config{Nodes: 2, StallTimeout: 200 * time.Millisecond}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	frags := buildFrags(t, 2, 100)
	err = r.Run(perNode(frags))
	if err == nil {
		t.Fatal("Run with hung processor: want stall error")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Errorf("error = %v, want stall diagnostic", err)
	}
	if !strings.Contains(err.Error(), "node 0 processed") {
		t.Errorf("error lacks per-node progress: %v", err)
	}
}

// TestStallWatchdogQuietWhenHealthy: the watchdog must not fire on a
// healthy but slow run.
func TestStallWatchdogQuietWhenHealthy(t *testing.T) {
	recs := make([]*recorder, 3)
	procs := make([]Processor, 3)
	for i := range recs {
		recs[i] = newRecorder()
		recs[i].delay = 10 * time.Millisecond
		procs[i] = recs[i]
	}
	r, err := New(Config{Nodes: 3, StallTimeout: 2 * time.Second}, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = r.Close()
	}()
	frags := buildFrags(t, 3, 90)
	if err := r.Run(perNode(frags)); err != nil {
		t.Fatalf("healthy slow run tripped the watchdog: %v", err)
	}
}
