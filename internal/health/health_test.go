package health

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cyclojoin/internal/ring"
)

// fakeSource feeds the sampler hand-written cumulative counters; tests
// mutate rows between SampleOnce calls to simulate load.
type fakeSource struct {
	rows []ring.NodeStats
}

func (f *fakeSource) Stats(dst []ring.NodeStats) []ring.NodeStats {
	return append(dst, f.rows...)
}

func threeNodes() *fakeSource {
	return &fakeSource{rows: []ring.NodeStats{{Node: 0}, {Node: 1}, {Node: 2}}}
}

// tick takes a sample after a short sleep so the window has real width.
func tick(s *Sampler) *Snapshot {
	time.Sleep(5 * time.Millisecond)
	return s.SampleOnce()
}

func TestBaselineThenHealthy(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{})
	base := s.SampleOnce()
	if base.Window != 0 {
		t.Errorf("baseline Window = %v, want 0", base.Window)
	}
	if base.Verdict.Kind != Healthy {
		t.Errorf("baseline verdict = %v, want healthy", base.Verdict.Kind)
	}
	if s.Current() != base {
		t.Error("Current() should return the published baseline")
	}

	// Balanced load: every node equally busy.
	for i := range src.rows {
		src.rows[i].ProcessTime += 2 * time.Millisecond
		src.rows[i].Processed += 7
	}
	snap := tick(s)
	if snap.Verdict.Kind != Healthy {
		t.Errorf("balanced verdict = %v (%s), want healthy", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Window <= 0 {
		t.Errorf("second sample Window = %v, want > 0", snap.Window)
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("len(Nodes) = %d, want 3", len(snap.Nodes))
	}
	if snap.Nodes[1].Processed != 7 {
		t.Errorf("node 1 Processed delta = %d, want 7", snap.Nodes[1].Processed)
	}
	if snap.Nodes[1].FragsPerSec <= 0 {
		t.Errorf("node 1 FragsPerSec = %v, want > 0", snap.Nodes[1].FragsPerSec)
	}
}

func TestStragglerVerdictNamesTheBusyNode(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{})
	s.SampleOnce()

	// Node 2 burns an entire second of join+stage while the others barely
	// move: busy share >> MinBusyShare, ratio >> StragglerScore.
	src.rows[0].ProcessTime += 2 * time.Millisecond
	src.rows[1].ProcessTime += 2 * time.Millisecond
	src.rows[2].ProcessTime += 500 * time.Millisecond
	src.rows[2].StageTime += 500 * time.Millisecond
	snap := tick(s)
	if snap.Verdict.Kind != Straggler {
		t.Fatalf("verdict = %v (%s), want straggler", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Verdict.Node != 2 {
		t.Errorf("straggler node = %d, want 2", snap.Verdict.Node)
	}
	if snap.Slowest != 2 {
		t.Errorf("Slowest = %d, want 2", snap.Slowest)
	}
	if snap.Verdict.Score < 2 {
		t.Errorf("straggler score = %v, want >= 2", snap.Verdict.Score)
	}
}

func TestCreditStallVerdictNamesTheEgressLink(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{})
	s.SampleOnce()

	// Balanced busy (no straggler), but node 1's sender spends a full
	// second blocked on credits: stall share dominates.
	for i := range src.rows {
		src.rows[i].ProcessTime += 3 * time.Millisecond
	}
	src.rows[1].StallTime += time.Second
	snap := tick(s)
	if snap.Verdict.Kind != CreditStall {
		t.Fatalf("verdict = %v (%s), want credit-stall", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Verdict.Node != 1 {
		t.Errorf("stalling node = %d, want 1", snap.Verdict.Node)
	}
	if snap.Verdict.Link != "1→2" {
		t.Errorf("stalled link = %q, want 1→2", snap.Verdict.Link)
	}
}

// TestDegradedVerdictNamesTheFailedLink reads link failures from the
// ring's own stats: a failure count that moves between two samples
// outranks a straggler and names the failing node's outbound link, and
// a count that stands still no longer degrades.
func TestDegradedVerdictNamesTheFailedLink(t *testing.T) {
	src := threeNodes()
	src.rows[2].LinkFailures = 1 // before the baseline: not this window
	s := NewSampler(src, Options{})
	s.SampleOnce()

	src.rows[0].ProcessTime += 2 * time.Millisecond
	src.rows[1].ProcessTime += 2 * time.Millisecond
	src.rows[2].ProcessTime += 500 * time.Millisecond
	src.rows[2].LinkFailures += 2
	snap := tick(s)
	if snap.Verdict.Kind != Degraded {
		t.Fatalf("verdict = %v (%s), want degraded", snap.Verdict.Kind, snap.Verdict.Reason)
	}
	if snap.Verdict.Link != "2→0" {
		t.Errorf("degraded link = %q, want 2→0", snap.Verdict.Link)
	}
	if !strings.Contains(snap.Verdict.Reason, "2 link failure(s)") {
		t.Errorf("reason %q does not count this window's 2 failures", snap.Verdict.Reason)
	}
	if want := (LinkFaults{Link: "2→0", Failures: 3}); len(snap.Faults) != 1 || snap.Faults[0] != want {
		t.Errorf("Faults = %+v, want [%+v]", snap.Faults, want)
	}

	for i := range src.rows {
		src.rows[i].ProcessTime += 2 * time.Millisecond
	}
	if snap := tick(s); snap.Verdict.Kind == Degraded {
		t.Errorf("verdict = degraded (%s) on a window without link failures", snap.Verdict.Reason)
	}
}

func TestVerdictKindTextRoundTrip(t *testing.T) {
	for _, k := range []VerdictKind{Healthy, Straggler, CreditStall, Degraded} {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", k, err)
		}
		var back VerdictKind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %q -> %v", k, b, back)
		}
	}
	var bad VerdictKind
	if err := bad.UnmarshalText([]byte("spinning")); err == nil {
		t.Error("UnmarshalText accepted an unknown kind")
	}
}

func TestSubscribeDeliversAndCancelCloses(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{})
	ch, cancel := s.Subscribe()
	snap := s.SampleOnce()
	select {
	case got := <-ch:
		if got != snap {
			t.Error("subscriber received a different snapshot than published")
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber never received the snapshot")
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
	cancel() // idempotent
}

func TestHandlerOnceServesJSON(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?once=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snap.Nodes) != 3 {
		t.Errorf("len(Nodes) = %d, want 3", len(snap.Nodes))
	}
}

func TestHandlerStreamsSSE(t *testing.T) {
	src := threeNodes()
	s := NewSampler(src, Options{Interval: 5 * time.Millisecond})
	s.Start()
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancelReq := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelReq()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	// The payload must decode end to end: read two events (the immediate
	// replay plus one live tick) and check sequence numbers move.
	sc := bufio.NewScanner(resp.Body)
	var seqs []int64
	for sc.Scan() && len(seqs) < 2 {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal(bytes.TrimPrefix(line, []byte("data: ")), &snap); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
		seqs = append(seqs, snap.Seq)
	}
	if len(seqs) < 2 {
		t.Fatalf("read %d events, want 2 (scan err: %v)", len(seqs), sc.Err())
	}
	if seqs[1] <= seqs[0] {
		t.Errorf("sequence did not advance: %v", seqs)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	s := NewSampler(threeNodes(), Options{Interval: time.Millisecond})
	s.Start()
	s.Start()
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop()
	if s.Current() == nil {
		t.Error("no snapshot published before Stop")
	}
	// Stop without Start must not hang.
	s2 := NewSampler(threeNodes(), Options{})
	s2.Stop()
}
