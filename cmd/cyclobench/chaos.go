package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"cyclojoin/internal/core"
	"cyclojoin/internal/health"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/rdma/chaoslink"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/stats"
	"cyclojoin/internal/workload"
)

// chaosNodes and chaosTuples size the live ring the scenarios run on:
// small enough that the whole suite is a CI tier, large enough that every
// fault lands mid-revolution.
const (
	chaosNodes  = 3
	chaosTuples = 600
)

// chaosCase is one seeded fault scenario run against a live cluster.
type chaosCase struct {
	name      string
	transport string // "mem" or "tcp"
	link      chaoslink.Link
	scenario  chaoslink.Scenario
	// faultDials forwards to Plan.FaultDials (flapping links).
	faultDials int
	retries    int
	// wantPartial flips the acceptance: the join must degrade into a
	// typed partial result instead of recovering.
	wantPartial bool
}

// splitmix is the same tiny deterministic generator chaoslink schedules
// use, so `-seed N` reproduces the exact same case list forever.
type splitmix uint64

func (p *splitmix) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosCases derives the scenario list from one seed. The faulty link,
// failing frame ordinal and sub-seeds all move with the seed, so a CI job
// running fresh seeds keeps exploring new schedules while any failure
// stays reproducible from the printed seed alone.
func chaosCases(seed uint64) []chaosCase {
	rng := splitmix(seed)
	link := func() chaoslink.Link {
		from := int(rng.next() % chaosNodes)
		return chaoslink.Link{From: from, To: (from + 1) % chaosNodes}
	}
	// A revolution pushes Nodes-1 frames across each link (one rotating
	// fragment per node), so the failing ordinal must stay inside that
	// range for the fault to fire at all.
	frame := func() int { return 1 + int(rng.next()%uint64(chaosNodes-1)) }
	sub := func() uint64 { return rng.next() }
	cases := []chaosCase{
		{
			name: "drop+recover", transport: "mem",
			link:     link(),
			scenario: chaoslink.Scenario{Seed: sub(), FailFrame: frame()},
			retries:  4,
		},
		{
			name: "drop+recover", transport: "tcp",
			link:     link(),
			scenario: chaoslink.Scenario{Seed: sub(), FailFrame: frame()},
			retries:  4,
		},
		{
			name: "flapping", transport: "mem",
			link:       link(),
			scenario:   chaoslink.Scenario{Seed: sub(), FailFrame: frame()},
			faultDials: 2,
			retries:    4,
		},
		{
			name: "jitter", transport: "tcp",
			link: link(),
			scenario: chaoslink.Scenario{
				Seed:   sub(),
				Delay:  100 * time.Microsecond,
				Jitter: 500 * time.Microsecond,
			},
		},
		{
			name: "slow-node", transport: "mem",
			link: link(),
			scenario: chaoslink.Scenario{
				Seed:  sub(),
				Delay: 100 * time.Microsecond,
				Pace:  500 * time.Microsecond,
			},
		},
		{
			name: "partition", transport: "mem",
			link:        link(),
			scenario:    chaoslink.Scenario{Seed: sub(), FailFrame: frame(), RefuseRedials: true},
			retries:     2,
			wantPartial: true,
		},
	}
	return cases
}

// watchHealth runs a live health sampler over the cluster's ring for the
// duration of fn and returns the worst verdict any window produced (worst
// by kind: degraded > credit-stall > straggler > healthy). The sampling
// interval is tight because chaos joins are tiny.
func watchHealth(c *core.Cluster, fn func()) health.Verdict {
	sampler := health.NewSampler(c.Ring(), health.Options{Interval: 5 * time.Millisecond})
	snaps, cancel := sampler.Subscribe()
	got := make(chan health.Verdict, 1)
	go func() {
		worst := health.Verdict{Kind: health.Healthy, Node: -1}
		for snap := range snaps {
			if snap.Verdict.Kind > worst.Kind {
				worst = snap.Verdict
			}
		}
		got <- worst
	}()
	sampler.Start()
	fn()
	sampler.Stop()
	// One last sample so the tail of the run lands in a window even when
	// the join finished between ticks.
	sampler.SampleOnce()
	cancel()
	return <-got
}

// fmtVerdict renders a verdict for the chaos table's -health column.
func fmtVerdict(v health.Verdict) string {
	switch v.Kind {
	case health.Straggler:
		return fmt.Sprintf("%s(node %d)", v.Kind, v.Node)
	case health.CreditStall, health.Degraded:
		return fmt.Sprintf("%s(%s)", v.Kind, v.Link)
	default:
		return v.Kind.String()
	}
}

// runChaosCase executes one scenario and returns a short outcome label,
// the number of dials the faulty link saw, the worst live health verdict
// (empty unless withHealth), and the verification error (nil when the
// case met its acceptance condition).
func runChaosCase(tc chaosCase, withHealth bool) (string, int, string, error) {
	links := ring.MemLinks()
	if tc.transport == "tcp" {
		links = ring.TCPLinks()
	}
	plan := &chaoslink.Plan{
		PerLink:    map[chaoslink.Link]*chaoslink.Scenario{tc.link: &tc.scenario},
		FaultDials: tc.faultDials,
	}
	c, err := core.NewCluster(core.Config{
		Nodes:     chaosNodes,
		Algorithm: hashjoin.Join{},
		Predicate: join.Equi{},
		Links:     ring.LinkFactory(plan.Wrap(links)),
		Ring: ring.Config{
			Recovery: ring.Recovery{MaxRetries: tc.retries, Backoff: time.Millisecond},
		},
	})
	if err != nil {
		return "setup failed", 0, "", err
	}
	defer func() {
		_ = c.Close()
	}()
	r := workload.Sequential("R", chaosTuples, 4)
	s := workload.Sequential("S", chaosTuples, 4)
	var res *core.Result
	var joinErr error
	run := func() { res, joinErr = c.JoinRelations(r, s, false) }
	verdict := ""
	if withHealth {
		verdict = fmtVerdict(watchHealth(c, run))
	} else {
		run()
	}
	dials := plan.Dials(tc.link)

	if tc.wantPartial {
		var pe *ring.PartialError
		switch {
		case joinErr == nil:
			return "completed", dials, verdict, errors.New("partitioned join completed; want graceful degradation")
		case !errors.As(joinErr, &pe):
			return "wrong error", dials, verdict, fmt.Errorf("error is not a *ring.PartialError: %w", joinErr)
		case res == nil || res.Partial == nil:
			return "no partial", dials, verdict, errors.New("degraded join returned no partial result")
		default:
			return fmt.Sprintf("partial %d/%d", pe.Retired, pe.Total), dials, verdict, nil
		}
	}
	if joinErr != nil {
		return "failed", dials, verdict, joinErr
	}
	if got := res.Matches(); got != chaosTuples {
		return "wrong result", dials, verdict, fmt.Errorf("matches = %d, want %d", got, chaosTuples)
	}
	return "recovered", dials, verdict, nil
}

// runChaos drives the seeded fault-injection suite against live rings and
// renders one row per scenario. Any failure prints the exact schedule —
// seed, link, scenario — so a CI job with randomized seeds can upload a
// reproducible artifact, and returns nonzero.
func runChaos(w io.Writer, seed uint64, withHealth bool) int {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	cols := []string{"scenario", "transport", "link", "dials", "outcome"}
	if withHealth {
		cols = append(cols, "verdict")
	}
	tbl := stats.NewTable(fmt.Sprintf("Chaos scenarios (seed %d)", seed), cols...)
	failures := 0
	for _, tc := range chaosCases(seed) {
		outcome, dials, verdict, err := runChaosCase(tc, withHealth)
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr,
				"cyclobench: chaos FAIL %s/%s: %v\n  reproduce: cyclobench -chaos -seed %d\n  schedule: link %s %+v faultDials=%d retries=%d\n",
				tc.name, tc.transport, err, seed, tc.link, tc.scenario, tc.faultDials, tc.retries)
		}
		row := []string{tc.name, tc.transport, tc.link.String(),
			fmt.Sprintf("%d", dials), outcome}
		if withHealth {
			row = append(row, verdict)
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(w); err != nil {
		fmt.Fprintf(os.Stderr, "cyclobench: render chaos table: %v\n", err)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "cyclobench: %d chaos scenario(s) failed at seed %d\n", failures, seed)
		return 1
	}
	return 0
}
