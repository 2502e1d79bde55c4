package cm

import (
	"testing"

	"scaddar/internal/bufpool"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// TestVCRChurn drives streams with VCR behavior — random jumps and stops at
// block boundaries — the unpredictable access pattern the paper adopts
// random placement to support ("support for unpredictable access patterns
// as generated, for example, by interactive applications or VCR-style
// operations"). The server must stay hiccup-free and consistent, including
// across a mid-churn scale-out.
func TestVCRChurn(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 6, 500)
	vcr, err := workload.NewVCR(prng.NewSplitMix64(8), 100, 20) // 10% jump, 2% stop
	if err != nil {
		t.Fatal(err)
	}
	rnd := prng.NewSplitMix64(9)

	const target = 100
	admit := func() {
		t.Helper()
		st, err := srv.StartStream(int(rnd.Next() % 6))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.SeekStream(st.ID, int(rnd.Next()%500)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < target; i++ {
		admit()
	}

	live := func() []*Stream {
		var out []*Stream
		for id := 0; id < 100000; id++ {
			st, err := srv.Stream(id)
			if err != nil {
				break
			}
			if st.State == StreamPlaying {
				out = append(out, st)
			}
		}
		return out
	}

	scaleAt := 40
	for round := 0; round < 120; round++ {
		if round == scaleAt {
			if _, err := srv.ScaleUp(2); err != nil {
				t.Fatal(err)
			}
		}
		// Apply viewer actions to every live stream at block boundaries.
		for _, st := range live() {
			action, pos := vcr.Next(500)
			switch action {
			case workload.VCRJump:
				if err := srv.SeekStream(st.ID, pos); err != nil {
					t.Fatal(err)
				}
			case workload.VCRStop:
				if err := srv.StopStream(st.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
		for srv.ActiveStreams() < target {
			admit()
		}
	}
	if srv.Reorganizing() {
		for srv.Reorganizing() {
			if err := srv.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.Hiccups != 0 {
		t.Fatalf("%d hiccups under VCR churn", m.Hiccups)
	}
	if m.BlocksServed < 100*100 {
		t.Fatalf("served only %d blocks", m.BlocksServed)
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// evictingSink is a delivery sink that evicts a stream now and then.
type evictingSink struct{ rnd *prng.SplitMix64 }

func (evictingSink) WantsPayload(int) bool { return true }
func (e evictingSink) Deliver(_, _, _ int, p bufpool.Payload) bool {
	p.Release()
	return e.rnd.Next()%50 == 0
}
func (evictingSink) StreamClosed(int, StreamState) {}

// TestPlayingCountMatchesWalk drives every transition that changes what
// ActiveStreams and Ingesting answer — admission playing and paused, resume,
// stop, forced stop by object, eviction by the sink, playing to the end,
// recordings starting and committing — in a seeded random order, and after
// each step compares the counts kept at the transitions with a walk.
func TestPlayingCountMatchesWalk(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 6, 12) // short objects: streams reach their end
	rnd := prng.NewSplitMix64(27)
	srv.SetDeliverySink(evictingSink{rnd: prng.NewSplitMix64(28)})
	check := func(step int, what string) {
		t.Helper()
		playing, recording := 0, false
		for _, st := range srv.streams {
			if st.State == StreamPlaying {
				playing++
			}
		}
		for _, in := range srv.ingests {
			recording = recording || !in.Done
		}
		if srv.ActiveStreams() != playing || srv.Ingesting() != recording {
			t.Fatalf("step %d (%s): ActiveStreams %d, Ingesting %v; the walk finds %d playing, recording %v",
				step, what, srv.ActiveStreams(), srv.Ingesting(), playing, recording)
		}
	}
	seen := map[string]bool{}
	for step, nextObj := 0, 100; step < 3000; step++ {
		id := int(rnd.Next() % uint64(max(srv.nextSID, 1)))
		var what string
		switch rnd.Next() % 8 {
		case 0:
			what = "start"
			_, _ = srv.StartStream(int(rnd.Next() % 6))
		case 1:
			what = "start paused"
			_, _ = srv.StartStreamPaused(int(rnd.Next() % 6))
		case 2:
			what = "resume"
			_ = srv.ResumeStream(id)
		case 3:
			what = "stop"
			_ = srv.StopStream(id)
		case 4:
			what = "stop object"
			srv.StopObjectStreams(int(rnd.Next() % 6))
		case 5:
			what = "ingest"
			if _, err := srv.StartIngest(testObject(nextObj, 5), 2); err == nil {
				nextObj++
			}
		default:
			what = "tick"
			if err := srv.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		seen[what] = true
		check(step, what)
	}
	for i := 0; srv.Ingesting() && i < 10; i++ { // the last recordings commit
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
		check(3000+i, "tick")
	}
	m := srv.Metrics()
	if len(seen) != 7 || m.StreamsCompleted == 0 || m.SessionsEvicted == 0 || m.BlocksIngested == 0 || srv.Ingesting() {
		t.Errorf("the walk missed a transition: %v, %d completed, %d evicted, %d ingested, still recording %v",
			seen, m.StreamsCompleted, m.SessionsEvicted, m.BlocksIngested, srv.Ingesting())
	}
}
