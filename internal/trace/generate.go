package trace

import (
	"fmt"

	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// SessionConfig parameterizes synthetic session generation.
type SessionConfig struct {
	// Objects is the library size; admissions draw objects Zipf(S)-skewed.
	Objects int
	// BlocksPer is each object's block count (for seek positions).
	BlocksPer int
	// ZipfS is the popularity exponent.
	//unreached:testsupport DefaultSession picks it; the generator's tests vary it
	ZipfS float64
	// Streams is the number of admissions.
	Streams int
	// Rounds is the number of ticks after the admissions.
	Rounds int
	// VCRJumpPerMille and VCRStopPerMille inject viewer actions before
	// random ticks.
	//unreached:testsupport DefaultSession picks them; the generator's tests vary them
	VCRJumpPerMille, VCRStopPerMille int
	// ScaleUpAt, if positive, inserts a scale-up of ScaleUpCount disks
	// before that round, with a Finish once drained (the generator inserts
	// generous ticks after it).
	ScaleUpAt, ScaleUpCount int
	// Seed fixes the generator.
	Seed uint64
}

// DefaultSession is a moderate Zipf session with a mid-run scale-out.
func DefaultSession() SessionConfig {
	return SessionConfig{
		Objects:         10,
		BlocksPer:       400,
		ZipfS:           0.729,
		Streams:         60,
		Rounds:          80,
		VCRJumpPerMille: 50,
		VCRStopPerMille: 10,
		ScaleUpAt:       20,
		ScaleUpCount:    2,
		Seed:            7,
	}
}

// GenerateSession builds a reproducible synthetic session trace.
func GenerateSession(cfg SessionConfig) (*Trace, error) {
	if cfg.Objects < 1 || cfg.BlocksPer < 1 {
		return nil, fmt.Errorf("trace: degenerate library %dx%d", cfg.Objects, cfg.BlocksPer)
	}
	if cfg.Streams < 0 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("trace: degenerate session %d streams %d rounds", cfg.Streams, cfg.Rounds)
	}
	zipf, err := workload.NewZipf(prng.NewSplitMix64(cfg.Seed), cfg.Objects, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	vcr, err := workload.NewVCR(prng.NewSplitMix64(cfg.Seed+1), cfg.VCRJumpPerMille, cfg.VCRStopPerMille)
	if err != nil {
		return nil, err
	}
	pos := prng.NewSplitMix64(cfg.Seed + 2)

	tr := &Trace{}
	for i := 0; i < cfg.Streams; i++ {
		tr.Events = append(tr.Events, Event{
			Kind: KindAdmit,
			A:    int64(zipf.Draw()),
			B:    int64(pos.Next() % uint64(cfg.BlocksPer)),
		})
	}
	stopped := make(map[int64]bool)
	scaled := false
	for r := 0; r < cfg.Rounds; r++ {
		if cfg.ScaleUpAt > 0 && r == cfg.ScaleUpAt {
			tr.Events = append(tr.Events, Event{Kind: KindScaleUp, A: int64(cfg.ScaleUpCount)})
			scaled = true
		}
		// Viewer actions against a random live stream.
		if cfg.Streams > 0 {
			target := int64(pos.Next() % uint64(cfg.Streams))
			if !stopped[target] {
				action, jumpTo := vcr.Next(cfg.BlocksPer)
				switch action {
				case workload.VCRJump:
					tr.Events = append(tr.Events, Event{Kind: KindSeek, A: target, B: int64(jumpTo)})
				case workload.VCRStop:
					tr.Events = append(tr.Events, Event{Kind: KindStop, A: target})
					stopped[target] = true
				}
			}
		}
		tr.Events = append(tr.Events, Event{Kind: KindTick})
	}
	if scaled {
		// Generous drain allowance, then clear the migration.
		for i := 0; i < cfg.Rounds; i++ {
			tr.Events = append(tr.Events, Event{Kind: KindTick})
		}
		tr.Events = append(tr.Events, Event{Kind: KindFinish})
	}
	return tr, nil
}
