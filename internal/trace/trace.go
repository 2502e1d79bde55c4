// Package trace defines a compact, replayable event format for driving the
// continuous-media server: admissions, viewer actions, scaling operations,
// and round ticks. A recorded trace replays deterministically — same
// placements, same hiccups, same migration lengths — which is how the
// experiments in this repository stay reproducible and how a bug report
// against the simulator can be reduced to a file.
//
// Traces are flat event lists (no timestamps; the Tick events ARE the
// clock) with JSON and binary codecs mirroring the operation-log codecs of
// the core package.
package trace

import (
	"encoding/binary"
	"fmt"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
)

// Kind tags an event.
type Kind uint8

// Event kinds.
const (
	// KindTick advances one scheduling round.
	KindTick Kind = iota + 1
	// KindAdmit starts a stream: A = object ID, B = initial position.
	KindAdmit
	// KindSeek repositions a stream: A = stream ID, B = new position.
	KindSeek
	// KindStop terminates a stream: A = stream ID.
	KindStop
	// KindScaleUp attaches disks: A = count.
	KindScaleUp
	// KindScaleDown starts draining: A = first logical index, B = count
	// (contiguous groups keep the format compact; arbitrary groups use
	// repeated events of count 1 on shifting indices).
	KindScaleDown
	// KindCompleteScaleDown detaches the drained disks.
	KindCompleteScaleDown
	// KindFinish clears a completed scale-up migration.
	KindFinish
	// KindRedistribute performs a full redistribution.
	KindRedistribute
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTick:
		return "tick"
	case KindAdmit:
		return "admit"
	case KindSeek:
		return "seek"
	case KindStop:
		return "stop"
	case KindScaleUp:
		return "scale-up"
	case KindScaleDown:
		return "scale-down"
	case KindCompleteScaleDown:
		return "complete-scale-down"
	case KindFinish:
		return "finish"
	case KindRedistribute:
		return "redistribute"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one step of a session.
type Event struct {
	Kind Kind  `json:"kind"`
	A    int64 `json:"a,omitempty"`
	B    int64 `json:"b,omitempty"`
}

// Trace is a replayable session.
type Trace struct {
	// Events in execution order.
	Events []Event `json:"events"`
}

// Result summarizes a replay.
type Result struct {
	// Metrics is the server's cumulative metrics after the replay.
	Metrics cm.Metrics
	// Streams is the number of streams admitted by the trace.
	Streams int
	// StreamIDs maps trace admission order to server stream IDs, for
	// follow-up inspection.
	StreamIDs []int
}

// Apply replays the trace against a server. The server should be freshly
// loaded (objects in place, no streams); stream IDs referenced by Seek and
// Stop events are the trace's admission indices, translated to the server's
// IDs at replay time. Replay stops at the first failing event.
func Apply(srv *cm.Server, tr *Trace) (*Result, error) {
	if srv == nil || tr == nil {
		return nil, fmt.Errorf("trace: nil server or trace")
	}
	res := &Result{}
	for i, ev := range tr.Events {
		if err := applyOne(srv, ev, res); err != nil {
			return res, fmt.Errorf("trace: event %d (%s): %w", i, ev.Kind, err)
		}
	}
	res.Metrics = srv.Metrics()
	return res, nil
}

// applyOne executes a single event.
func applyOne(srv *cm.Server, ev Event, res *Result) error {
	switch ev.Kind {
	case KindTick:
		return srv.Tick()
	case KindAdmit:
		st, err := srv.StartStream(int(ev.A))
		if err != nil {
			return err
		}
		if ev.B > 0 {
			if err := srv.SeekStream(st.ID, int(ev.B)); err != nil {
				return err
			}
		}
		res.StreamIDs = append(res.StreamIDs, st.ID)
		res.Streams++
		return nil
	case KindSeek:
		id, err := traceStream(res, ev.A)
		if err != nil {
			return err
		}
		return srv.SeekStream(id, int(ev.B))
	case KindStop:
		id, err := traceStream(res, ev.A)
		if err != nil {
			return err
		}
		return srv.StopStream(id)
	case KindScaleUp:
		_, err := srv.ScaleUp(int(ev.A))
		return err
	case KindScaleDown:
		indices := make([]int, ev.B)
		for i := range indices {
			indices[i] = int(ev.A) + i
		}
		_, err := srv.ScaleDown(indices...)
		return err
	case KindCompleteScaleDown:
		return srv.CompleteScaleDown()
	case KindFinish:
		return srv.FinishReorganization()
	case KindRedistribute:
		_, err := srv.FullRedistribute()
		return err
	default:
		return fmt.Errorf("unknown event kind %d", uint8(ev.Kind))
	}
}

// traceStream resolves a trace admission index to a server stream ID.
func traceStream(res *Result, idx int64) (int, error) {
	if idx < 0 || idx >= int64(len(res.StreamIDs)) {
		return 0, fmt.Errorf("stream index %d outside the %d admissions so far", idx, len(res.StreamIDs))
	}
	return res.StreamIDs[idx], nil
}

// ---- Codecs ----

// traceMagic guards the binary encoding ("SCTR" + version 1).
var traceMagic = [4]byte{'S', 'C', 'T', 'R'}

const traceVersion = 1

// AppendBinary encodes the trace compactly: magic, version, count, then
// per event kind + zigzag-varint A and B.
func (t *Trace) AppendBinary(dst []byte) []byte {
	dst = append(dst, traceMagic[:]...)
	dst = binary.AppendUvarint(dst, traceVersion)
	dst = binary.AppendUvarint(dst, uint64(len(t.Events)))
	for _, ev := range t.Events {
		dst = append(dst, byte(ev.Kind))
		dst = binary.AppendVarint(dst, ev.A)
		dst = binary.AppendVarint(dst, ev.B)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Trace) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *Trace) UnmarshalBinary(data []byte) error {
	c := frame.Cursor{Buf: data}
	if magic := c.Bytes(len(traceMagic), "magic"); c.OK() && [4]byte(magic) != traceMagic {
		return fmt.Errorf("trace: bad magic %q", magic)
	}
	if version := c.Uvarint("version"); c.OK() && version != traceVersion {
		return fmt.Errorf("trace: unsupported version %d", version)
	}
	// An event is its kind byte and two varints: three bytes at least.
	events := make([]Event, c.Count(3, "event count"))
	for i := range events {
		ev := Event{Kind: Kind(c.U8("event kind")), A: c.Varint("event A"), B: c.Varint("event B")}
		if c.OK() && (ev.Kind < KindTick || ev.Kind > KindRedistribute) {
			return fmt.Errorf("trace: event %d: unknown kind %d", i, ev.Kind)
		}
		events[i] = ev
	}
	if err := c.Done("trace"); err != nil {
		return err
	}
	t.Events = events
	return nil
}
