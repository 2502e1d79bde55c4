package scaddar

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// TestPaperRemovalExampleMovedBlock reproduces the worked example of
// Section 4.2.1, first case: disks {0..5}, disk 4 removed, a block with
// X_{j-1} = 28 (so D_{j-1} = 28 mod 6 = 4) must move. The paper derives
// X_j = q_{j-1} = 4 and D_j = 4 mod 5 = 4, which maps to physical Disk 5.
func TestPaperRemovalExampleMovedBlock(t *testing.T) {
	xj, moved := remapRemove(28, 6, 5, []int{4})
	if !moved {
		t.Fatal("block on removed disk reported as not moved")
	}
	if xj != 4 {
		t.Fatalf("X_j = %d, want 4", xj)
	}
	if d := xj % 5; d != 4 {
		t.Fatalf("D_j = %d, want 4 (the 4-th surviving disk, physical Disk 5)", d)
	}
}

// TestPaperRemovalExampleStayingBlock reproduces the second case: a block
// with X_{j-1} = 41 (D_{j-1} = 41 mod 6 = 5) stays on Disk 5 when Disk 4 is
// removed. The paper derives X_j = 34 via Eq. 3a: new(5) = 4 and
// q·N_j + new(r) = 6·5 + 4 = 34, so D_j = 34 mod 5 = 4 — still physical
// Disk 5.
func TestPaperRemovalExampleStayingBlock(t *testing.T) {
	xj, moved := remapRemove(41, 6, 5, []int{4})
	if moved {
		t.Fatal("block on surviving disk reported as moved")
	}
	if xj != 34 {
		t.Fatalf("X_j = %d, want 34", xj)
	}
	if d := xj % 5; d != 4 {
		t.Fatalf("D_j = %d, want 4", d)
	}
}

// TestPaperRemovalExampleViaArray runs the same example through the
// physical-naming layer: logical index 4 after removing Disk 4 from {0..5}
// must be physical Disk 5.
func TestPaperRemovalExampleViaArray(t *testing.T) {
	a := MustNewArray(6)
	if err := a.Remove(4); err != nil {
		t.Fatal(err)
	}
	if got := a.Locate(28); got != DiskID(5) {
		t.Fatalf("moved block lands on physical disk %d, want 5", got)
	}
	if got := a.Locate(41); got != DiskID(5) {
		t.Fatalf("staying block lands on physical disk %d, want 5", got)
	}
}

func TestSurvivorIndex(t *testing.T) {
	// Paper's example: removing disk 1 from {0,1,2,3}, new(2) = 1.
	if got, gone := survivorIndex(2, []int{1}); gone || got != 1 {
		t.Fatalf("new(2) with {1} removed = %d gone=%v, want 1 false", got, gone)
	}
	if _, gone := survivorIndex(1, []int{1}); !gone {
		t.Fatal("removed disk not reported gone")
	}
	if got, gone := survivorIndex(0, []int{1}); gone || got != 0 {
		t.Fatalf("new(0) = %d gone=%v, want 0 false", got, gone)
	}
	if got, gone := survivorIndex(5, []int{0, 2, 4}); gone || got != 2 {
		t.Fatalf("new(5) with {0,2,4} removed = %d, want 2", got)
	}
}

func TestRemapAddStayKeepsDisk(t *testing.T) {
	// x = 103, 4 -> 5 disks: q = 25, r = 3, t = 25 mod 5 = 0 < 4: stays.
	xj, moved := remapAdd(103, 4, 5)
	if moved {
		t.Fatal("staying block reported as moved")
	}
	if d := xj % 5; d != 3 {
		t.Fatalf("disk after add = %d, want 3 (unchanged)", d)
	}
	// X_j = (q - t) + r = 25 - 0 + 3 = 28.
	if xj != 28 {
		t.Fatalf("X_j = %d, want 28", xj)
	}
}

func TestRemapAddMoveLandsOnNewDisk(t *testing.T) {
	// x = 97, 4 -> 5 disks: q = 24, r = 1, t = 24 mod 5 = 4 >= 4: moves to 4.
	xj, moved := remapAdd(97, 4, 5)
	if !moved {
		t.Fatal("moving block reported as staying")
	}
	if xj != 24 {
		t.Fatalf("X_j = %d, want q = 24", xj)
	}
	if d := xj % 5; d != 4 {
		t.Fatalf("disk after add = %d, want 4 (the added disk)", d)
	}
}

func TestNewHistoryValidation(t *testing.T) {
	if _, err := NewHistory(0); err == nil {
		t.Error("zero initial disks accepted")
	}
	if _, err := NewHistory(-3); err == nil {
		t.Error("negative initial disks accepted")
	}
	h, err := NewHistory(4)
	if err != nil || h.N0() != 4 || h.N() != 4 || h.Ops() != 0 {
		t.Fatalf("fresh history: %v %v", h, err)
	}
}

func TestMustNewHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewHistory(0) did not panic")
		}
	}()
	MustNewHistory(0)
}

func TestAddValidation(t *testing.T) {
	h := MustNewHistory(4)
	if _, err := h.Add(0); err == nil {
		t.Error("add of zero disks accepted")
	}
	if _, err := h.Add(-2); err == nil {
		t.Error("add of negative disks accepted")
	}
	op, err := h.Add(3)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpAdd || op.NBefore != 4 || op.NAfter != 7 || op.Count() != 3 {
		t.Fatalf("recorded op = %+v", op)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d, want 7", h.N())
	}
}

func TestRemoveValidation(t *testing.T) {
	h := MustNewHistory(4)
	if _, err := h.Remove(); err == nil {
		t.Error("empty removal accepted")
	}
	if _, err := h.Remove(0, 1, 2, 3); err == nil {
		t.Error("removal of all disks accepted")
	}
	if _, err := h.Remove(4); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := h.Remove(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := h.Remove(1, 1); err == nil {
		t.Error("duplicate index accepted")
	}
	op, err := h.Remove(3, 1) // unsorted input must be accepted
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpRemove || op.NAfter != 2 || op.Count() != 2 {
		t.Fatalf("recorded op = %+v", op)
	}
	if got := op.Removed; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Removed = %v, want [1 3]", got)
	}
}

func TestNAt(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	h.Remove(0)
	h.Add(1)
	want := []int{4, 6, 5, 6}
	for j, n := range want {
		if got := h.NAt(j); got != n {
			t.Errorf("NAt(%d) = %d, want %d", j, got, n)
		}
	}
	if h.N() != 6 {
		t.Errorf("N = %d, want 6", h.N())
	}
}

func TestLocateMatchesTrace(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	h.Remove(1, 4)
	h.Add(3)
	for x0 := uint64(0); x0 < 5000; x0 += 7 {
		trace := h.Trace(x0)
		if len(trace) != 4 {
			t.Fatalf("trace length %d, want 4", len(trace))
		}
		xj, disk := h.Final(x0)
		if trace[3] != xj {
			t.Fatalf("trace end %d != final %d", trace[3], xj)
		}
		if got := h.Locate(x0); got != disk {
			t.Fatalf("Locate %d != Final disk %d", got, disk)
		}
		if got := h.DiskAt(x0, h.Ops()); got != disk {
			t.Fatalf("DiskAt(full) %d != %d", got, disk)
		}
		if got := h.DiskAt(x0, 0); got != int(x0%4) {
			t.Fatalf("DiskAt(0) = %d, want %d", got, x0%4)
		}
	}
}

func TestMoved(t *testing.T) {
	h := MustNewHistory(4)
	// No operations: nothing has moved.
	moved, before, after := h.Moved(11)
	if moved || before != 3 || after != 3 {
		t.Fatalf("fresh history Moved = %v %d %d", moved, before, after)
	}
	h.Add(1)
	sawMove, sawStay := false, false
	for x0 := uint64(0); x0 < 2000; x0++ {
		moved, before, after := h.Moved(x0)
		if moved {
			sawMove = true
			if after != 4 {
				t.Fatalf("x0=%d moved to %d, want the added disk 4", x0, after)
			}
			if before == after {
				t.Fatalf("x0=%d reported moved but disk unchanged", x0)
			}
		} else {
			sawStay = true
			if before != after {
				t.Fatalf("x0=%d reported staying but moved %d->%d", x0, before, after)
			}
		}
	}
	if !sawMove || !sawStay {
		t.Fatal("expected both movers and stayers in 2000 blocks")
	}
}

func TestClone(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	h.Remove(1)
	c := h.Clone()
	h.Add(5)
	if c.Ops() != 2 || c.N() != 5 {
		t.Fatalf("clone changed by original mutation: %v", c)
	}
	// Mutating the clone's removed slice must not affect the original.
	c.Op(2).Removed[0] = 99
	if h.Op(2).Removed[0] != 99 {
		// Op returns a struct copy sharing the slice; the clone must have
		// its own backing array, so the original stays 1.
		if h.Op(2).Removed[0] != 1 {
			t.Fatalf("original removed = %v", h.Op(2).Removed)
		}
	} else {
		t.Fatal("clone shares removed-slice storage with the original")
	}
}

func TestOpsProduct(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2) // N=6
	h.Add(2) // N=8
	mu, ok := h.OpsProduct()
	if !ok || mu != 4*6*8 {
		t.Fatalf("OpsProduct = %d %v, want 192 true", mu, ok)
	}
	// Force overflow with huge disk counts.
	h2 := MustNewHistory(1 << 30)
	for i := 0; i < 3; i++ {
		h2.Add(1 << 30)
	}
	if _, ok := h2.OpsProduct(); ok {
		t.Fatal("overflowed product reported ok")
	}
}

func TestHistoryString(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(1)
	h.Remove(2, 0)
	want := "N0=4 add(1)→5 remove(2)→3"
	if got := h.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpRemove.String() != "remove" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	h.Remove(1, 3)
	h.Add(1)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back History
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != h.String() {
		t.Fatalf("round trip: %s != %s", back.String(), h.String())
	}
	for x0 := uint64(0); x0 < 1000; x0 += 13 {
		if back.Locate(x0) != h.Locate(x0) {
			t.Fatalf("round-tripped history locates x0=%d differently", x0)
		}
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"n0":0,"ops":[]}`,
		`{"n0":4,"ops":[{"kind":1,"nBefore":5,"nAfter":6}]}`,               // wrong nBefore
		`{"n0":4,"ops":[{"kind":2,"nBefore":4,"nAfter":3,"removed":[9]}]}`, // bad index
		`{"n0":4,"ops":[{"kind":7,"nBefore":4,"nAfter":5}]}`,               // unknown kind
		`{"n0":4,"ops":[{"kind":2,"nBefore":4,"nAfter":1,"removed":[0,1]}]}`,
	}
	for _, c := range cases {
		var h History
		if err := json.Unmarshal([]byte(c), &h); err == nil {
			t.Errorf("corrupt history accepted: %s", c)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	h := MustNewHistory(7)
	h.Add(3)
	h.Remove(0, 5, 9)
	h.Add(2)
	h.Remove(4)
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back History
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.String() != h.String() {
		t.Fatalf("round trip: %s != %s", back.String(), h.String())
	}
	for x0 := uint64(1); x0 < 100000; x0 *= 3 {
		if back.Locate(x0) != h.Locate(x0) {
			t.Fatalf("binary round trip locates x0=%d differently", x0)
		}
	}
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(1)
	good, _ := h.MarshalBinary()

	var back History
	if err := back.UnmarshalBinary(nil); err == nil {
		t.Error("empty data accepted")
	}
	bad := append([]byte("XXXX"), good[4:]...)
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
	truncated := good[:len(good)-1]
	if err := back.UnmarshalBinary(truncated); err == nil {
		t.Error("truncated data accepted")
	}
	trailing := append(append([]byte{}, good...), 0x01)
	if err := back.UnmarshalBinary(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestBinaryRejectsForgedCounts: a count the decoder would have to narrow is
// held to the bound first. The parent cast each straight to int and accepted
// every one of these — a history with a negative disk count, removal indices
// that wrap around to valid ones out of order, an operation kind of 257 read
// as an add — and the JSON codec and the API took the same disk counts.
func TestBinaryRejectsForgedCounts(t *testing.T) {
	u := binary.AppendUvarint
	head := func(n0, nops uint64) []byte { return u(u(u([]byte("SCDR"), 1), n0), nops) }
	for name, data := range map[string][]byte{
		"n0 of MaxInt64, then an add that overflows it": u(u(head(math.MaxInt64, 1), uint64(OpAdd)), 1),
		"add of MaxInt64 disks":                         u(u(head(4, 1), uint64(OpAdd)), math.MaxInt64),
		"three adds that overflow only together":        u(u(u(u(u(u(head(1, 3), 1), 1<<62-2), 1), 1<<62-2), 1), 1<<62-2),
		"removal delta of -1 as a uvarint":              u(u(u(u(head(4, 1), uint64(OpRemove)), 2), 1), math.MaxUint64),
		"operation kind 257":                            u(u(head(4, 1), 257), 1),
		"operation count the input cannot hold":         head(4, 1<<40),
	} {
		var h History
		if err := h.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted as %s with N = %d", name, h.String(), h.N())
		}
	}
	if _, err := NewHistory(math.MaxInt64); err == nil {
		t.Error("NewHistory accepted a disk count no codec can carry")
	}
	var h History
	if err := json.Unmarshal([]byte(`{"n0":4,"ops":[{"kind":1,"nBefore":4,"nAfter":9223372036854775807}]}`), &h); err == nil {
		t.Errorf("JSON codec accepted an add to N = %d", h.N())
	}
}

func TestBinaryCompactness(t *testing.T) {
	// The operation log must stay tiny — that is SCADDAR's storage pitch.
	h := MustNewHistory(100)
	for i := 0; i < 50; i++ {
		h.Add(2)
	}
	data, _ := h.MarshalBinary()
	if len(data) > 200 {
		t.Fatalf("50-op binary log is %d bytes; want compact (<200)", len(data))
	}
}

// TestQuickAddInvariants property-tests RO1/RO2 structure for a single
// addition: stayers keep their disk, movers land only on added disks, and
// the remapped value's disk is consistent.
func TestQuickAddInvariants(t *testing.T) {
	f := func(x uint64, nbRaw, addRaw uint8) bool {
		nBefore := int(nbRaw%64) + 1
		added := int(addRaw%16) + 1
		nAfter := nBefore + added
		xj, moved := remapAdd(x, nBefore, nAfter)
		dBefore := int(x % uint64(nBefore))
		dAfter := int(xj % uint64(nAfter))
		if moved {
			return dAfter >= nBefore && dAfter < nAfter
		}
		return dAfter == dBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemoveInvariants property-tests the removal REMAP: stayers keep
// their physical disk (up to compaction), movers were exactly the blocks on
// removed disks.
func TestQuickRemoveInvariants(t *testing.T) {
	f := func(x uint64, nbRaw, maskRaw uint8) bool {
		nBefore := int(nbRaw%62) + 2
		// Build a non-empty, non-total removal set from the mask.
		var removed []int
		for d := 0; d < nBefore && len(removed) < nBefore-1; d++ {
			if maskRaw&(1<<(d%8)) != 0 && d%3 == int(maskRaw)%3 {
				removed = append(removed, d)
			}
		}
		if len(removed) == 0 {
			removed = []int{0}
		}
		nAfter := nBefore - len(removed)
		xj, moved := remapRemove(x, nBefore, nAfter, removed)
		dBefore := int(x % uint64(nBefore))
		dAfter := int(xj % uint64(nAfter))
		wasRemoved := false
		for _, r := range removed {
			if r == dBefore {
				wasRemoved = true
			}
		}
		if moved != wasRemoved {
			return false
		}
		if dAfter < 0 || dAfter >= nAfter {
			return false
		}
		if !moved {
			want, gone := survivorIndex(dBefore, removed)
			return !gone && dAfter == want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChainDeterminism property-tests that Locate is a pure function of
// (x0, history).
func TestQuickChainDeterminism(t *testing.T) {
	h := MustNewHistory(5)
	h.Add(2)
	h.Remove(3)
	h.Add(4)
	h.Remove(0, 2)
	f := func(x0 uint64) bool {
		return h.Locate(x0) == h.Locate(x0) && h.Locate(x0) < h.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAdditionMoveFraction checks RO1 quantitatively: the fraction of blocks
// moved by an addition is close to z_j = (N_j - N_{j-1})/N_j.
func TestAdditionMoveFraction(t *testing.T) {
	const blocks = 200000
	h := MustNewHistory(8)
	h.Add(2) // z = 2/10
	moves := 0
	for i := 0; i < blocks; i++ {
		// Use a mixed value as x0 so the sample is effectively random.
		x0 := uint64(i)*0x9e3779b97f4a7c15 + 0x1234567
		x0 = x0 ^ (x0 >> 29)
		if moved, _, _ := h.Moved(x0); moved {
			moves++
		}
	}
	got := float64(moves) / blocks
	if got < 0.19 || got > 0.21 {
		t.Fatalf("moved fraction %.4f, want ~0.20", got)
	}
}

// TestUniformityAfterChain checks RO2 end-to-end: after a realistic chain of
// operations the placement is still statistically uniform (chi-square should
// not reject wildly; we use a loose bound on relative deviation).
func TestUniformityAfterChain(t *testing.T) {
	const blocks = 120000
	h := MustNewHistory(6)
	h.Add(2)    // 8
	h.Remove(3) // 7
	h.Add(3)    // 10
	counts := make([]int, h.N())
	for i := 0; i < blocks; i++ {
		x0 := uint64(i)*0x9e3779b97f4a7c15 + 99
		x0 ^= x0 >> 31
		counts[h.Locate(x0)]++
	}
	want := blocks / h.N()
	for d, c := range counts {
		if c < want*85/100 || c > want*115/100 {
			t.Fatalf("disk %d holds %d blocks, want within 15%% of %d (counts %v)", d, c, want, counts)
		}
	}
}
