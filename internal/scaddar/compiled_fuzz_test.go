package scaddar

import "testing"

// FuzzCompiledChain differentially tests the compiled REMAP chain against
// the interpreted one: over a history derived from the fuzz schedule, Locate,
// Final, Moved, and LocateBatch must agree exactly with the per-operation
// Step walk, the chain state must be the interpreted X_k split by N_k at
// every prefix k, and mutating the history must invalidate the compiled form.
// Seed inputs live in testdata/fuzz/FuzzCompiledChain.
func FuzzCompiledChain(f *testing.F) {
	f.Add(uint64(28), uint8(6), uint32(0x1234), uint16(3))
	f.Add(uint64(41), uint8(6), uint32(0xFFFFFFFF), uint16(0xFFFF))
	f.Add(^uint64(0), uint8(2), uint32(1), uint16(0))
	f.Add(uint64(0), uint8(0), uint32(0xAAAAAAAA), uint16(7))
	// The (Q, d) formulation's edge shapes: an array shrunk to one disk and
	// regrown six times, a power-of-two disk count on every other operation
	// (16 ↔ 17), the round-up-magic divisors 7, 14 and 23, removals past the
	// survivor-table budget (top bit of n0Raw), and the extreme X0 values.
	f.Add(uint64(1), uint8(1), uint32(0x00A2A2A2), uint16(0))
	f.Add(uint64(1)<<32, uint8(15), uint32(0x00888888), uint16(3))
	f.Add(^uint64(0), uint8(6), uint32(0x0005A6A5), uint16(5))
	f.Add(uint64(0), uint8(0x82), uint32(0x0003E2E2), uint16(0x5555))
	f.Add(^uint64(0)-1, uint8(0x8F), uint32(0xFFFFFFFF), uint16(2))
	f.Fuzz(func(t *testing.T, x0 uint64, n0Raw uint8, schedule uint32, removeSel uint16) {
		n0 := int(n0Raw%16) + 1
		h := MustNewHistory(n0)
		if n0Raw&0x80 != 0 {
			// Wider than the survivor-table budget: every removal below
			// compiles to the binary-search arm.
			if _, err := h.Add(survivorTableBudget); err != nil {
				t.Fatal(err)
			}
		}
		// Derive up to 12 operations from the schedule bits: 00/01 add,
		// 10 remove one disk, 11 remove up to three disks.
		for op := 0; op < 12; op++ {
			bits := (schedule >> (op * 2)) & 3
			switch {
			case bits == 0:
				if _, err := h.Add(1); err != nil {
					t.Fatal(err)
				}
			case bits == 1:
				if _, err := h.Add(int(schedule>>16)%7 + 2); err != nil {
					t.Fatal(err)
				}
			case h.N() > 1:
				k := 1
				if bits == 3 {
					k = int(removeSel%3) + 1
					if k > h.N()-1 {
						k = h.N() - 1
					}
				}
				idx := make([]int, 0, k)
				used := make(map[int]bool, k)
				for i := 0; len(idx) < k; i++ {
					cand := (int(removeSel) + op + i) % h.N()
					if !used[cand] {
						used[cand] = true
						idx = append(idx, cand)
					}
				}
				if _, err := h.Remove(idx...); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := h.Add(1); err != nil {
					t.Fatal(err)
				}
			}
		}

		chain := h.Compile()
		if !chain.Valid() {
			t.Fatal("fresh chain reports invalid")
		}
		if chain.N() != h.N() || chain.Ops() != h.Ops() {
			t.Fatalf("chain shape (%d,%d) != history (%d,%d)", chain.N(), chain.Ops(), h.N(), h.Ops())
		}
		// Probe the fuzzed value and a spread of its neighbors.
		xs := []uint64{x0, x0 + 1, x0 ^ 0xFFFF, x0 >> 1, x0 * 0x9E3779B97F4A7C15, 0, 1, 1 << 32, ^uint64(0)}
		for _, x := range xs {
			checkChainState(t, h, chain, x)
			if got, want := chain.Locate(x), interpLocate(h, x); got != want {
				t.Fatalf("%v: compiled Locate(%d) = %d, interpreted %d", h, x, got, want)
			}
			gx, gd := chain.Final(x)
			wx, wd := interpFinal(h, x)
			if gx != wx || gd != wd {
				t.Fatalf("%v: compiled Final(%d) = (%d,%d), interpreted (%d,%d)", h, x, gx, gd, wx, wd)
			}
			gm, gb, ga := chain.Moved(x)
			wm, wb, wa := interpMoved(h, x)
			if gm != wm || gb != wb || ga != wa {
				t.Fatalf("%v: compiled Moved(%d) = (%v,%d,%d), interpreted (%v,%d,%d)",
					h, x, gm, gb, ga, wm, wb, wa)
			}
		}
		out := make([]int, len(xs))
		chain.LocateBatch(xs, out)
		for i, x := range xs {
			if want := interpLocate(h, x); out[i] != want {
				t.Fatalf("%v: batch[%d] = %d, interpreted %d", h, i, out[i], want)
			}
		}
		// Mutation must invalidate; the recompiled chain must agree again.
		if _, err := h.Add(1); err != nil {
			t.Fatal(err)
		}
		if chain.Valid() {
			t.Fatal("chain still valid after mutation")
		}
		if got, want := h.Compile().Locate(x0), interpLocate(h, x0); got != want {
			t.Fatalf("recompiled Locate(%d) = %d, interpreted %d", x0, got, want)
		}
	})
}
