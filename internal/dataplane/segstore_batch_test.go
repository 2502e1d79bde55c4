package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"scaddar/internal/bufpool"
	"scaddar/internal/disk"
	"scaddar/internal/frame"
)

// readBatch runs ReadBlocks over the given block IDs and returns the
// filled slots.
func readBatch(s *Store, bids ...disk.BlockID) []disk.BlockRead {
	reqs := make([]disk.BlockRead, len(bids))
	for i, bid := range bids {
		reqs[i].Block = bid
	}
	s.ReadBlocks(reqs)
	return reqs
}

// releaseBatch drops every successful slot's buffer reference.
func releaseBatch(reqs []disk.BlockRead) {
	for i := range reqs {
		reqs[i].Payload.Release()
	}
}

func TestStoreReadBlocksRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	bids := make([]disk.BlockID, n)
	for i := 0; i < n; i++ {
		bids[i] = disk.BlockID(i)
		put(t, s, bids[i], 7, uint64(i), 2048)
	}
	base := bufpool.InUse()
	// Request out of order so the batch must sort, coalesce, and still fill
	// the caller's slots in place.
	shuffled := make([]disk.BlockID, n)
	for i := range shuffled {
		shuffled[i] = bids[(i*17)%n]
	}
	reqs := readBatch(s, shuffled...)
	for i := range reqs {
		if reqs[i].Err != nil {
			t.Fatalf("slot %d (block %d): %v", i, reqs[i].Block, reqs[i].Err)
		}
		if int64(len(reqs[i].Payload.Data)) != 2048 ||
			!VerifySeededContent(reqs[i].Payload.Data, 7, uint64(reqs[i].Block)) {
			t.Fatalf("slot %d (block %d): payload does not match oracle", i, reqs[i].Block)
		}
	}
	// Adjacent puts must have coalesced: far fewer pooled buffers than slots.
	if held := bufpool.InUse() - base; held >= n {
		t.Fatalf("batch holds %d pooled buffers for %d blocks; expected coalescing to share spans", held, n)
	}
	releaseBatch(reqs)
	if bufpool.InUse() != base {
		t.Fatalf("InUse = %d after release, want %d", bufpool.InUse(), base)
	}
}

func TestStoreReadBlocksDuplicateAndMissing(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, 1, 3, 1, 512)
	base := bufpool.InUse()
	reqs := readBatch(s, 1, 99, 1)
	if reqs[0].Err != nil || reqs[2].Err != nil {
		t.Fatalf("duplicate slots errored: %v / %v", reqs[0].Err, reqs[2].Err)
	}
	if !errors.Is(reqs[1].Err, ErrPayloadNotFound) {
		t.Fatalf("missing slot: %v, want ErrPayloadNotFound", reqs[1].Err)
	}
	if !VerifySeededContent(reqs[0].Payload.Data, 3, 1) || !VerifySeededContent(reqs[2].Payload.Data, 3, 1) {
		t.Fatal("duplicate slots do not match oracle")
	}
	releaseBatch(reqs)
	if bufpool.InUse() != base {
		t.Fatalf("InUse = %d after release, want %d", bufpool.InUse(), base)
	}
}

// TestStoreReadBlocksCorruptionIsPerBlock flips one byte inside the middle
// record of three physically adjacent records: the coalesced span must
// surface ErrCorruptPayload for exactly that block while its span
// neighbours verify clean — and the shared buffer must still return to the
// pool.
func TestStoreReadBlocksCorruptionIsPerBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := disk.BlockID(0); i < 3; i++ {
		put(t, s, i, 5, uint64(i), 1024)
	}
	// Corrupt block 1's bytes in place on disk.
	s.mu.Lock()
	e := s.index[1]
	seg := s.bySeq[e.seg]
	s.mu.Unlock()
	b := make([]byte, 1)
	if _, err := seg.f.ReadAt(b, e.off+frame.HeaderLen+16); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := seg.f.WriteAt(b, e.off+frame.HeaderLen+16); err != nil {
		t.Fatal(err)
	}
	base := bufpool.InUse()
	reqs := readBatch(s, 0, 1, 2)
	if reqs[0].Err != nil || reqs[2].Err != nil {
		t.Fatalf("clean neighbours errored: %v / %v", reqs[0].Err, reqs[2].Err)
	}
	if !errors.Is(reqs[1].Err, ErrCorruptPayload) {
		t.Fatalf("corrupt slot: %v, want ErrCorruptPayload", reqs[1].Err)
	}
	if !VerifySeededContent(reqs[0].Payload.Data, 5, 0) || !VerifySeededContent(reqs[2].Payload.Data, 5, 2) {
		t.Fatal("span neighbours of the corrupt record do not match oracle")
	}
	releaseBatch(reqs)
	if bufpool.InUse() != base {
		t.Fatalf("InUse = %d after release, want %d", bufpool.InUse(), base)
	}
}

// TestStoreReadBlocksInjectedFaultIsPerBlock injects a transient fault for
// one block of a coalesced batch; only that slot fails.
func TestStoreReadBlocksInjectedFaultIsPerBlock(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := disk.BlockID(0); i < 4; i++ {
		put(t, s, i, 9, uint64(i), 768)
	}
	boom := errors.New("injected media error")
	s.SetReadFault(func(bid disk.BlockID) error {
		if bid == 2 {
			return boom
		}
		return nil
	})
	base := bufpool.InUse()
	reqs := readBatch(s, 0, 1, 2, 3)
	for i, r := range reqs {
		if r.Block == 2 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("faulty slot: %v, want injected error", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if !VerifySeededContent(r.Payload.Data, 9, uint64(r.Block)) {
			t.Fatalf("slot %d does not match oracle", i)
		}
	}
	releaseBatch(reqs)
	if bufpool.InUse() != base {
		t.Fatalf("InUse = %d after release, want %d", bufpool.InUse(), base)
	}
}

func TestStoreReadBlocksClosed(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, 1, 1, 1, 128)
	s.Close()
	reqs := readBatch(s, 1)
	if !errors.Is(reqs[0].Err, ErrStoreClosed) {
		t.Fatalf("ReadBlocks on closed store: %v, want ErrStoreClosed", reqs[0].Err)
	}
}

// TestStoreConcurrentReadsAndCompaction is the regression test for the
// narrowed critical section: readers (Get and ReadBlocks) race writers,
// deletes, and repeated Compact calls. Under -race this proves file I/O
// outside the mutex cannot tear store state, and the pin protocol proves
// compaction never unlinks-and-closes a segment mid-read.
func TestStoreConcurrentReadsAndCompaction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{SegmentMaxBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const blocks = 64
	for i := disk.BlockID(0); i < blocks; i++ {
		put(t, s, i, 11, uint64(i), 1024)
	}
	base := bufpool.InUse()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				bid := disk.BlockID((i*7 + g) % blocks)
				if i%2 == 0 {
					data, err := s.Get(bid)
					if err != nil {
						panic(fmt.Sprintf("Get(%d): %v", bid, err))
					}
					if !VerifySeededContent(data, 11, uint64(bid)) {
						panic(fmt.Sprintf("Get(%d): oracle mismatch", bid))
					}
				} else {
					reqs := readBatch(s, bid, (bid+1)%blocks, (bid+2)%blocks)
					for _, r := range reqs {
						if r.Err != nil {
							panic(fmt.Sprintf("ReadBlocks(%d): %v", r.Block, r.Err))
						}
						if !VerifySeededContent(r.Payload.Data, 11, uint64(r.Block)) {
							panic(fmt.Sprintf("ReadBlocks(%d): oracle mismatch", r.Block))
						}
					}
					releaseBatch(reqs)
				}
			}
		}(g)
	}
	// Writer: churn overwrites (creating dead bytes across many small
	// segments) and compact continuously while the readers run.
	for round := 0; round < 30; round++ {
		for i := disk.BlockID(0); i < blocks; i++ {
			put(t, s, i, 11, uint64(i), 1024)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if bufpool.InUse() != base {
		t.Fatalf("InUse = %d after drain, want %d", bufpool.InUse(), base)
	}
	for i := disk.BlockID(0); i < blocks; i++ {
		wantOracle(t, s, i, 11, uint64(i), 1024)
	}
}
