package lsq

import "testing"

// twoLevelQueue builds a hierarchical store queue with n resolved
// stores at distinct addresses.
func twoLevelQueue(n int) *StoreQueue {
	q := NewStoreQueue(64)
	q.EnableTwoLevel(4, 3, 256)
	for i := 0; i < n; i++ {
		tag := int64(i)
		q.Insert(tag, 0)
		setAddr(q, tag, uint64(0x1000+i*8))
		setData(q, tag, uint64(i))
	}
	return q
}

func TestTwoLevelL1MatchIsFast(t *testing.T) {
	q := twoLevelQueue(10)
	// The newest 4 stores (tags 6..9) are level one.
	r := search(q, 0x1000+9*8, 100)
	if !r.Match || r.MatchTag != 9 {
		t.Fatalf("L1 match failed: %+v", r)
	}
	if r.Latency != 0 {
		t.Errorf("L1 match latency = %d, want 0", r.Latency)
	}
}

func TestTwoLevelL2MatchIsSlow(t *testing.T) {
	q := twoLevelQueue(10)
	r := search(q, 0x1000, 100) // oldest store, deep in L2
	if !r.Match || r.MatchTag != 0 {
		t.Fatalf("L2 match failed: %+v", r)
	}
	if r.Latency != 3 {
		t.Errorf("L2 match latency = %d, want 3", r.Latency)
	}
	if q.L2Searches != 1 {
		t.Errorf("L2Searches = %d", q.L2Searches)
	}
}

func TestTwoLevelFilterSkipsL2(t *testing.T) {
	q := twoLevelQueue(10)
	r := search(q, 0x9000, 100) // matches nothing anywhere
	if r.Match {
		t.Fatal("phantom match")
	}
	if q.L2Filtered != 1 {
		t.Errorf("L2 probe not filtered: filtered=%d searched=%d", q.L2Filtered, q.L2Searches)
	}
}

func TestTwoLevelUnresolvedForcesL2(t *testing.T) {
	q := twoLevelQueue(10)
	// An unresolved store anywhere defeats the filter (it could alias).
	q.Insert(50, 0)
	r := search(q, 0x9000, 100)
	if r.Match {
		t.Fatal("phantom match")
	}
	if !r.UnresolvedOlder {
		t.Error("unresolved store not reported")
	}
	if q.L2Filtered != 0 || q.L2Searches != 1 {
		t.Errorf("filter must not skip with unresolved stores: filtered=%d searched=%d",
			q.L2Filtered, q.L2Searches)
	}
}

func TestTwoLevelFilterMaintenance(t *testing.T) {
	q := twoLevelQueue(10)
	// Remove the oldest store; its address leaves the filter, so a
	// search for it is now filtered.
	q.Remove(0)
	r := search(q, 0x1000, 100)
	if r.Match {
		t.Error("removed store still matches")
	}
	if q.L2Filtered != 1 {
		t.Errorf("filter not maintained on Remove: %d", q.L2Filtered)
	}
	// Squash the rest; all filter state drains.
	q.Squash(0)
	if q.Len() != 0 {
		t.Error("squash incomplete")
	}
	q2 := twoLevelQueue(10)
	q2.Squash(5)
	if r := search(q2, 0x1000+8*8, 100); r.Match {
		t.Error("squashed store still matches")
	}
}

func TestFlatQueueUnaffected(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0)
	setAddr(q, 1, 0x1000)
	setData(q, 1, 5)
	r := search(q, 0x1000, 9)
	if !r.Match || r.Latency != 0 {
		t.Errorf("flat queue changed: %+v", r)
	}
}
