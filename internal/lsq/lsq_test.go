package lsq

import (
	"testing"
	"testing/quick"
)

// The pipeline addresses queue entries by the handles Insert returns
// and gives each load its store colour at dispatch. These helpers let
// the tests below speak in tags instead, deriving the handle or colour
// the pipeline would have recorded.

func inserted(_ int64, ok bool) bool { return ok }

// storeHandle returns the handle of the resident store with tag.
func storeHandle(q *StoreQueue, tag int64) int64 {
	for h := q.head; h < q.tail; h++ {
		if q.tags[h&q.mask] == tag {
			return h
		}
	}
	panic("no resident store with that tag")
}

// colourOf returns the store colour of a load with the given tag: the
// handle of the oldest resident store younger than it.
func colourOf(q *StoreQueue, loadTag int64) int64 {
	h := q.head
	for h < q.tail && q.tags[h&q.mask] < loadTag {
		h++
	}
	return h
}

func setAddr(q *StoreQueue, tag int64, addr uint64) { q.SetAddr(storeHandle(q, tag), tag, addr) }
func setData(q *StoreQueue, tag int64, data uint64) { q.SetData(storeHandle(q, tag), tag, data) }

func search(q *StoreQueue, addr uint64, loadTag int64) SearchResult {
	return q.Search(addr, colourOf(q, loadTag))
}

func unresolvedBefore(q *StoreQueue, loadTag int64) bool {
	return q.UnresolvedBefore(colourOf(q, loadTag))
}

// issue calls OnIssue for the resident load with the given tag.
func issue(q *AssocLoadQueue, tag int64, addr uint64, forwardTag int64) (Squash, bool) {
	for h := q.head; h < q.tail; h++ {
		if q.entries[h&q.mask].Tag == tag {
			return q.OnIssue(h, tag, addr, forwardTag)
		}
	}
	panic("no resident load with that tag")
}

func TestStoreQueueInsertFull(t *testing.T) {
	q := NewStoreQueue(2)
	if !inserted(q.Insert(1, 0x10)) || !inserted(q.Insert(2, 0x14)) {
		t.Fatal("inserts into empty queue failed")
	}
	if inserted(q.Insert(3, 0x18)) {
		t.Error("insert into full queue should fail")
	}
	if q.Len() != 2 || !q.Full() {
		t.Errorf("Len=%d Full=%v", q.Len(), q.Full())
	}
}

func TestStoreQueueOutOfOrderInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order insert should panic")
		}
	}()
	q := NewStoreQueue(4)
	q.Insert(5, 0)
	q.Insert(3, 0)
}

func TestStoreQueueForwarding(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0x10)
	q.Insert(3, 0x14)
	setAddr(q, 1, 0x1000)
	setData(q, 1, 42)
	setAddr(q, 3, 0x2000)
	setData(q, 3, 99)

	// Load tag 5 at 0x1000 forwards from store 1.
	r := search(q, 0x1000, 5)
	if !r.Match || r.MatchTag != 1 || r.Data != 42 || !r.DataReady {
		t.Errorf("forward failed: %+v", r)
	}
	if r.UnresolvedOlder {
		t.Error("all addresses resolved; no unresolved flag expected")
	}
	// A load older than both stores sees nothing.
	r = search(q, 0x1000, 0)
	if r.Match || r.UnresolvedOlder {
		t.Errorf("older load should see empty queue: %+v", r)
	}
}

func TestStoreQueueYoungestMatchWins(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0)
	q.Insert(2, 0)
	setAddr(q, 1, 0x1000)
	setData(q, 1, 1)
	setAddr(q, 2, 0x1000)
	setData(q, 2, 2)
	r := search(q, 0x1000, 9)
	if r.MatchTag != 2 || r.Data != 2 {
		t.Errorf("should forward from youngest older store: %+v", r)
	}
}

func TestStoreQueueUnresolvedOlder(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0)
	q.Insert(2, 0) // address never set
	setAddr(q, 1, 0x1000)
	setData(q, 1, 7)
	r := search(q, 0x3000, 9)
	if r.Match {
		t.Error("no address match expected")
	}
	if !r.UnresolvedOlder {
		t.Error("store 2 is unresolved; flag expected")
	}
	// Unresolved store *younger than the match* also sets the flag.
	r = search(q, 0x1000, 9)
	if !r.Match || !r.UnresolvedOlder {
		t.Errorf("match with younger unresolved store: %+v", r)
	}
	if !unresolvedBefore(q, 9) {
		t.Error("UnresolvedBefore should see store 2")
	}
	if unresolvedBefore(q, 2) {
		t.Error("store 1 is resolved")
	}
}

func TestStoreQueueMatchWithoutData(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0)
	setAddr(q, 1, 0x1000)
	r := search(q, 0x1000, 5)
	if !r.Match || r.DataReady {
		t.Errorf("address match with pending data: %+v", r)
	}
}

func TestStoreQueueWordGranularity(t *testing.T) {
	q := NewStoreQueue(8)
	q.Insert(1, 0)
	setAddr(q, 1, 0x1000)
	setData(q, 1, 7)
	if r := search(q, 0x1004, 5); !r.Match {
		t.Error("same word, different byte offset should match")
	}
	if r := search(q, 0x1008, 5); r.Match {
		t.Error("next word should not match")
	}
}

func TestStoreQueueRemoveSquash(t *testing.T) {
	q := NewStoreQueue(8)
	for i := int64(1); i <= 4; i++ {
		q.Insert(i, 0)
	}
	q.Remove(1)
	if q.OldestTag() != 2 {
		t.Errorf("OldestTag = %d", q.OldestTag())
	}
	q.Squash(3)
	if q.Len() != 1 || q.OldestTag() != 2 {
		t.Errorf("after squash: len=%d oldest=%d", q.Len(), q.OldestTag())
	}
	if q.HasOlderThan(2) {
		t.Error("nothing older than 2 remains")
	}
	if !q.HasOlderThan(3) {
		t.Error("store 2 is older than 3")
	}
	q2 := NewStoreQueue(2)
	if q2.OldestTag() != -1 {
		t.Error("empty queue OldestTag should be -1")
	}
}

func TestAssocLQInsertCapacity(t *testing.T) {
	q := NewAssocLoadQueue(Snooping, 2)
	if !inserted(q.Insert(1, 0)) || !inserted(q.Insert(2, 0)) || inserted(q.Insert(3, 0)) {
		t.Error("capacity enforcement failed")
	}
}

func TestRAWViolationDetection(t *testing.T) {
	// Figure 1(a): load issues before an older store's address
	// resolves; the store agen search finds it.
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(5, 0x100) // load, program order after store tag 3
	issue(q, 5, 0x1000, -1)
	sq, found := q.OnStoreAgen(0x1000, 3)
	if !found || sq.Tag != 5 || sq.PC != 0x100 {
		t.Fatalf("RAW violation not found: %+v %v", sq, found)
	}
	if q.RAWSquashes != 1 {
		t.Errorf("RAWSquashes = %d", q.RAWSquashes)
	}
	// Different address: no violation.
	if _, found := q.OnStoreAgen(0x2000, 3); found {
		t.Error("unrelated store should not squash")
	}
}

func TestRAWForwardedFromYoungerStoreIsSafe(t *testing.T) {
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(5, 0x100)
	// Load forwarded from store tag 4 (younger than resolving store 3).
	issue(q, 5, 0x1000, 4)
	if _, found := q.OnStoreAgen(0x1000, 3); found {
		t.Error("load with value from a younger store must not squash")
	}
	// But a store younger than the forwarding store is a violation.
	q2 := NewAssocLoadQueue(Snooping, 8)
	q2.Insert(5, 0x100)
	issue(q2, 5, 0x1000, 2)
	if _, found := q2.OnStoreAgen(0x1000, 3); !found {
		t.Error("store between forwarder and load must squash the load")
	}
}

func TestSnoopingInvalidation(t *testing.T) {
	// Figure 1(b): an external invalidation matches an issued load that
	// is not at the head.
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(1, 0x100)
	q.Insert(2, 0x104)
	issue(q, 1, 0x1000, -1)
	issue(q, 2, 0x1040, -1)
	sq, found := q.OnInvalidation(0x1040, 1)
	if !found || sq.Tag != 2 {
		t.Fatalf("snoop should squash load 2: %+v %v", sq, found)
	}
	if q.InvalSquashes != 1 {
		t.Errorf("InvalSquashes = %d", q.InvalSquashes)
	}
}

func TestSnoopCommitPointExemption(t *testing.T) {
	// The load at the commit point is never squashed (forward progress;
	// paper §2.1)...
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(1, 0x100)
	issue(q, 1, 0x1000, -1)
	if _, found := q.OnInvalidation(0x1000, 1); found {
		t.Error("commit-point load must never squash on snoops")
	}
	// ...but merely being the oldest load is not enough: with an
	// uncommitted older store at the ROB head the exemption does not
	// apply (this distinction is what keeps SB sequentially consistent
	// on the baseline).
	if sq, found := q.OnInvalidation(0x1000, 0); !found || sq.Tag != 1 {
		t.Error("oldest load with an uncommitted older store must squash")
	}
}

func TestSnoopInFlightLoadSquashes(t *testing.T) {
	// An issued load whose fill is still outstanding squashes like a
	// completed one: the invalidation strips the block from the local
	// cache, so a later remote write would deliver no snoop here —
	// merely refreshing the value would leave it with no coherence
	// guarantee at commit (the MP litmus test observes that hole as
	// r=1,0 under probe contention).
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(1, 0x100)
	q.Insert(2, 0x104)
	issue(q, 1, 0x1000, -1)
	issue(q, 2, 0x1000, -1)
	sq, found := q.OnInvalidation(0x1000, 0)
	if !found || sq.Tag != 1 {
		t.Fatalf("oldest in-flight load must squash: %+v %v", sq, found)
	}
}

func TestInsulatedLoadIssueSearch(t *testing.T) {
	// Figure 1(c): younger load to the same address already issued.
	q := NewAssocLoadQueue(Insulated, 8)
	q.Insert(1, 0x100)
	q.Insert(2, 0x104)
	// Younger load 2 issues first.
	if _, found := issue(q, 2, 0x1000, -1); found {
		t.Error("first issue cannot conflict")
	}
	// Older load 1 issues to the same address: load 2 must squash.
	sq, found := issue(q, 1, 0x1000, -1)
	if !found || sq.Tag != 2 {
		t.Fatalf("insulated issue search failed: %+v %v", sq, found)
	}
	if q.IssueSquashes != 1 {
		t.Errorf("IssueSquashes = %d", q.IssueSquashes)
	}
	// Invalidations are ignored by insulated queues.
	if _, found := q.OnInvalidation(0x1000, -1); found {
		t.Error("insulated queue must not process invalidations")
	}
}

func TestInsulatedDifferentAddressNoSquash(t *testing.T) {
	q := NewAssocLoadQueue(Insulated, 8)
	q.Insert(1, 0x100)
	q.Insert(2, 0x104)
	issue(q, 2, 0x2000, -1)
	if _, found := issue(q, 1, 0x1000, -1); found {
		t.Error("different addresses must not conflict")
	}
}

func TestHybridMarkThenSquash(t *testing.T) {
	// Power4: the snoop marks; only a later same-address load-issue
	// search squashes marked conflicts.
	q := NewAssocLoadQueue(Hybrid, 8)
	q.Insert(1, 0x100)
	q.Insert(2, 0x104)
	q.Insert(3, 0x108)
	issue(q, 2, 0x1040, -1)
	if _, found := q.OnInvalidation(0x1040, 1); found {
		t.Fatal("hybrid snoop must mark, not squash")
	}
	// Older load 1 issues to the same address: marked load 2 squashes.
	sq, found := issue(q, 1, 0x1040, -1)
	if !found || sq.Tag != 2 {
		t.Fatalf("marked conflict not squashed: %+v %v", sq, found)
	}
	// Unmarked same-address conflicts do not squash in hybrid mode.
	q2 := NewAssocLoadQueue(Hybrid, 8)
	q2.Insert(1, 0x100)
	q2.Insert(2, 0x104)
	issue(q2, 2, 0x1040, -1)
	if _, found := issue(q2, 1, 0x1040, -1); found {
		t.Error("hybrid without snoop mark must not squash")
	}
}

func TestSearchAccounting(t *testing.T) {
	q := NewAssocLoadQueue(Snooping, 8)
	q.Insert(1, 0)
	q.Insert(2, 0)
	issue(q, 1, 0x1000, -1) // snooping: no search at issue
	if q.Searches != 0 {
		t.Errorf("snooping issue should not search; Searches=%d", q.Searches)
	}
	q.OnStoreAgen(0x99, 0)
	q.OnInvalidation(0x1000, -1)
	if q.Searches != 2 {
		t.Errorf("Searches = %d, want 2", q.Searches)
	}
	if q.SearchedEntries != 4 {
		t.Errorf("SearchedEntries = %d, want 4", q.SearchedEntries)
	}

	ins := NewAssocLoadQueue(Insulated, 8)
	ins.Insert(1, 0)
	issue(ins, 1, 0x1000, -1)
	if ins.Searches != 1 {
		t.Errorf("insulated issue must search; Searches=%d", ins.Searches)
	}
}

func TestLoadQueueRemoveSquash(t *testing.T) {
	q := NewAssocLoadQueue(Snooping, 8)
	for i := int64(1); i <= 4; i++ {
		q.Insert(i, 0)
	}
	q.Remove(1)
	q.Squash(3)
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	// Remaining load is tag 2 and now at the commit point: snoops skip it.
	issue(q, 2, 0x1000, -1)
	if _, found := q.OnInvalidation(0x1000, 2); found {
		t.Error("commit-point skip after remove/squash failed")
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Snooping, Insulated, Hybrid} {
		if m.String() == "?" {
			t.Errorf("mode %d unnamed", m)
		}
	}
}

func TestStoreQueueSearchProperty(t *testing.T) {
	// Property: Search never returns a match younger than the load.
	err := quick.Check(func(addrs []uint16, loadTag uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		q := NewStoreQueue(64)
		for i, a := range addrs {
			if i >= 60 {
				break
			}
			tag := int64(i)
			q.Insert(tag, 0)
			setAddr(q, tag, uint64(a)*8)
			setData(q, tag, uint64(i))
		}
		r := search(q, uint64(addrs[0])*8, int64(loadTag))
		return !r.Match || r.MatchTag < int64(loadTag)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestQueueDesyncPanics pins that a queue and the ROB disagreeing is
// loud: a handle whose slot holds another tag or no resident entry,
// and a commit of anything but the head, panic like an out-of-order
// Insert does.
func TestQueueDesyncPanics(t *testing.T) {
	sq := NewStoreQueue(4)
	h1, _ := sq.Insert(1, 0)
	sq.Insert(2, 0)
	mustPanic(t, "store SetAddr with a mismatched tag", func() { sq.SetAddr(h1, 2, 0x1000) })
	mustPanic(t, "store Remove of a non-head store", func() { sq.Remove(2) })
	sq.Remove(1)
	mustPanic(t, "store SetData through a committed handle", func() { sq.SetData(h1, 1, 7) })
	mustPanic(t, "Remove from an empty queue", func() { NewStoreQueue(2).Remove(0) })

	lq := NewAssocLoadQueue(Insulated, 4)
	g1, _ := lq.Insert(1, 0)
	lq.Insert(2, 0)
	mustPanic(t, "load OnIssue with a mismatched tag", func() { lq.OnIssue(g1, 2, 0x1000, -1) })
	mustPanic(t, "load Remove of a non-head load", func() { lq.Remove(2) })
	lq.Squash(1)
	mustPanic(t, "load OnIssue through a squashed handle", func() { lq.OnIssue(g1, 1, 0x1000, -1) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	f()
}
