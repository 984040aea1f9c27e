package core

import (
	"testing"
	"testing/quick"
)

func TestFIFOInsertOrderAndCapacity(t *testing.T) {
	q := NewFIFOQueue(2)
	if _, ok := q.Insert(1, 0x10); !ok {
		t.Fatal("insert failed")
	}
	if _, ok := q.Insert(5, 0x20); !ok {
		t.Fatal("insert failed")
	}
	if _, ok := q.Insert(9, 0x30); ok {
		t.Error("full queue accepted insert")
	}
	if q.Len() != 2 || !q.Full() {
		t.Errorf("Len=%d Full=%v", q.Len(), q.Full())
	}
	if h := q.Head(); h == nil || h.Tag != 1 {
		t.Errorf("Head = %+v", q.Head())
	}
}

func TestFIFOOutOfOrderInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order insert should panic")
		}
	}()
	q := NewFIFOQueue(4)
	q.Insert(5, 0)
	q.Insert(2, 0)
}

func TestFIFOFindRemoveSquash(t *testing.T) {
	q := NewFIFOQueue(8)
	var hs []int64
	for i := int64(1); i <= 5; i++ {
		h, _ := q.Insert(i, uint64(i)*4)
		hs = append(hs, h)
	}
	if e := q.Find(hs[2], 3); e.PC != 12 {
		t.Errorf("Find(3) = %+v", e)
	}
	// A handle whose slot holds another tag, and a commit of anything
	// but the head, mean the queue and the ROB disagree.
	mustPanic(t, "Find with a mismatched tag", func() { q.Find(hs[2], 99) })
	mustPanic(t, "Remove of a non-head load", func() { q.Remove(2) })
	q.Remove(1)
	mustPanic(t, "Find of a removed load", func() { q.Find(hs[0], 1) })
	q.Squash(4)
	if q.Len() != 2 || q.Head().Tag != 2 || q.YoungestTag() != 3 {
		t.Errorf("after remove+squash: len=%d head=%+v youngest=%d", q.Len(), q.Head(), q.YoungestTag())
	}
	mustPanic(t, "Find of a squashed load", func() { q.Find(hs[3], 4) })
	empty := NewFIFOQueue(2)
	if empty.Head() != nil || empty.YoungestTag() != -1 {
		t.Error("empty Head should be nil and YoungestTag -1")
	}
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

func TestReplayAllReplaysEverything(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
	en := &FIFOEntry{Tag: 1}
	if !e.ShouldReplay(en) {
		t.Error("replay-all must replay")
	}
	en2 := &FIFOEntry{Tag: 2, NUS: true, Reordered: true}
	if !e.ShouldReplay(en2) {
		t.Error("replay-all must replay flagged loads too")
	}
	if e.Stats.LoadsSeen != 2 || e.Stats.Filtered != 0 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestNoReorderFilter(t *testing.T) {
	e := NewEngine(NoReorder, 8)
	if e.ShouldReplay(&FIFOEntry{Tag: 1}) {
		t.Error("in-order load must be filtered")
	}
	if !e.ShouldReplay(&FIFOEntry{Tag: 2, Reordered: true}) {
		t.Error("reordered load must replay")
	}
	if e.Stats.Filtered != 1 {
		t.Errorf("Filtered = %d", e.Stats.Filtered)
	}
}

func TestNUSComposition(t *testing.T) {
	// NRS/NRM replay when either the NUS flag or the event window says
	// so (paper §3.3).
	for _, f := range []Filter{NoRecentMiss, NoRecentSnoop} {
		e := NewEngine(f, 8)
		if e.ShouldReplay(&FIFOEntry{Tag: 1}) {
			t.Errorf("%v: quiet window, no NUS: filtered expected", f)
		}
		if !e.ShouldReplay(&FIFOEntry{Tag: 2, NUS: true}) {
			t.Errorf("%v: NUS load must replay regardless of window", f)
		}
		e.NoteExternalEvent(10)
		if !e.ShouldReplay(&FIFOEntry{Tag: 3}) {
			t.Errorf("%v: open window must force replay", f)
		}
	}
}

func TestEventWindowOpensAndCloses(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.NoteExternalEvent(10) // youngest in-window load is tag 10
	if !e.WindowOpen() {
		t.Fatal("window should open")
	}
	// Loads older than 10 replay and do not close the window.
	en := &FIFOEntry{Tag: 7}
	if !e.ShouldReplay(en) {
		t.Error("tag 7 must replay")
	}
	e.OnReplayComplete(en, en.Value)
	if !e.WindowOpen() {
		t.Error("window must stay open until the flagged load drains")
	}
	// The flagged load replays: window closes.
	en10 := &FIFOEntry{Tag: 10}
	e.ShouldReplay(en10)
	e.OnReplayComplete(en10, en10.Value)
	if e.WindowOpen() {
		t.Error("window should close after flagged load replays")
	}
	// Subsequent loads are filtered again.
	if e.ShouldReplay(&FIFOEntry{Tag: 11}) {
		t.Error("closed window should filter")
	}
}

func TestEventWindowClosedByFilteredLoadDraining(t *testing.T) {
	e := NewEngine(NoRecentMiss, 8)
	e.NoteExternalEvent(4)
	// A load past the flagged tag drains without replaying (e.g. it
	// replayed for other reasons or the window load was filtered by
	// rule 3): OnLoadPassedReplayStage must still close the window.
	e.OnLoadPassedReplayStage(5)
	if e.WindowOpen() {
		t.Error("window should close when a load >= ageTag drains")
	}
}

func TestEventWindowReLatch(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.NoteExternalEvent(10)
	e.NoteExternalEvent(20) // later event re-latches
	en := &FIFOEntry{Tag: 10}
	e.ShouldReplay(en)
	e.OnReplayComplete(en, 0)
	if !e.WindowOpen() {
		t.Error("window latched to 20 must survive tag 10 draining")
	}
}

func TestNoteEventWithNoLoadsInWindow(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.NoteExternalEvent(-1)
	if e.WindowOpen() {
		t.Error("event with empty window should be ignored")
	}
	if e.Stats.WindowEvents != 0 {
		t.Error("ignored event should not count")
	}
}

func TestMismatchDetectionAndClassification(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
	en := &FIFOEntry{Tag: 1, Value: 42, NUS: true}
	if e.OnReplayComplete(en, 42) {
		t.Error("matching value must not squash")
	}
	en2 := &FIFOEntry{Tag: 2, Value: 42, NUS: true}
	if !e.OnReplayComplete(en2, 43) {
		t.Error("mismatch must squash")
	}
	en3 := &FIFOEntry{Tag: 3, Value: 7}
	if !e.OnReplayComplete(en3, 8) {
		t.Error("mismatch must squash")
	}
	s := e.Stats
	if s.Replays != 3 || s.Comparisons != 3 {
		t.Errorf("replay counts: %+v", s)
	}
	if s.Mismatches != 2 || s.MismatchesNUS != 1 {
		t.Errorf("mismatch classification: %+v", s)
	}
	if s.ReplaysNUS != 2 {
		t.Errorf("ReplaysNUS = %d", s.ReplaysNUS)
	}
}

func TestRule3SkipsReplay(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
	en := &FIFOEntry{Tag: 1, NoReplay: true}
	if e.ShouldReplay(en) {
		t.Error("rule-3-marked load must not replay")
	}
	if e.Stats.Rule3Skips != 1 {
		t.Errorf("Rule3Skips = %d", e.Stats.Rule3Skips)
	}
}

func TestOnSquashReanchorsWindow(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.Queue.Insert(5, 0)
	e.Queue.Insert(12, 0)
	e.NoteExternalEvent(12)
	e.OnSquash(10) // the flagged load (12) dies
	if e.Queue.Len() != 1 {
		t.Error("squash should drop load 12 from the queue")
	}
	if !e.WindowOpen() {
		t.Fatal("window must stay open across the squash")
	}
	// Surviving older load still replays...
	if !e.ShouldReplay(&FIFOEntry{Tag: 5}) {
		t.Error("pre-squash load must still replay")
	}
	// ...and the first post-squash load closes the window when it
	// drains.
	e.OnLoadPassedReplayStage(10)
	if e.WindowOpen() {
		t.Error("window should close at the re-anchored tag")
	}
}

func TestOnSquashKeepsOlderAnchor(t *testing.T) {
	e := NewEngine(NoRecentSnoop, 8)
	e.NoteExternalEvent(5)
	e.OnSquash(10) // flagged load 5 survives
	if !e.WindowOpen() {
		t.Fatal("window must stay open")
	}
	e.OnLoadPassedReplayStage(5)
	if e.WindowOpen() {
		t.Error("surviving anchor should close normally")
	}
}

func TestReplaysPerCommitted(t *testing.T) {
	e := NewEngine(ReplayAll, 8)
	en := &FIFOEntry{Tag: 1}
	e.OnReplayComplete(en, 0)
	if r := e.ReplaysPerCommitted(50); r != 0.02 {
		t.Errorf("ReplaysPerCommitted = %v, want 0.02", r)
	}
	if e.ReplaysPerCommitted(0) != 0 {
		t.Error("zero committed should yield 0")
	}
}

func TestFilterStringsAndEventNeeds(t *testing.T) {
	for _, f := range []Filter{ReplayAll, NoReorder, NoRecentMiss, NoRecentSnoop, NUSOnly} {
		if f.String() == "" {
			t.Errorf("filter %d unnamed", f)
		}
	}
	if !NoRecentMiss.NeedsMissEvents() || NoRecentMiss.NeedsSnoopEvents() {
		t.Error("NRM event needs wrong")
	}
	if !NoRecentSnoop.NeedsSnoopEvents() || NoRecentSnoop.NeedsMissEvents() {
		t.Error("NRS event needs wrong")
	}
	if ReplayAll.NeedsMissEvents() || ReplayAll.NeedsSnoopEvents() {
		t.Error("replay-all needs no events")
	}
}

func TestFIFOQueueProperty(t *testing.T) {
	// Property: after any sequence of inserts with increasing tags and
	// a squash at k, no entry with tag >= k remains and order is
	// preserved.
	err := quick.Check(func(n uint8, k uint8) bool {
		q := NewFIFOQueue(300)
		for i := int64(0); i < int64(n); i++ {
			q.Insert(i, uint64(i))
		}
		q.Squash(int64(k))
		last := int64(-1)
		for h := q.head; h < q.tail; h++ {
			e := q.entries[h&q.mask]
			if e.Tag >= int64(k) || e.Tag <= last {
				return false
			}
			last = e.Tag
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
