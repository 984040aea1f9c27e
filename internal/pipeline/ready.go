// Event-driven issue (DESIGN.md §14): the issue stage's ready list and
// the producer-to-consumer wake that feeds it. A consumer whose
// producer has no result at rename waits on the producer's dependents
// list (entry.deps); the producer's completion latches its result into
// every waiting consumer and adds each one whose last issue operand
// just arrived to the ready set. Issue walks only that set, oldest
// first, so it never visits an entry still waiting for an operand.

package pipeline

// readySet is the issue stage's ready list: one bit per reorder-buffer
// ring slot, set while the entry in that slot waits in the issue queue
// with every issue operand arrived (entry.issueReady), plus a count of
// the set bits. The ring keeps entries in age order from its head, so
// walking the set bits from the head visits ready entries in tag order
// whatever order they were added in: adding sets one bit, never a
// sorted insert. The count lets the walk stop at the last ready entry.
type readySet struct {
	w []uint64
	n int
}

func newReadySet(slots int) readySet {
	return readySet{w: make([]uint64, (slots+63)/64)}
}

// add sets slot's bit; it may already be set (a store still queued
// when its data operand arrives).
//
//vbr:hotpath
func (r *readySet) add(slot int32) {
	w, m := &r.w[slot>>6], uint64(1)<<uint(slot&63)
	if *w&m == 0 {
		*w |= m
		r.n++
	}
}

// remove clears slot's bit; it may already be clear (a squashed entry
// still waiting for an operand).
//
//vbr:hotpath
func (r *readySet) remove(slot int32) {
	w, m := &r.w[slot>>6], uint64(1)<<uint(slot&63)
	if *w&m != 0 {
		*w &^= m
		r.n--
	}
}

// bind makes slot n (1 or 2) of consumer e read producer p's result:
// latched now when p already has it, otherwise by p's wake, with e
// linked at the head of p's dependents list. A consumer reading one
// producer in both slots is linked once, through next1.
//
//vbr:hotpath
func (e *entry) bind(n int, p *entry) {
	switch {
	case p.done || p.resultReady:
		if n == 1 {
			e.src1Val = p.result
		} else {
			e.src2Val = p.result
		}
	case n == 1:
		e.src1, e.src1Gen = p, p.gen
		e.next1, p.deps = p.deps, e
	case p == e.src1:
		e.src2, e.src2Gen = p, p.gen
	default:
		e.src2, e.src2Gen = p, p.gen
		e.next2, p.deps = p.deps, e
	}
}

// wake delivers a completing producer's result to its dependents list
// and empties it. Each consumer latches the value into every slot that
// read p; one still in the issue queue whose issue operands have all
// arrived joins the ready set. A store already issued is only waiting
// for its data, which store-data capture now finds latched.
//
//vbr:hotpath
func (c *Core) wake(p *entry) {
	v := p.result
	for d := p.deps; d != nil; {
		next := d.next2
		if d.src1 == p {
			next = d.next1
			d.src1, d.src1Val = nil, v
		}
		if d.src2 == p {
			d.src2, d.src2Val = nil, v
		}
		if d.inIQ && d.issueReady() {
			c.ready.add(d.slot)
		}
		d = next
	}
	p.deps = nil
}

// trimDeps unlinks squashed consumers (tag >= fromTag) from a surviving
// producer's dependents list. The list is youngest first, so they are
// its prefix.
func (p *entry) trimDeps(fromTag int64) {
	d := p.deps
	for d != nil && d.tag >= fromTag {
		if d.src1 == p {
			d = d.next1
		} else {
			d = d.next2
		}
	}
	p.deps = d
}
