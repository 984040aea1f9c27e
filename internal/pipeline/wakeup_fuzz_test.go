package pipeline

// Differential fuzzing of event-driven issue (DESIGN.md §14): a real
// core runs a random program under random functional-unit budgets and
// queue sizes, with random squashes injected between cycles, and after
// every cycle the ready set must equal what a full scan of the reorder
// buffer computes from scratch.

import (
	"fmt"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/isa"
	"vbmo/internal/prog"
)

// Register roles in the generated programs: address registers only
// ever hold testBase (they are copied through value-preserving ops of
// every latency, so loads and stores resolve late and out of order but
// always alias within a few words), r9 holds the constant 1, and data
// registers take everything else.
var (
	fuzzAddrRegs = []isa.Reg{1, 2, 3, 4}
	fuzzDataRegs = []isa.Reg{10, 11, 12, 13, 14, 15}
)

// fuzzMachines are the configurations the fuzzer picks from: the
// insulated and hybrid load queues squash in the middle of an issue
// walk, the snooping baseline squashes on invalidations, and the
// value-predicting replay machine delivers results at dispatch.
var fuzzMachines = []string{
	"baseline-insulated", "baseline-hybrid", "baseline", "replay-vpred",
	"replay-all", "baseline-hiersq",
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	i    int
}

func (b *fuzzBytes) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return int(b.data[b.i-1])
}

// fuzzProgram builds a loop of n random instructions from the input.
func fuzzProgram(in *fuzzBytes, n int) *prog.Program {
	b := prog.NewBuilder(0x1000)
	top := b.Here()
	pick := func(rs []isa.Reg) isa.Reg { return rs[in.next()%len(rs)] }
	var pending []prog.Label // forward branch targets, bound a few slots on
	for i := 0; i < n; i++ {
		kind, arg := in.next(), in.next()
		switch kind % 8 {
		case 0: // single-cycle ALU; sometimes one register in both slots
			ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpSltu, isa.OpAddI}
			d, s1 := pick(fuzzDataRegs), pick(fuzzDataRegs)
			s2 := s1
			if arg&1 == 0 {
				s2 = pick(fuzzDataRegs)
			}
			b.Emit(isa.Inst{Op: ops[arg%len(ops)], Dst: d, Src1: s1, Src2: s2, Imm: int64(arg)})
		case 1: // long-latency data op
			ops := []isa.Opcode{isa.OpMul, isa.OpDiv, isa.OpFAdd, isa.OpFMul, isa.OpFDiv}
			b.Emit(isa.Inst{Op: ops[arg%len(ops)], Dst: pick(fuzzDataRegs),
				Src1: pick(fuzzDataRegs), Src2: pick(fuzzDataRegs)})
		case 2, 3: // load
			b.Emit(isa.Inst{Op: isa.OpLoad, Dst: pick(fuzzDataRegs),
				Src1: pick(fuzzAddrRegs), Imm: int64(8 * (arg % 4))})
		case 4: // store: address and data may each arrive late
			b.Emit(isa.Inst{Op: isa.OpStore, Src1: pick(fuzzAddrRegs),
				Src2: pick(fuzzDataRegs), Imm: int64(8 * (arg % 4))})
		case 5: // value-preserving address-register copy, 1 to 12 cycles
			d, s := pick(fuzzAddrRegs), pick(fuzzAddrRegs)
			switch arg % 4 {
			case 0:
				b.Emit(isa.Inst{Op: isa.OpAdd, Dst: d, Src1: s, Src2: isa.RZero})
			case 1:
				b.Emit(isa.Inst{Op: isa.OpMul, Dst: d, Src1: s, Src2: 9})
			case 2:
				b.Emit(isa.Inst{Op: isa.OpDiv, Dst: d, Src1: s, Src2: 9})
			default:
				b.Emit(isa.Inst{Op: isa.OpFAdd, Dst: d, Src1: s, Src2: isa.RZero})
			}
		case 6: // data-dependent forward branch (mispredicts squash)
			l := b.NewLabel()
			op := isa.OpBeqz
			if arg&1 != 0 {
				op = isa.OpBnez
			}
			b.Branch(op, pick(fuzzDataRegs), l)
			pending = append(pending, l)
		default:
			if arg%8 == 0 {
				b.Emit(isa.Inst{Op: isa.OpMembar})
			} else {
				b.Emit(isa.Inst{Op: isa.OpNop})
			}
		}
		if len(pending) > 0 && arg%3 == 0 {
			b.Bind(pending[0])
			pending = pending[1:]
		}
	}
	for _, l := range pending {
		b.Bind(l)
	}
	b.Branch(isa.OpJump, 0, top)
	return b.Build()
}

// checkIssueState compares the core's issue bookkeeping with a full
// scan of the reorder buffer. The scan rebuilds renaming from scratch
// (each operand's producer is the youngest older resident writer of its
// register) and requires:
//
//   - an operand whose producer has its result (done or resultReady),
//     or has none in flight, has that value latched and no pointer;
//   - any other operand points at its producer, with the producer's
//     generation, and is reachable on the producer's dependents list;
//   - the ready set holds exactly the queued entries whose issue
//     operands all have their results, so walking it in ring order
//     yields them in tag order;
//   - every dependents list reaches only resident, younger consumers
//     that still wait on it, never a squashed or recycled entry;
//   - the ready set's count is its number of set bits, and the
//     occupancy count is the number of queued entries.
func checkIssueState(c *Core) error {
	resident := make(map[*entry]bool, c.rob.Len())
	for i := 0; i < c.rob.Len(); i++ {
		resident[c.rob.At(i)] = true
	}
	onList := func(p, e *entry) bool {
		for d, n := p.deps, 0; d != nil && n <= c.rob.Len(); n++ {
			if d == e {
				return true
			}
			if d.src1 == p {
				d = d.next1
			} else {
				d = d.next2
			}
		}
		return false
	}
	var writer [isa.NumRegs]*entry
	queued := 0
	for i := 0; i < c.rob.Len(); i++ {
		e := c.rob.At(i)
		if c.rob.buf[e.slot] != e {
			return fmt.Errorf("tag %d: slot %d holds another entry", e.tag, e.slot)
		}
		ready := true
		for n := 1; n <= 2; n++ {
			if !e.inst.ReadsReg(n) {
				continue
			}
			r := e.inst.Src1
			ptr, gen, val := e.src1, e.src1Gen, e.src1Val
			if n == 2 {
				r, ptr, gen, val = e.inst.Src2, e.src2, e.src2Gen, e.src2Val
			}
			p := writer[r]
			if p == nil || p.done || p.resultReady {
				want := c.arch.ReadReg(r)
				if p != nil {
					want = p.result
				}
				if ptr != nil || val != want {
					return fmt.Errorf("tag %d slot %d: producer has its result, operand holds ptr=%v val=%#x (want %#x)",
						e.tag, n, ptr != nil, val, want)
				}
				continue
			}
			if ptr != p || gen != p.gen || !onList(p, e) {
				return fmt.Errorf("tag %d slot %d: waits on tag %d but is not linked to it", e.tag, n, p.tag)
			}
			if n == 1 || !e.isStore {
				ready = false
			}
		}
		if e.inIQ {
			queued++
		}
		want := e.inIQ && ready
		bit := c.ready.w[e.slot>>6]&(1<<uint(e.slot&63)) != 0
		if bit != want {
			return fmt.Errorf("tag %d (%v, issued=%v): in ready set %v, full scan says %v",
				e.tag, e.inst, e.issued, bit, want)
		}
		for d, n := e.deps, 0; d != nil; n++ {
			if n > c.rob.Len() || !resident[d] || d.tag <= e.tag || (d.src1 != e && d.src2 != e) {
				return fmt.Errorf("tag %d: dependents list reaches a squashed, recycled or foreign entry", e.tag)
			}
			if d.src1 == e {
				d = d.next1
			} else {
				d = d.next2
			}
		}
		if e.writesReg {
			writer[e.inst.Dst] = e
		}
	}
	set := 0
	for s := range c.rob.buf {
		if c.ready.w[s>>6]&(1<<uint(s&63)) != 0 {
			set++
			if !resident[c.rob.buf[s]] {
				return fmt.Errorf("ready set holds empty ring slot %d", s)
			}
		}
	}
	if set != c.ready.n {
		return fmt.Errorf("ready set counts %d entries, holds %d", c.ready.n, set)
	}
	if queued != c.iqLen {
		return fmt.Errorf("issue queue reports %d entries, %d queued", c.iqLen, queued)
	}
	return nil
}

func FuzzIssueWakeup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		cfg, _ := config.ByName(fuzzMachines[in.next()%len(fuzzMachines)])
		// Random budgets and queue sizes; the ROB sizes cover ring wrap
		// and ready-set word boundaries.
		cfg.Width = 1 + in.next()%8
		cfg.IntALU = 1 + in.next()%4
		cfg.IntMulDiv = 1 + in.next()%2
		cfg.FPALU = 1 + in.next()%2
		cfg.FPMulDiv = 1 + in.next()%2
		cfg.LoadPorts = 1 + in.next()%3
		cfg.IQSize = 2 + in.next()%31
		cfg.ROBSize = 8 + in.next()%121
		cfg.MemLatency = 8 + in.next()%40 // misses finish inside the run
		squashEvery := 8 + in.next()%64
		p := fuzzProgram(in, 4+in.next()%40)
		init := initState()
		for _, r := range fuzzAddrRegs {
			init.WriteReg(r, testBase)
		}
		init.WriteReg(9, 1)
		c, _ := mkCore(cfg, p, init)
		for cyc := 0; cyc < 600; cyc++ {
			c.Step()
			if err := checkIssueState(c); err != nil {
				t.Fatalf("%s cycle %d: %v", cfg.Name, c.cycle, err)
			}
			if cyc%squashEvery != squashEvery-1 || c.rob.Len() == 0 {
				continue
			}
			// A random squash point between cycles: an invalidation of the
			// aliased words (a snooping queue squashes any issued load
			// there), or a refetch from a random resident instruction.
			if k := in.next(); k%2 == 0 {
				c.HandleExternalInvalidation(testBase)
			} else {
				e := c.rob.At(k % c.rob.Len())
				c.squashFrom(e.tag, e.pc, false)
			}
			if err := checkIssueState(c); err != nil {
				t.Fatalf("%s cycle %d after squash: %v", cfg.Name, c.cycle, err)
			}
		}
		if c.Stats.Committed == 0 {
			t.Fatalf("%s: nothing committed in 600 cycles", cfg.Name)
		}
	})
}
