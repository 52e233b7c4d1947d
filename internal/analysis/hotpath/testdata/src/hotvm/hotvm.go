// Package hotvm pins the bytecode dispatch-loop shape internal/pcode relies
// on: a fixed-size value stack, opcode switch dispatch, jump threading via
// index rewrites, and typed operand loads must all pass the analyzer clean
// — while boxing or map traffic smuggled into the same loop is still
// reported at the offending instruction.
package hotvm

type instr struct {
	op  byte
	idx int32
	num float64
	s   string
}

type prog struct {
	ins []instr
}

func sink(v any) { _ = v }

// run is the canonical dispatch shape: the analyzer must accept the whole
// loop without a single diagnostic.
//
//saql:hotpath
func (p *prog) run() float64 {
	var stack [16]float64 // fixed-size operand stack: stays on the stack
	sp := 0
	for i := 0; i < len(p.ins); i++ {
		in := p.ins[i]
		switch in.op {
		case 0: // push constant operand
			stack[sp] = in.num
			sp++
		case 1: // binary op pops two, pushes one
			sp--
			stack[sp-1] += stack[sp]
		case 2: // short-circuit jump threading: rewrite the loop index
			if stack[sp-1] == 0 {
				i = int(in.idx) - 1
			}
		case 3: // typed comparison folds to a flag push
			sp--
			if stack[sp-1] < stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		}
	}
	if sp == 0 {
		return 0
	}
	return stack[sp-1]
}

// runLeaky seeds the regressions a VM loop historically grows — per-run
// scratch maps, boxing operands into interfaces, formatting in the loop —
// and checks each is reported inside the dispatch body.
//
//saql:hotpath
func (p *prog) runLeaky() float64 {
	seen := map[int]bool{} // want `map literal allocation`
	var stack [16]float64
	sp := 0
	for i := 0; i < len(p.ins); i++ {
		in := p.ins[i]
		switch in.op {
		case 0:
			stack[sp] = in.num
			sp++
			sink(in.num) // want `interface boxing of float64`
		case 1:
			seen[i] = true
			trace := new(instr) // want `new\(T\) allocation`
			_ = trace
		case 2:
			lbl := in.s + "!" // want `string concatenation`
			_ = lbl
		}
	}
	_ = seen
	return stack[0]
}
