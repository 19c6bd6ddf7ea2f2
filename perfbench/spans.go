package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed step. parent indexes the enclosing span in its
// spanSet, or is -1 for a root; op is the client op the step belongs
// to (-1 when none).
type span struct {
	name       string
	op         int64
	parent     int
	start, end time.Time
}

// spanSet keeps spans in memory until the run writes them out.
type spanSet struct {
	epoch time.Time
	spans []span
}

// add appends sp and returns its index, the ID children refer to.
func (s *spanSet) add(sp span) int {
	s.spans = append(s.spans, sp)
	return len(s.spans) - 1
}

// addOps records each op as a root span with its HTTP requests as
// children, and returns run ID → op index and op → request span IDs.
func (s *spanSet) addOps(ops []opResult) (map[string]int, [][]int) {
	runOp := make(map[string]int, len(ops))
	calls := make([][]int, len(ops))
	for i := range ops {
		r := &ops[i]
		root := s.add(span{name: "op", op: r.op, parent: -1, start: r.start, end: r.end})
		for _, c := range r.calls {
			calls[i] = append(calls[i], s.add(span{name: c.route, op: r.op, parent: root, start: c.start, end: c.end}))
		}
		if r.runID != "" {
			runOp[r.runID] = i
		}
	}
	return runOp, calls
}

// addStore attaches store call spans to the op that created their run:
// under the op's request whose interval holds the call, else under the
// op itself.
func (s *spanSet) addStore(ops []opResult, store []storeSpan, runOp map[string]int, calls [][]int) {
	for _, st := range store {
		sp := span{name: "store." + storeKindNames[st.kind], op: -1, parent: -1, start: st.start, end: st.end}
		if i, ok := runOp[st.run]; ok {
			sp.op = ops[i].op
			sp.parent = s.spans[calls[i][0]].parent // the op's root span
			for _, id := range calls[i] {
				c := s.spans[id]
				if !st.start.Before(c.start) && !st.start.After(c.end) {
					sp.parent = id
					break
				}
			}
		}
		s.add(sp)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children on concurrent goroutines may overlap; the
// union counts once).
func (s *spanSet) selfTimes() []time.Duration {
	children := make([][]int, len(s.spans))
	for i, sp := range s.spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	self := make([]time.Duration, len(s.spans))
	for i, sp := range s.spans {
		self[i] = sp.end.Sub(sp.start) - s.covered(sp, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to sp.
func (s *spanSet) covered(sp span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := s.spans[k].start, s.spans[k].end
		if a.Before(sp.start) {
			a = sp.start
		}
		if b.After(sp.end) {
			b = sp.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case v[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = v
		case v[1].After(cur[1]):
			cur[1] = v[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// selfByName sums self time and counts spans per span name.
func (s *spanSet) selfByName(self []time.Duration) (map[string]time.Duration, map[string]int) {
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for i, sp := range s.spans {
		sum[sp.name] += self[i]
		n[sp.name]++
	}
	return sum, n
}

// writeTSV writes one line per span: id, parent, op, name, and start
// and end in nanoseconds since the run began.
func (s *spanSet) writeTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, sp := range s.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, sp.parent, sp.op, sp.name,
			sp.start.Sub(s.epoch).Nanoseconds(), sp.end.Sub(s.epoch).Nanoseconds())
	}
	return bw.Flush()
}

// layerOf is the layer a span name belongs to: the text before its
// first dot ("op" and "replay" are the benchmark's own).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
