package memsim

// shared is per-Memory state the channels use in common: the request
// free list and the global submission counter. seq is global (not per
// channel) so a recycled request can never collide with a stale index
// entry's stamp on another channel. Memory is single-goroutine, like
// the rest of the simulator, so no locking is needed.
type shared struct {
	seq  int64
	free []*Request
}

func (sh *shared) nextSeq() int64 {
	sh.seq++
	return sh.seq
}

// get returns a pooled request, zeroed apart from pooled and seq:
// release zeroed it already.
func (sh *shared) get() *Request {
	if n := len(sh.free); n > 0 {
		r := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return r
	}
	return &Request{pooled: true}
}

// release zeroes a serviced pooled request and returns it to the free
// list. The negative seq keeps any stale index entries pointing at it
// dead until submit gives it a new one.
func (sh *shared) release(r *Request) {
	*r = Request{pooled: true, seq: -1}
	sh.free = append(sh.free, r)
}

// NewRequest returns a Request from the memory system's pool. Pooled
// requests are recycled automatically once serviced — when their
// completion event drains at the epoch barrier, after OnFinish
// returns — which keeps steady-state stepping allocation-free; do not
// retain them afterwards. Requests allocated directly with &Request{}
// keep working and are simply never recycled.
//
// Ownership: a pooled request belongs to the caller until Submit
// accepts it. If Submit reports false (queue full), the caller still
// owns the request and may retry it later.
func (m *Memory) NewRequest() *Request {
	return m.sh.get()
}
