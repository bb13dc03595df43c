package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// checkResult is the per-cell correctness gate: a cell must simulate a
// non-empty run, and the memory system's activation count must equal
// the activations the system attributed to request kinds.
func checkResult(r sim.Result) error {
	if r.Cycles <= 0 || r.Insts <= 0 {
		return fmt.Errorf("empty run: %d cycles, %d instructions", r.Cycles, r.Insts)
	}
	var acts int64
	for _, n := range r.ActsByKind {
		acts += n
	}
	if acts != r.Mem.Activates {
		return fmt.Errorf("memsim counted %d activations, ActsByKind sums to %d", r.Mem.Activates, acts)
	}
	return nil
}

// encoded maps cell keys to the JSON encoding of their results. A
// result decoded from the cache re-encodes to the same bytes as the
// result it was stored from, so equal encodings mean equal results.
type encoded map[string][]byte

func encodeResults(results map[string]sim.Result) (encoded, error) {
	out := make(encoded, len(results))
	for k, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("encoding result of %s: %w", k, err)
		}
		out[k] = b
	}
	return out, nil
}

// digest hashes every cell's simulated statistics under the cache-key
// version, so two runs print the same digest exactly when they
// simulated the same model and got the same numbers.
func (e encoded) digest() string {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", sim.CacheKeyVersion)
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%s\n", k, e[k])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// verdict counts the cells of one campaign against the gate.
type verdict struct {
	attempted int
	failed    int
	reasons   []string // the first few failures, for stderr
}

const maxReasons = 8

func (v *verdict) fail(key string, err error) {
	v.failed++
	if len(v.reasons) < maxReasons {
		v.reasons = append(v.reasons, key+": "+err.Error())
	}
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	for _, r := range o.reasons {
		if len(v.reasons) < maxReasons {
			v.reasons = append(v.reasons, r)
		}
	}
}

// judge checks one campaign's results against the expected cell list:
// a cell with an entry in errs fails with it; every other cell must be
// present, pass checkResult and, when ref is non-nil, be byte-identical
// to its reference result.
func judge(cells []cell, got encoded, results map[string]sim.Result, errs map[string]error, ref encoded) verdict {
	v := verdict{attempted: len(cells)}
	for _, c := range cells {
		if err := errs[c.key]; err != nil {
			v.fail(c.key, err)
			continue
		}
		r, ok := results[c.key]
		if !ok {
			v.fail(c.key, fmt.Errorf("no result"))
			continue
		}
		if err := checkResult(r); err != nil {
			v.fail(c.key, err)
			continue
		}
		if ref != nil && string(got[c.key]) != string(ref[c.key]) {
			v.fail(c.key, fmt.Errorf("result differs from the cold run"))
		}
	}
	return v
}
