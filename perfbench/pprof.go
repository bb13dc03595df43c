package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer shares of
// (*sim.System).Run. Run has no public boundary between memsim, cpu and
// the tracker, so sampling is the only outside view of how its time
// splits. The profile is gzip-compressed protobuf (profile.proto); only
// the fields the fold needs are decoded.

// runFrame marks the samples the shares are taken over.
const runFrame = "repro/internal/sim.(*System).Run"

// shareNames lists the fold's layers in output order.
var shareNames = []string{
	"memsim.step_share", "memsim.merge_share", "dram.share", "cpu.share",
	"workload.share", "tracker.share", "sim.share", "runtime.share",
}

// layerOf maps a repo package to its share, or "" for packages that
// are not a layer of their own (obsv, stats, rngstream, the standard
// library): their samples go to the nearest calling layer.
func layerOf(pkg string) string {
	switch strings.TrimPrefix(pkg, "repro/internal/") {
	case "memsim":
		return "memsim.step_share"
	case "dram":
		return "dram.share"
	case "cpu":
		return "cpu.share"
	case "workload":
		return "workload.share"
	case "core", "track", "mitigate", "rh":
		return "tracker.share"
	case "sim":
		return "sim.share"
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/memsim.(*Memory).drain" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// foldStack attributes one sample, given its frames leaf first. A leaf
// in the runtime (allocation, GC assist, write barriers, map and copy
// internals) is runtime time; otherwise the innermost frame in a layer
// package decides, with memsim frames split at the epoch merge: memsim
// time under (*Memory).drain is merge, the rest is channel stepping.
func foldStack(frames []string) string {
	if len(frames) > 0 {
		pkg := funcPackage(frames[0])
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime.share"
		}
	}
	for i, f := range frames {
		layer := layerOf(funcPackage(f))
		if layer == "" {
			continue
		}
		if layer == "memsim.step_share" {
			for _, g := range frames[i:] {
				if funcPackage(g) != "repro/internal/memsim" {
					break
				}
				if strings.HasSuffix(g, ".(*Memory).drain") {
					return "memsim.merge_share"
				}
			}
		}
		return layer
	}
	return "sim.share"
}

// foldProfile counts a CPU profile's samples taken inside Run by share.
func foldProfile(gzipped []byte) (map[string]int64, error) {
	p, err := parseProfile(gzipped)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		inRun := false
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				name := p.strings[p.functions[fn]]
				frames = append(frames, name)
				inRun = inRun || name == runFrame
			}
		}
		if !inRun {
			continue
		}
		counts[foldStack(frames)] += s.count
	}
	return counts, nil
}

// profile is the part of profile.proto the fold reads.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]uint64   // function id -> name's string-table index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64    // the first sample value: samples/count for CPU profiles
}

func parseProfile(gzipped []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			values := 0
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name >= uint64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message. For varint fields fn gets the
// value; for length-delimited fields it gets the bytes (b != nil);
// fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, in either encoding: one
// value (b == nil) or a packed run of values.
func eachVarint(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
