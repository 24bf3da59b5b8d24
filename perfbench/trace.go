package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"aroma/internal/telemetry"
)

// span is one timed call of a traced run. Times are nanoseconds since
// the run started; Parent 0 is a root (a job, or an observer read).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (r *run) spanID() int64 { return r.spanSeq.Add(1) }

func (r *run) addSpan(id, parent int64, name string, start time.Time, d time.Duration) {
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.start).Nanoseconds()}
	s.End = s.Start + d.Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addSnapshot records one snapshot's size.
func (p *phase) addSnapshot(n int) {
	p.mu.Lock()
	p.snapKB = append(p.snapKB, float64(n)/1024)
	p.mu.Unlock()
}

// instrumentTotals sums a telemetry snapshot's instruments by name
// (label variants of one counter add up).
func instrumentTotals(ins []telemetry.InstrumentSnapshot) map[string]float64 {
	out := make(map[string]float64, len(ins))
	for _, in := range ins {
		out[in.Name] += in.Value
	}
	return out
}

// writeArtefacts writes what a traced run kept in memory: its spans,
// the summed telemetry counters and the CPU share of every package.
func (r *run) writeArtefacts() error {
	files := map[string]any{
		"spans.json":     r.spans,
		"telemetry.json": r.telemetry,
		"layers.json":    r.layers,
		"record.json":    r.record(),
	}
	for name, v := range files {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(r.outDir+"/"+name, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// foldProfile reads a runtime/pprof CPU profile and returns each
// layer's share of the samples. A sample whose innermost frame is in
// the Go runtime counts as "runtime"; otherwise it counts toward the
// innermost aroma package on its stack (so math.Log under env counts
// as env), named by its last path element ("aroma/internal/radio" is
// "radio"). Samples with no aroma frame count as "other".
func foldProfile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[0])
		total += v
		counts[p.layerOf(s.locs)] += v
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts, nil
}

// layerOf attributes one stack, given leaf first.
func (p *profile) layerOf(locs []uint64) string {
	first := true
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			pkg := packageOf(p.strings[p.functions[fn]])
			if first && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")) {
				return "runtime"
			}
			first = false
			if rest, ok := strings.CutPrefix(pkg, "aroma/"); ok {
				return rest[strings.LastIndex(rest, "/")+1:]
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "aroma/internal/radio.(*Medium).Transmit" or "sort.Slice[...]".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile decodes the profile.proto message: sample (2),
// location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, m)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, w, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks a protobuf message, handing each field's number, wire
// type and value (varint) or payload (length-delimited) to fn.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
