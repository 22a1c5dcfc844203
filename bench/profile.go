package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Modules are the layers a CPU profile is folded into, in report order. A
// sample's self time goes to the package of its leaf frame — the innermost
// inlined function, so inlined callees count toward their own package:
// repro/internal/<module> maps to <module>; math, the runtime (GC and
// scheduler), raw system calls and the network stack keep their own rows;
// everything else is "other".
var Modules = []string{
	"radio", "rng", "math", "mac", "core", "cache", "energy", "des", "ir",
	"metrics", "db", "topology", "mobility", "traffic", "workload",
	"serve", "syscall", "net", "runtime", "other",
}

// ModuleOf maps a fully qualified Go function name to its module.
func ModuleOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		m := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		for _, known := range Modules {
			if m == known {
				return m
			}
		}
		return "other"
	case pkg == "syscall" || strings.HasSuffix(pkg, "runtime/syscall") || pkg == "runtime/internal/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll":
		return "net"
	}
	return "other"
}

// funcPackage extracts the import path from a qualified function name such
// as "repro/internal/radio.(*FSMC).Advance" or "runtime.mallocgc": the text
// up to the first dot after the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Fold is a CPU profile folded into per-module self time.
type Fold struct {
	// SampledSec is the CPU time the profile's samples account for.
	SampledSec float64
	// Share maps each of Modules to its fraction of SampledSec; the shares
	// sum to 1 for a non-empty profile.
	Share map[string]float64
}

// FoldProfile reads a gzip-compressed pprof CPU profile (the format
// runtime/pprof writes and /debug/pprof/profile serves) and folds each
// sample's CPU time into the module of its leaf frame.
func FoldProfile(r io.Reader) (*Fold, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st.unit) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("bench: profile has no nanoseconds sample type")
	}
	funcName := make(map[uint64]string, len(p.functions))
	for _, f := range p.functions {
		funcName[f.id] = p.str(f.name)
	}
	leafModule := make(map[uint64]string, len(p.locations))
	for _, l := range p.locations {
		m := "other"
		if len(l.funcIDs) > 0 {
			m = ModuleOf(funcName[l.funcIDs[0]])
		}
		leafModule[l.id] = m
	}
	ns := make(map[string]int64, len(Modules))
	var total int64
	for _, s := range p.samples {
		if len(s.locations) == 0 || valueIdx >= len(s.values) {
			continue
		}
		v := s.values[valueIdx]
		m, ok := leafModule[s.locations[0]]
		if !ok {
			m = "other"
		}
		ns[m] += v
		total += v
	}
	f := &Fold{SampledSec: float64(total) / 1e9, Share: make(map[string]float64, len(Modules))}
	for _, m := range Modules {
		if total > 0 {
			f.Share[m] = float64(ns[m]) / float64(total)
		} else {
			f.Share[m] = 0
		}
	}
	return f, nil
}

// Listing renders the fold as one "module share" line per module, in Modules
// order, shares as percentages with two decimals.
func (f *Fold) Listing() string {
	var b strings.Builder
	for _, m := range Modules {
		fmt.Fprintf(&b, "%-9s %6.2f%%\n", m, 100*f.Share[m])
	}
	return b.String()
}

// --- a minimal reader for the pprof protobuf encoding (profile.proto) ---
//
// Only the fields the fold needs are decoded; every other field is skipped
// by wire type, so the reader tolerates profiles from any Go version.

type valueType struct{ typ, unit int64 }

type pSample struct {
	locations []uint64
	values    []int64
}

type pLocation struct {
	id      uint64
	funcIDs []uint64 // one per Line, innermost inlined function first
}

type pFunction struct {
	id   uint64
	name int64
}

type profile struct {
	sampleTypes []valueType
	samples     []pSample
	locations   []pLocation
	functions   []pFunction
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbField is one decoded protobuf field: a varint (wire type 0) or a
// length-delimited payload (wire type 2).
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bench: profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bench: profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("bench: profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bench: profile: truncated bytes field")
			}
			f.bytes, f.isLen, b = b[n:n+int(l)], true, b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("bench: profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("bench: profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints decodes a repeated uint64 field that may arrive packed (one
// length-delimited run) or unpacked (one varint per field).
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if !f.isLen {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bench: profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, f := range fields {
		switch {
		case f.num == 1 && f.isLen: // sample_type
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var vt valueType
			for _, g := range sub {
				switch g.num {
				case 1:
					vt.typ = int64(g.varint)
				case 2:
					vt.unit = int64(g.varint)
				}
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case f.num == 2 && f.isLen: // sample
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locations, err = pbUints(g, s.locations); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case f.num == 4 && f.isLen: // location
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var l pLocation
			for _, g := range sub {
				switch {
				case g.num == 1:
					l.id = g.varint
				case g.num == 4 && g.isLen: // line
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							l.funcIDs = append(l.funcIDs, h.varint)
						}
					}
				}
			}
			p.locations = append(p.locations, l)
		case f.num == 5 && f.isLen: // function
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var fn pFunction
			for _, g := range sub {
				switch g.num {
				case 1:
					fn.id = g.varint
				case 2:
					fn.name = int64(g.varint)
				}
			}
			p.functions = append(p.functions, fn)
		case f.num == 6 && f.isLen: // string_table
			p.strings = append(p.strings, string(f.bytes))
		case f.num == 6:
			return nil, errors.New("bench: profile: malformed string table")
		}
	}
	if len(p.strings) == 0 || p.strings[0] != "" {
		return nil, errors.New("bench: profile: string table must start with the empty string")
	}
	return p, nil
}

// profileLayers folds the CPU profile at path into one "<module>.self_share"
// metric per module, plus the profile residual: the percentage of the
// process's CPU time over the profiled window (cpuSec, from the kernel's
// accounting) that no profile sample accounts for.
func profileLayers(path string, cpuSec float64) ([]Metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := FoldProfile(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ms := make([]Metric, 0, len(Modules)+1)
	for _, m := range Modules {
		ms = append(ms, Metric{Name: m + ".self_share", Unit: "ratio", Value: f.Share[m]})
	}
	return append(ms, Metric{Name: "profile.residual_pct", Unit: "%", Value: 100 * (1 - ratio(f.SampledSec, cpuSec))}), nil
}
