package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// profile is a decoded pprof profile: one stack of function names
// (leaf first) and one value per sample.
type profile struct {
	stacks [][]string
	values []int64
	total  int64
}

// parseProfile decodes a gzipped pprof protobuf and keeps, per sample,
// the value of the sample type named valueType ("cpu", "alloc_space").
// Only the fields needed to rebuild stacks are read.
func parseProfile(data []byte, valueType string) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		sampleTypes []uint64 // string-table index of each value's type
		samples     []sample
		locFuncs    = map[uint64][]uint64{} // location -> function IDs, inlined callee first
		funcNames   = map[uint64]uint64{}   // function -> name string index
		strtab      []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, pbPacked(w, v, b)...)
				case 2:
					for _, x := range pbPacked(w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	col := -1
	for i, st := range sampleTypes {
		if int(st) < len(strtab) && strtab[st] == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	p := &profile{}
	for _, s := range samples {
		if col >= len(s.vals) || s.vals[col] == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; int(idx) < len(strtab) {
					stack = append(stack, strtab[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, s.vals[col])
		p.total += s.vals[col]
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn per field with its
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// pbPacked returns a repeated varint field's values, packed or not.
func pbPacked(wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// layerOwners maps a function-name prefix to the layer that owns the
// CPU spent under it. Helper packages (imaging, mat, kalman, hungarian,
// geo, roadnet, clock, metrics) are absent on purpose: their time goes
// to the layer that called them. encoding/json and encoding/base64 are
// the protocol layer's codec.
var layerOwners = []struct{ prefix, layer string }{
	{"repro/internal/sim.", "sim"},
	{"repro/internal/des.", "des"},
	{"repro/internal/core.", "des"},
	{"repro/internal/vision.", "vision"},
	{"repro/internal/tracker.", "tracker"},
	{"repro/internal/feature.", "feature"},
	{"repro/internal/reid.", "reid"},
	{"repro/internal/camnode.", "camnode"},
	{"repro/internal/pipeline.", "camnode"},
	{"repro/internal/transport.", "transport"},
	{"repro/internal/rpc.", "rpc"},
	{"repro/internal/protocol.", "protocol"},
	{"encoding/json.", "protocol"},
	{"encoding/base64.", "protocol"},
	{"repro/internal/trajstore.", "trajstore"},
	{"repro/internal/query.", "query"},
	{"repro/internal/framestore.", "framestore"},
	{"repro/internal/topology.", "topology"},
	{"repro/internal/fleet.", "fleet"},
	{"repro/internal/obs.", "obs"},
	{"main.", "gen"},
}

func ownerOf(fn string) string {
	for _, o := range layerOwners {
		if strings.HasPrefix(fn, o.prefix) {
			return o.layer
		}
	}
	return ""
}

// isRuntime reports whether fn is Go runtime machinery.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/") ||
		strings.HasPrefix(fn, "runtime/")
}

// byLayer splits the profile by owning layer: walking each stack from
// the leaf, the first frame of a named layer owns the sample. Stacks
// with no layer frame go to "runtime" when every frame is runtime
// machinery and to "unattributed" otherwise.
func (p *profile) byLayer() map[string]float64 {
	out := map[string]float64{}
	for i, st := range p.stacks {
		owner := ""
		for _, fn := range st {
			if owner = ownerOf(fn); owner != "" {
				break
			}
		}
		if owner == "" {
			owner = "runtime"
			for _, fn := range st {
				if !isRuntime(fn) {
					owner = "unattributed"
					break
				}
			}
		}
		out[owner] += float64(p.values[i])
	}
	return out
}

// inclusive sums the samples whose stack holds a frame starting with
// any of the prefixes (each sample counted once).
func (p *profile) inclusive(prefixes ...string) float64 {
	var sum float64
	for i, st := range p.stacks {
	frames:
		for _, fn := range st {
			for _, pre := range prefixes {
				if strings.HasPrefix(fn, pre) {
					sum += float64(p.values[i])
					break frames
				}
			}
		}
	}
	return sum
}

// Entry points the per-layer metrics attribute profile time to.
var (
	entryRender    = "repro/internal/sim.(*Camera).Render"
	entryTracker   = "repro/internal/tracker.(*Tracker).Update"
	entryFeature   = "repro/internal/feature.(*Accumulator).Add"
	entryMatch     = "repro/internal/reid.(*Matcher).Match"
	entryIngest    = "repro/internal/camnode.(*Node).ingest"
	entryFleet     = "repro/internal/fleet.(*Monitor).Ingest"
	entryAddVertex = "repro/internal/trajstore.(*Store).AddVertex"
	entryReconst   = "repro/internal/trajstore.ReconstructTracks"
	prefixesJSON   = []string{"encoding/json.", "encoding/base64."}
	prefixesObs    = []string{"repro/internal/obs."}
)

// profiler captures a traced phase's CPU profile and allocation
// profile delta.
type profiler struct {
	cpu         bytes.Buffer
	allocBefore *profile
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	runtime.GC()
	before, err := allocProfile()
	if err != nil {
		return nil, err
	}
	p.allocBefore = before
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the CPU profile, writes the raw profiles under dir, and
// returns the CPU profile and the allocation profile of the phase.
func (p *profiler) stop(dir, stem string) (cpu, alloc *profile, err error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), p.cpu.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	cpu, err = parseProfile(p.cpu.Bytes(), "cpu")
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	after, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}
	return cpu, after.minus(p.allocBefore), nil
}

// allocProfile reads the cumulative allocation profile.
func allocProfile() (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes(), "alloc_space")
}

// minus subtracts an earlier cumulative profile stack by stack.
func (p *profile) minus(earlier *profile) *profile {
	key := func(st []string) string { return strings.Join(st, "\x00") }
	prev := map[string]int64{}
	for i, st := range earlier.stacks {
		prev[key(st)] += earlier.values[i]
	}
	out := &profile{}
	for i, st := range p.stacks {
		k := key(st)
		v := p.values[i] - prev[k]
		prev[k] = 0
		if v <= 0 {
			continue
		}
		out.stacks = append(out.stacks, st)
		out.values = append(out.values, v)
		out.total += v
	}
	return out
}

// coverage describes where a traced run's CPU went, largest first.
func coverage(layers map[string]float64, total float64) string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f%%", n, 100*ratio(layers[n], total))
	}
	return strings.TrimSpace(b.String())
}
