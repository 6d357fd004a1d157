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

// layers are the benchmark's layer names in print order; runtime takes
// every CPU sample with no repository frame on its stack.
var layers = []string{"kernel", "transport", "overlay", "protocol", "experiment", "harness", "report", "obs", "runtime"}

// layerOf maps a package path below repro/internal/ to its layer, or ""
// for a package the benchmark does not measure.
func layerOf(pkg string) string {
	top, _, _ := strings.Cut(pkg, "/")
	switch top {
	case "sim":
		return "kernel"
	case "netmodel":
		return "transport"
	case "overlay", "churn", "sybil":
		return "overlay"
	case "raft", "pbft", "permissioned", "pow", "offchain", "ledger", "gossip",
		"incentive", "econ", "edge", "cloudbase", "workload", "randdist":
		return "protocol"
	case "experiments", "core", "metrics":
		return "experiment"
	case "harness", "report", "obs":
		return top
	}
	return ""
}

// funcLayer returns the layer of a profiled function name such as
// "repro/internal/overlay/kademlia.(*lookup).add", or "" when the function
// is not in a measured repository package.
func funcLayer(name string) string {
	rest, ok := strings.CutPrefix(name, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return layerOf(pkg)
}

// cpuShares attributes the samples of a gzipped pprof CPU profile to
// layers. Each sample is charged to the innermost frame in a measured
// repository package, so time in sort, container/heap or crypto counts
// against the layer that called it. The shares sum to 1 when the profile
// holds any sample.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := funcLayer(p.funcName(fn)); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64
}

func (p *profile) funcName(id uint64) string {
	i := p.functions[id]
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of the profile.proto messages read here.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a gzipped profile.proto message with the standard
// library only: the module takes no dependency for one message type.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			values := 0
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					s.locations = appendVarints(s.locations, v, b)
				case sampleValue:
					// The first value of a CPU profile is the sample count.
					for _, x := range appendVarints(nil, v, b) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b the bytes of a length-delimited one.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
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
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
