package obs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// This file is a minimal reader for the pprof protobuf wire format —
// just enough to aggregate sample values by pprof label, which is what
// the loadtest report and the CI profiling gate need. Parsing the wire
// format directly (a profile is an ordinary protobuf: field 1
// sample_type, field 2 samples with packed values and label pairs, field
// 6 the string table) keeps the repository dependency-free: the
// alternative is the github.com/google/pprof/profile package, which the
// zero-dependency policy rules out. The reader understands only the
// three fields it aggregates over and skips everything else by wire
// type, so profile format additions do not break it.

// LabelTotal is one (label key, label value) cell of a profile's
// aggregation: the summed sample value and its share of the profile
// total.
type LabelTotal struct {
	Key      string  `json:"key"`
	Value    string  `json:"value"`
	Total    int64   `json:"total"`
	Fraction float64 `json:"fraction"`
}

// LabelTotals aggregates a gzipped pprof profile's samples by pprof
// label: for every label key, the summed final sample value (CPU
// nanoseconds for CPU profiles) per label value, sorted by key then
// total descending. The second return is the profile's grand total over
// all samples, labeled or not, so callers can compute the unattributed
// remainder.
func LabelTotals(data []byte) ([]LabelTotal, int64, error) {
	prof, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byKey := make(map[string]map[string]int64)
	var grand int64
	for _, s := range prof.samples {
		grand += s.value
		for _, l := range s.labels {
			vals := byKey[l.key]
			if vals == nil {
				vals = make(map[string]int64)
				byKey[l.key] = vals
			}
			vals[l.value] += s.value
		}
	}
	var out []LabelTotal
	for k, vals := range byKey {
		for v, total := range vals {
			lt := LabelTotal{Key: k, Value: v, Total: total}
			if grand > 0 {
				lt.Fraction = float64(total) / float64(grand)
			}
			out = append(out, lt)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Value < out[j].Value
	})
	return out, grand, nil
}

type parsedLabel struct {
	key, value string
}

type parsedSample struct {
	value  int64 // the sample's final value column (CPU nanos for cpu profiles)
	labels []parsedLabel
}

type parsedProfile struct {
	samples []parsedSample
}

// parseProfile gunzips and decodes the three profile fields the
// aggregation needs. Raw (non-gzipped) profiles are accepted too — the
// gzip magic decides.
func parseProfile(data []byte) (*parsedProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("obs: profile gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("obs: profile gunzip: %w", err)
		}
		data = raw
	}

	// Pass 1: collect the string table and raw sample messages. The
	// string table may appear after samples in the stream, so label
	// indices are resolved in pass 2.
	var strtab []string
	var rawSamples [][]byte
	d := protoDecoder{buf: data}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch {
		case field == 6 && wire == 2: // string_table
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(b))
		case field == 2 && wire == 2: // sample
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			rawSamples = append(rawSamples, b)
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}

	prof := &parsedProfile{samples: make([]parsedSample, 0, len(rawSamples))}
	for _, raw := range rawSamples {
		s, err := parseSample(raw, str)
		if err != nil {
			return nil, err
		}
		prof.samples = append(prof.samples, s)
	}
	return prof, nil
}

func parseSample(raw []byte, str func(uint64) string) (parsedSample, error) {
	var s parsedSample
	d := protoDecoder{buf: raw}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return s, err
		}
		switch {
		case field == 2 && wire == 2: // packed values; keep the last column
			b, err := d.bytes()
			if err != nil {
				return s, err
			}
			vd := protoDecoder{buf: b}
			for !vd.done() {
				v, err := vd.varint()
				if err != nil {
					return s, err
				}
				s.value = int64(v)
			}
		case field == 2 && wire == 0: // unpacked value
			v, err := d.varint()
			if err != nil {
				return s, err
			}
			s.value = int64(v)
		case field == 3 && wire == 2: // label
			b, err := d.bytes()
			if err != nil {
				return s, err
			}
			var keyIdx, strIdx uint64
			ld := protoDecoder{buf: b}
			for !ld.done() {
				lf, lw, err := ld.tag()
				if err != nil {
					return s, err
				}
				switch {
				case lf == 1 && lw == 0:
					keyIdx, err = ld.varint()
				case lf == 2 && lw == 0:
					strIdx, err = ld.varint()
				default:
					err = ld.skip(lw)
				}
				if err != nil {
					return s, err
				}
			}
			// Numeric labels (str == 0) are skipped: the request labels
			// the aggregation serves are all string-valued.
			if strIdx != 0 {
				s.labels = append(s.labels, parsedLabel{key: str(keyIdx), value: str(strIdx)})
			}
		default:
			if err := d.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// protoDecoder is a cursor over protobuf wire data.
type protoDecoder struct {
	buf []byte
	pos int
}

func (d *protoDecoder) done() bool { return d.pos >= len(d.buf) }

func (d *protoDecoder) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, fmt.Errorf("obs: profile parse: truncated varint")
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("obs: profile parse: varint overflow")
		}
	}
}

func (d *protoDecoder) tag() (field int, wire int, err error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

func (d *protoDecoder) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("obs: profile parse: truncated field")
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *protoDecoder) skip(wire int) error {
	switch wire {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		if len(d.buf)-d.pos < 8 {
			return fmt.Errorf("obs: profile parse: truncated fixed64")
		}
		d.pos += 8
		return nil
	case 2:
		_, err := d.bytes()
		return err
	case 5:
		if len(d.buf)-d.pos < 4 {
			return fmt.Errorf("obs: profile parse: truncated fixed32")
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("obs: profile parse: unsupported wire type %d", wire)
	}
}
