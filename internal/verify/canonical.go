// Package verify is the repository's deterministic verification engine.
// Every PR so far stakes its value on two claims — experiment outputs are
// bit-identical across repeats and GOMAXPROCS, and every fast path exactly
// matches its naive reference — and this package turns both claims into
// executable infrastructure:
//
//   - Golden fingerprints: each experiment's structured result is reduced
//     to a canonical line serialization (see Canonicalize) and hashed; a
//     committed corpus under testdata/golden records the expected
//     fingerprint and lines for a grid of (experiment, seed, scale) cells,
//     and Sweep re-runs the grid — in parallel, optionally across
//     GOMAXPROCS settings — and reports the first divergent field of any
//     cell that drifted.
//
//   - Differential checks: differential.go pairs each fast path with its
//     reference oracle over seeded random inputs.
//
//   - Fuzzing: native Go fuzz targets stress the same equivalences plus
//     the canonicalization itself (see fuzz_test.go).
package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Line is one leaf of a canonicalized value: a slash-separated path from
// the root and the leaf's formatted value. The full line stream, in emitted
// order, is the canonical serialization that fingerprints hash and diffs
// compare.
type Line struct {
	Path  string
	Value string
}

func (l Line) String() string { return l.Path + "\t" + l.Value }

// Canonicalize reduces a structured experiment result to its canonical
// line serialization. The normalization rules (documented in DESIGN.md §7):
//
//   - Struct fields are emitted in declaration order; unexported fields are
//     skipped (they are implementation detail, not output).
//   - Slices and arrays emit an explicit <path>/len line first, then their
//     elements as <path>/<index>, so a length change diverges before any
//     cascade of shifted elements.
//   - Maps emit <path>/len, then entries sorted by formatted key — map
//     iteration order never reaches the serialization.
//   - Floats are quantized to 12 significant decimal digits ('g' format).
//     Negative zero normalizes to "0"; NaN and infinities format as "NaN",
//     "+Inf", "-Inf".
//   - Pointers and interfaces are dereferenced; nil emits the value "nil".
//   - Strings are quoted with strconv.Quote, so values never contain a
//     bare tab (the path/value separator) or newline (the line separator).
//
// Channels, functions, and unsafe pointers have no canonical form and
// return an error: corpus types must be plain data.
func Canonicalize(v any) ([]Line, error) {
	c := &canonicalizer{seen: map[uintptr]bool{}}
	if err := c.walk(reflect.ValueOf(v), "result"); err != nil {
		return nil, err
	}
	return c.lines, nil
}

// FingerprintLines hashes a canonical line stream into a short stable
// identifier ("sha256:" + first 16 hash bytes, hex). Two values fingerprint
// equally exactly when their canonical lines are identical.
func FingerprintLines(lines []Line) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l.Path))
		h.Write([]byte{'\t'})
		h.Write([]byte(l.Value))
		h.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:16])
}

type canonicalizer struct {
	lines []Line
	// seen guards against pointer cycles: the walk errors out rather than
	// recursing forever. Addresses are removed on exit so DAG sharing (two
	// fields aliasing one slice) stays legal.
	seen map[uintptr]bool
}

func (c *canonicalizer) emit(path, value string) {
	c.lines = append(c.lines, Line{Path: path, Value: value})
}

func (c *canonicalizer) walk(v reflect.Value, path string) error {
	if !v.IsValid() {
		c.emit(path, "nil")
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		c.emit(path, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.emit(path, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.emit(path, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		c.emit(path, FormatFloat(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		x := v.Complex()
		c.emit(path, FormatFloat(real(x))+"+"+FormatFloat(imag(x))+"i")
	case reflect.String:
		c.emit(path, strconv.Quote(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			c.emit(path, "nil")
			return nil
		}
		addr := v.Pointer()
		if c.seen[addr] {
			return fmt.Errorf("verify: pointer cycle at %s", path)
		}
		c.seen[addr] = true
		err := c.walk(v.Elem(), path)
		delete(c.seen, addr)
		return err
	case reflect.Interface:
		if v.IsNil() {
			c.emit(path, "nil")
			return nil
		}
		return c.walk(v.Elem(), path)
	case reflect.Slice, reflect.Array:
		c.emit(path+"/len", strconv.Itoa(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := c.walk(v.Index(i), path+"/"+strconv.Itoa(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		c.emit(path+"/len", strconv.Itoa(v.Len()))
		keys := make([]mapKey, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, mapKey{formatMapKey(k), k})
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].text < keys[j].text })
		for _, k := range keys {
			if err := c.walk(v.MapIndex(k.val), path+"/"+k.text); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if err := c.walk(v.Field(i), path+"/"+f.Name); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("verify: cannot canonicalize %s at %s", v.Kind(), path)
	}
	return nil
}

type mapKey struct {
	text string
	val  reflect.Value
}

// formatMapKey renders a map key for path use: deterministic, tab- and
// newline-free. String keys quote only when they contain characters that
// would break the line format or path splitting.
func formatMapKey(k reflect.Value) string {
	switch k.Kind() {
	case reflect.String:
		s := k.String()
		if strings.ContainsAny(s, "\t\n/\\\"") || s == "" {
			return strconv.Quote(s)
		}
		return s
	case reflect.Float32, reflect.Float64:
		return FormatFloat(k.Float())
	default:
		return fmt.Sprint(k.Interface())
	}
}

// floatDigits is the quantization policy: floats are serialized with this
// many significant decimal digits. 12 digits distinguish any values whose
// relative difference exceeds ~1e-12 — far below anything an experiment
// legitimately reports — while absorbing nothing the engine computes
// (fingerprints are built from deterministic runs, so equal runs match
// bit for bit; the quantization only bounds the corpus's textual size).
const floatDigits = 12

// FormatFloat renders one float under the corpus quantization policy.
func FormatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case f == 0:
		return "0" // negative zero normalizes
	}
	return strconv.FormatFloat(f, 'g', floatDigits, 64)
}
