package verify

import (
	"math"
	"strings"
	"testing"

	"repro/internal/distance"
	"repro/internal/machine"
	"repro/internal/signature"
	"repro/internal/workload"
)

// The fuzz targets stress the same equivalences the differential suite
// samples, but with adversarial inputs: arbitrary lengths (empty sequences
// included), arbitrary band widths, banks whose entries tie or truncate.
// CI runs each under a short smoke budget (`make fuzz`); the checked-in
// seed corpus below keeps plain `go test` exercising the properties too.

// fuzzSeq decodes fuzz bytes into a bounded non-negative sequence: one
// value per byte, so the fuzzer controls length and shape byte by byte.
func fuzzSeq(data []byte, maxLen int) []float64 {
	if len(data) > maxLen {
		data = data[:maxLen]
	}
	s := make([]float64, len(data))
	for i, b := range data {
		s[i] = float64(b) / 16
	}
	return s
}

// fuzzSignedSeq decodes fuzz bytes into a bounded sequence over the whole
// float64 range the kernel must agree with its reference on: each byte is
// a signed sixteenth, except that 0x7f, 0x80 and 0x7e decode to +Inf, −Inf
// and NaN.
func fuzzSignedSeq(data []byte, maxLen int) []float64 {
	if len(data) > maxLen {
		data = data[:maxLen]
	}
	s := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 0x7f:
			s[i] = math.Inf(1)
		case 0x80:
			s[i] = math.Inf(-1)
		case 0x7e:
			s[i] = math.NaN()
		default:
			s[i] = float64(int8(b)) / 16
		}
	}
	return s
}

// FuzzDTW checks DTW invariants for arbitrary sequences and penalties: the
// row-blocked kernel is bit-identical to the row-at-a-time reference, and
// the distance is symmetric. Bit-identical is checked with sameFloat, so
// NaN results need only both be NaN. The top bit of window selects the
// signed decode, whose sequences hold negative values, ±Inf and NaN and
// whose penalty may be negative. Its low bits once set a warp-band width
// and are now unused; the argument stays so the committed corpus decodes.
func FuzzDTW(f *testing.F) {
	f.Add([]byte{0, 16, 32}, []byte{32, 16, 0}, uint8(1), uint8(8))
	f.Add([]byte{}, []byte{200, 3}, uint8(0), uint8(0))
	f.Add([]byte{5}, []byte{5, 5, 5, 5, 5, 5, 5, 5}, uint8(2), uint8(16))
	f.Fuzz(func(t *testing.T, xb, yb []byte, window, penalty uint8) {
		signed := window&0x80 != 0
		var x, y []float64
		var pen float64
		if signed {
			x, y = fuzzSignedSeq(xb, 64), fuzzSignedSeq(yb, 64)
			pen = float64(int8(penalty)) / 32
		} else {
			x, y = fuzzSeq(xb, 64), fuzzSeq(yb, 64)
			pen = float64(penalty) / 32
		}
		exact := distance.DTW{AsyncPenalty: pen}
		e := exact.Distance(x, y)

		if len(x) > 0 && len(y) > 0 {
			if r := referenceDTW(x, y, pen); !sameFloat(r, e) {
				t.Fatalf("blocked %v != reference %v (len %d,%d)", e, r, len(x), len(y))
			}
		}
		if s := exact.Distance(y, x); !sameFloat(s, e) {
			t.Fatalf("asymmetric: d(x,y)=%v d(y,x)=%v", e, s)
		}
	})
}

// FuzzSignatureMatch checks that the incremental Session reports the same
// best index as the naive full rescan after every single-bucket extension,
// and the bank's early-abandoning IdentifyPatternScored the same index and
// bitwise the same distance, for arbitrary banks (entry lengths chosen by
// the fuzzer, duplicates possible) and arbitrary prefixes.
func FuzzSignatureMatch(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 2, 9, 9, 0}, []byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 3, 7, 7, 7}, []byte{7, 7})
	f.Add([]byte{1, 200, 1, 200}, []byte{})
	f.Fuzz(func(t *testing.T, bankBytes, prefixBytes []byte) {
		// Bank encoding: [len][len bytes of pattern]... repeated; a zero
		// length makes an empty-pattern entry (legal: it can never explain
		// any bucket, so it pays the prefix's own values).
		bank := &signature.Bank{BucketIns: 1e6}
		for i := 0; i < len(bankBytes) && len(bank.Entries) < 16; {
			n := int(bankBytes[i] % 12)
			i++
			end := i + n
			if end > len(bankBytes) {
				end = len(bankBytes)
			}
			bank.Entries = append(bank.Entries, signature.Entry{
				Pattern:   fuzzSeq(bankBytes[i:end], 12),
				CPUTimeNs: float64(n) * 1e6,
			})
			i = end
		}
		bank.ThresholdNs = 4e6
		s := signature.NewMatcher(bank).NewSession()
		var prefix []float64
		for _, b := range fuzzSeq(prefixBytes, 48) {
			prefix = append(prefix, b)
			s.Extend(b)
			want, wantD := naiveIdentify(bank, prefix)
			if got := s.Best(); got != want {
				t.Fatalf("prefix len %d: session best %d, naive %d", len(prefix), got, want)
			}
			if got, gotD := bank.IdentifyPatternScored(prefix); got != want || !sameFloat(gotD, wantD) {
				t.Fatalf("prefix len %d: IdentifyPatternScored (%d, %v), naive (%d, %v)", len(prefix), got, gotD, want, wantD)
			}
		}
	})
}

// FuzzPatternMatrix checks the column-sweep pattern matrix against
// pair-at-a-time PatternDistance on adversarial populations: up to 12
// patterns of 0–40 buckets over the signed decode (negative values, ±Inf,
// NaN), every cell compared with sameFloat. Population encoding:
// [len][len bytes]... as in FuzzSignatureMatch.
func FuzzPatternMatrix(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 2, 1, 2, 0, 5, 0x7f, 0x80, 0x7e, 0xf0, 16})
	f.Add([]byte{4, 0x80, 0x80, 0x80, 0x80, 4, 0x7f, 0x7f, 0x7f, 0x7f})
	f.Add([]byte{40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 1, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pats [][]float64
		for i := 0; i < len(data) && len(pats) < 12; {
			n := int(data[i] % 41)
			i++
			end := min(i+n, len(data))
			pats = append(pats, fuzzSignedSeq(data[i:end], 40))
			i = end
		}
		var pm signature.PatternMatrix
		var dm distance.Matrix
		pm.Fill(&dm, pats)
		for i := range pats {
			for j := i + 1; j < len(pats); j++ {
				if got, want := dm.At(i, j), signature.PatternDistance(pats[i], pats[j]); !sameFloat(got, want) {
					t.Fatalf("cell (%d,%d) len (%d,%d): column sweep %v, pairwise %v",
						i, j, len(pats[i]), len(pats[j]), got, want)
				}
			}
		}
	})
}

// FuzzStreamSpec checks the stream-spec parser (the service mode's config
// surface) on arbitrary input: it must never panic, and every accepted
// spec must satisfy the round-trip property — the parsed config validates,
// renders back through String, and re-parses to an identical config, with
// both renderings byte-equal (String is a canonical form).
func FuzzStreamSpec(f *testing.F) {
	f.Add("rate=800000;mix=webserver:4,tpcc:2,rubis:2;period=50ms:0.3,330ms:0.25:0.5;burst=100ms+40ms*2.5;drift=0.01;seed=1")
	f.Add("rate=1;mix=webserver:1")
	f.Add("rate=1e9;mix=tpch:0.5;period=1h:1:0.999;burst=0s+1ns*1000")
	f.Add("rate=5;;mix= rubis : 2 ;drift=-1")
	f.Add("rate=inf;mix=webserver:nan")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := workload.ParseStream(spec)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", spec, verr)
		}
		s1 := c.String()
		c2, err := workload.ParseStream(s1)
		if err != nil {
			t.Fatalf("canonical form %q of %q rejected: %v", s1, spec, err)
		}
		if s2 := c2.String(); s2 != s1 {
			t.Fatalf("round trip unstable:\n first %q\nsecond %q", s1, s2)
		}
	})
}

// FuzzFingerprintStability checks the canonicalization's own guarantees:
// fingerprinting is deterministic, independent of map insertion order, and
// emits a parseable line format (exactly one path, tab, value per line; no
// raw newlines or tabs leak out of quoted strings).
func FuzzFingerprintStability(f *testing.F) {
	f.Add([]byte{1, 2, 3}, "app\tname\n")
	f.Add([]byte{}, "")
	f.Add([]byte{255, 0, 128}, "Ω non-ascii / slash")
	f.Fuzz(func(t *testing.T, nums []byte, s string) {
		type inner struct {
			Tag  string
			Vals []float64
		}
		vals := fuzzSeq(nums, 32)
		fwd := map[string]inner{}
		rev := map[string]inner{}
		keys := []string{s, s + "x", "k\t" + s, "", "plain"}
		for i, k := range keys {
			v := inner{Tag: s, Vals: append([]float64{float64(i)}, vals...)}
			fwd[k] = v
		}
		for i := len(keys) - 1; i >= 0; i-- {
			rev[keys[i]] = fwd[keys[i]]
		}
		fa, err := fingerprint(fwd)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fingerprint(rev)
		if err != nil {
			t.Fatal(err)
		}
		if fa != fb {
			t.Fatalf("map insertion order changed fingerprint: %s vs %s", fa, fb)
		}
		again, err := fingerprint(fwd)
		if err != nil {
			t.Fatal(err)
		}
		if fa != again {
			t.Fatalf("fingerprint unstable across calls: %s vs %s", fa, again)
		}
		lines, err := Canonicalize(fwd)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if strings.ContainsAny(l.Path, "\t\n") {
				t.Fatalf("path %q contains separator bytes", l.Path)
			}
			if strings.Contains(l.Value, "\n") {
				t.Fatalf("value %q contains a newline", l.Value)
			}
		}
	})
}

// FuzzTopologySpec checks the machine-topology parser (the fleet's config
// surface) the same way FuzzStreamSpec checks the stream parser: arbitrary
// input must never panic, and every accepted spec must validate and
// round-trip through String to an identical topology with a stable
// canonical rendering. The fleet form ("/"-separated nodes) must satisfy
// the same property through ParseFleet/FleetString.
func FuzzTopologySpec(f *testing.F) {
	f.Add("pkg=2,2")
	f.Add("cores=16;per=4")
	f.Add("pkg=2:0.8,4:1.2:8;clock=2.5")
	f.Add("pkg=1:0.5:0.125,3:1:8")
	f.Add("cores=1")
	f.Add("pkg=2,2/pkg=4:0.85/pkg=4:1.15:8,4:1.15:8")
	f.Add("pkg=1e3:inf;clock=nan")
	f.Fuzz(func(t *testing.T, spec string) {
		if topo, err := machine.ParseTopology(spec); err == nil {
			if verr := topo.Validate(); verr != nil {
				t.Fatalf("accepted spec %q fails Validate: %v", spec, verr)
			}
			s1 := topo.String()
			topo2, err := machine.ParseTopology(s1)
			if err != nil {
				t.Fatalf("canonical form %q of %q rejected: %v", s1, spec, err)
			}
			if !topo.Equal(topo2) {
				t.Fatalf("round trip changed the topology: %q -> %#v vs %#v", spec, topo, topo2)
			}
			if s2 := topo2.String(); s2 != s1 {
				t.Fatalf("round trip unstable:\n first %q\nsecond %q", s1, s2)
			}
		}
		if fleet, err := machine.ParseFleet(spec); err == nil {
			s1 := machine.FleetString(fleet)
			fleet2, err := machine.ParseFleet(s1)
			if err != nil {
				t.Fatalf("canonical fleet %q of %q rejected: %v", s1, spec, err)
			}
			if s2 := machine.FleetString(fleet2); s2 != s1 {
				t.Fatalf("fleet round trip unstable:\n first %q\nsecond %q", s1, s2)
			}
		}
	})
}
