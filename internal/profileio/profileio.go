// Package profileio reads and writes program locality profiles — the
// counterpart of the paper's per-program "footprint files" (§VII-A, 242 KB
// to 375 KB of ASCII per program) that the optimizer consumes.
//
// A profile stores the reuse-time, first-access, and last-access histograms
// plus the trace length, distinct-data count, and access rate. That is
// exactly the information the HOTL footprint formula needs, so the full
// footprint function (and from it any miss-ratio curve and any composition)
// is reconstructed losslessly.
//
// Format (ASCII, line oriented):
//
//	hotlprof v1
//	name <string>
//	rate <float>
//	n <int> m <int>
//	reuse <k>
//	<value> <count>     (k lines, ascending value)
//	first <k>
//	...
//	last <k>
//	...
//
// Write emits exactly this layout, one space and one newline as
// separators. Read is more liberal: the header lines are scanned with
// fmt.Fscan, and the histogram entries are a stream of integer tokens,
// each a maximal run of non-white-space runes (white space as in
// unicode.IsSpace, so tabs, CRLF line ends and blank lines are fine). A
// plain decimal token takes a byte-level fast path; any other token is
// parsed as a Go integer literal (strconv.ParseInt base 0), so 0x10,
// 0o20, 020, +16 and 1_6 all read as 16. Entries may arrive in any order
// and may repeat a value; repeated values' counts are summed.
package profileio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/footprint"
	"partitionshare/internal/reuse"
)

// Typed sentinel errors for the read path. Profile files are user data —
// truncated downloads, hand-edited histograms, the wrong file entirely —
// so every parse or invariant failure is a wrapped sentinel the caller can
// test with errors.Is, never a panic.
var (
	// ErrCorrupt reports a file that does not parse as a profile or whose
	// contents violate the profile invariants.
	ErrCorrupt = errors.New("profileio: corrupt profile")
	// ErrUnsupportedVersion reports a well-formed header with a version
	// this build does not speak.
	ErrUnsupportedVersion = errors.New("profileio: unsupported profile version")
)

// maxHistEntries caps a histogram's declared entry count. A corrupt or
// hostile size field would otherwise pre-allocate unbounded memory before
// the first entry is read; real profiles have at most one entry per
// distinct reuse time, far below this.
const maxHistEntries = 1 << 28

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Profile is the serializable form of one program's locality profile.
type Profile struct {
	Name  string
	Rate  float64
	Reuse reuse.Profile
}

// Footprint wraps the profile for HOTL evaluation.
func (p Profile) Footprint() footprint.Footprint { return footprint.New(p.Reuse) }

// Validate checks that the profile is serializable and internally
// consistent: a whitespace-free name, a positive finite rate, and
// histograms satisfying the reuse.Profile invariants. Read runs it on
// every parsed file; Write runs it before emitting anything, so a profile
// that round-trips is valid by construction.
func (p Profile) Validate() error {
	if p.Name == "" || strings.ContainsAny(p.Name, " \t\n") {
		return corrupt("invalid name %q", p.Name)
	}
	if !(p.Rate > 0) || math.IsInf(p.Rate, 0) {
		return corrupt("invalid rate %v", p.Rate)
	}
	if err := p.Reuse.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// Write serializes the profile. Every line is assembled with strconv
// appends in one reused scratch slice; the bytes are exactly those of
// the equivalent fmt.Fprintf calls ("%g" for the rate, "%d" for integers).
func Write(w io.Writer, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	b := append(make([]byte, 0, 64), "hotlprof v1\nname "...)
	b = append(b, p.Name...)
	b = append(b, "\nrate "...)
	b = strconv.AppendFloat(b, p.Rate, 'g', -1, 64)
	b = append(b, "\nn "...)
	b = strconv.AppendInt(b, p.Reuse.N, 10)
	b = append(b, " m "...)
	b = strconv.AppendInt(b, p.Reuse.M, 10)
	bw.Write(append(b, '\n'))
	writeHist := func(label string, ts reuse.TailSum) {
		b = append(b[:0], label...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(ts.Len()), 10)
		bw.Write(append(b, '\n'))
		ts.Each(func(v, c int64) {
			b = strconv.AppendInt(b[:0], v, 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, c, 10)
			bw.Write(append(b, '\n'))
		})
	}
	writeHist("reuse", p.Reuse.Reuse)
	writeHist("first", p.Reuse.First)
	writeHist("last", p.Reuse.Last)
	return bw.Flush()
}

// Read parses a profile written by Write. Parse failures and invariant
// violations wrap ErrCorrupt; a recognised magic with an unknown version
// wraps ErrUnsupportedVersion. Histogram sizes and entry values are
// bounds-checked, and a histogram's storage grows with the entries
// actually read rather than its declared size, so a truncated or hostile
// file fails fast instead of exhausting memory.
func Read(r io.Reader) (Profile, error) {
	br := bufio.NewReader(r)
	var p Profile
	var magic, version string
	if _, err := fmt.Fscan(br, &magic, &version); err != nil {
		return p, corrupt("bad header: %v", err)
	}
	if magic != "hotlprof" {
		return p, corrupt("bad magic %q", magic)
	}
	if version != "v1" {
		return p, fmt.Errorf("%w: %q (want v1)", ErrUnsupportedVersion, version)
	}
	var key string
	if _, err := fmt.Fscan(br, &key, &p.Name); err != nil || key != "name" {
		return p, corrupt("expected name line (err %v)", err)
	}
	if _, err := fmt.Fscan(br, &key, &p.Rate); err != nil || key != "rate" {
		return p, corrupt("expected rate line (err %v)", err)
	}
	var n, m int64
	var mkey string
	if _, err := fmt.Fscan(br, &key, &n, &mkey, &m); err != nil || key != "n" || mkey != "m" {
		return p, corrupt("expected n/m line (err %v)", err)
	}
	if n <= 0 || m <= 0 || m > n {
		return p, corrupt("invalid n=%d m=%d", n, m)
	}
	sc := intScanner{br: br}
	readHist := func(label string) (reuse.TailSum, error) {
		var got string
		var k int64
		if _, err := fmt.Fscan(br, &got, &k); err != nil || got != label {
			return reuse.TailSum{}, corrupt("expected %s histogram (got %q, err %v)", label, got, err)
		}
		if k < 0 || k > maxHistEntries || k > n {
			// At most one entry per distinct value, and values are bounded
			// by the trace length, so k > n can never be legitimate.
			return reuse.TailSum{}, corrupt("implausible %s histogram size %d (n=%d)", label, k, n)
		}
		// The declared size is trusted only as far as entries arrive: the
		// up-front capacity is capped, and each regrowth at most doubles
		// what was read, never past k: an honest size ends at capacity
		// exactly k, and a hostile one costs at most 2^16 entries or twice
		// the entries actually present.
		values, counts := make([]int64, 0, min(k, 1<<16)), make([]int64, 0, min(k, 1<<16))
		ascending := true
		for i := int64(0); i < k; i++ {
			if len(values) == cap(values) {
				grown := min(2*int64(len(values)), k)
				values = append(make([]int64, 0, grown), values...)
				counts = append(make([]int64, 0, grown), counts...)
			}
			v, c, err := sc.entry()
			if err != nil {
				return reuse.TailSum{}, corrupt("%s histogram entry %d of %d: %v", label, i+1, k, err)
			}
			if v <= 0 || v > n || c <= 0 {
				return reuse.TailSum{}, corrupt("invalid %s entry %d %d (n=%d)", label, v, c, n)
			}
			if len(values) > 0 && v <= values[len(values)-1] {
				ascending = false
			}
			values, counts = append(values, v), append(counts, c)
		}
		if !ascending {
			// Write never emits this, but unsorted and repeated values
			// are legal: sort once and sum the counts of equal values.
			sort.Sort(byValue{values, counts})
			w := 0
			for i, v := range values {
				if w > 0 && v == values[w-1] {
					if counts[w-1]+counts[i] < counts[w-1] {
						return reuse.TailSum{}, corrupt("%s count overflow at value %d", label, v)
					}
					counts[w-1] += counts[i]
					continue
				}
				values[w], counts[w] = v, counts[i]
				w++
			}
			values, counts = values[:w], counts[:w]
		}
		return reuse.NewTailSumSorted(values, counts), nil
	}
	var err error
	p.Reuse.N, p.Reuse.M = n, m
	if p.Reuse.Reuse, err = readHist("reuse"); err != nil {
		return p, err
	}
	if p.Reuse.First, err = readHist("first"); err != nil {
		return p, err
	}
	if p.Reuse.Last, err = readHist("last"); err != nil {
		return p, err
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// byValue sorts histogram entries by value, carrying their counts along.
type byValue struct{ values, counts []int64 }

func (h byValue) Len() int           { return len(h.values) }
func (h byValue) Less(i, j int) bool { return h.values[i] < h.values[j] }
func (h byValue) Swap(i, j int) {
	h.values[i], h.values[j] = h.values[j], h.values[i]
	h.counts[i], h.counts[j] = h.counts[j], h.counts[i]
}

// intScanner reads the histogram entries' integer tokens straight from
// the bufio.Reader's buffer (see the package comment for the grammar).
type intScanner struct {
	br  *bufio.Reader
	tok []byte // scratch for tokens off the fast path
}

// entry returns the next value and count. The fast path takes a line of
// two plain decimal tokens wholly inside the buffered bytes; anything
// else (a line straddling a buffer refill, the end of the input,
// non-ASCII white space, any other spelling) is read token by token on
// the slow path.
func (s *intScanner) entry() (v, c int64, err error) {
	buf, _ := s.br.Peek(s.br.Buffered())
	if v, i, ok := plainDecimal(buf); ok {
		if c, j, ok := plainDecimal(buf[i:]); ok {
			s.br.Discard(i + j)
			return v, c, nil
		}
	}
	if v, err = s.slow(); err == nil {
		c, err = s.slow()
	}
	return v, c, err
}

// plainDecimal parses the token at the start of buf, after any ASCII
// white space, if it is plain decimal — no sign, no leading zero, at
// most 18 digits so it cannot overflow — and ends in ASCII white space
// inside buf. It returns the value and the offset just past the token.
func plainDecimal(buf []byte) (v int64, end int, ok bool) {
	i := 0
	for i < len(buf) && isASCIISpace(buf[i]) {
		i++
	}
	j := i
	for j < len(buf) && j-i <= 18 && buf[j]-'0' <= 9 {
		v = v*10 + int64(buf[j]-'0')
		j++
	}
	return v, j, j > i && j-i <= 18 && buf[i] != '0' && j < len(buf) && isASCIISpace(buf[j])
}

// slow reads one token rune by rune, treating as white space exactly the
// runes fmt's scanners do (unicode.IsSpace), and parses it as a Go
// integer literal — the call fmt's %v integer scan makes.
func (s *intScanner) slow() (int64, error) {
	s.tok = s.tok[:0]
	for {
		r, _, err := s.br.ReadRune()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		if unicode.IsSpace(r) {
			if len(s.tok) > 0 {
				break
			}
			continue
		}
		s.tok = utf8.AppendRune(s.tok, r)
	}
	if len(s.tok) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	v, err := strconv.ParseInt(string(s.tok), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("integer %.32q: %w", s.tok, err.(*strconv.NumError).Err)
	}
	return v, nil
}

// isASCIISpace reports the ASCII white space bytes: \t \n \v \f \r and
// the space.
func isASCIISpace(b byte) bool { return b == ' ' || b-'\t' <= '\r'-'\t' }

// WriteFile serializes the profile to path atomically (write-temp+rename):
// an interrupted write leaves any previous profile intact, never a torn
// file.
func WriteFile(path string, p Profile) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Write(w, p)
	})
}

// ReadFile parses the profile at path.
func ReadFile(path string) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, err
	}
	defer f.Close()
	p, err := Read(f)
	if err != nil {
		return Profile{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
