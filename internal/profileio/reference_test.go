package profileio

import (
	"bufio"
	"fmt"
	"io"
	"unicode"

	"partitionshare/internal/reuse"
)

// writeReference is the fmt-based writer Write replaced, kept as the
// oracle for its bytes: Write must match it byte for byte on every valid
// profile.
func writeReference(w io.Writer, p Profile) error {
	bw := bufio.NewWriter(w)
	if err := p.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(bw, "hotlprof v1")
	fmt.Fprintf(bw, "name %s\n", p.Name)
	fmt.Fprintf(bw, "rate %g\n", p.Rate)
	fmt.Fprintf(bw, "n %d m %d\n", p.Reuse.N, p.Reuse.M)
	writeHist := func(label string, ts reuse.TailSum) {
		fmt.Fprintf(bw, "%s %d\n", label, ts.Len())
		ts.Each(func(v, c int64) {
			fmt.Fprintf(bw, "%d %d\n", v, c)
		})
	}
	writeHist("reuse", p.Reuse.Reuse)
	writeHist("first", p.Reuse.First)
	writeHist("last", p.Reuse.Last)
	return bw.Flush()
}

// readReference is the fmt.Fscan/map reader Read replaced, kept as the
// oracle for its results. Two changes from the original, neither of
// which alters what it accepts or returns: the map's capacity hint is
// capped, so a hostile histogram size cannot exhaust memory here either,
// and entries are scanned one number per call so that it can report
// spaced — whether every histogram number it read was followed by white
// space or the end of the input. Read accepts exactly the inputs this
// reader accepts with spaced set.
func readReference(r io.Reader) (p Profile, spaced bool, err error) {
	br := bufio.NewReader(r)
	var magic, version string
	if _, err := fmt.Fscan(br, &magic, &version); err != nil {
		return p, false, corrupt("bad header: %v", err)
	}
	if magic != "hotlprof" {
		return p, false, corrupt("bad magic %q", magic)
	}
	if version != "v1" {
		return p, false, fmt.Errorf("%w: %q (want v1)", ErrUnsupportedVersion, version)
	}
	var key string
	if _, err := fmt.Fscan(br, &key, &p.Name); err != nil || key != "name" {
		return p, false, corrupt("expected name line (err %v)", err)
	}
	if _, err := fmt.Fscan(br, &key, &p.Rate); err != nil || key != "rate" {
		return p, false, corrupt("expected rate line (err %v)", err)
	}
	var n, m int64
	var mkey string
	if _, err := fmt.Fscan(br, &key, &n, &mkey, &m); err != nil || key != "n" || mkey != "m" {
		return p, false, corrupt("expected n/m line (err %v)", err)
	}
	if n <= 0 || m <= 0 || m > n {
		return p, false, corrupt("invalid n=%d m=%d", n, m)
	}
	spaced = true
	scanNumber := func(x *int64) error {
		if _, err := fmt.Fscan(br, x); err != nil {
			return err
		}
		if r, _, err := br.ReadRune(); err == nil {
			br.UnreadRune()
			spaced = spaced && unicode.IsSpace(r)
		}
		return nil
	}
	readHist := func(label string) (reuse.TailSum, error) {
		var got string
		var k int64
		if _, err := fmt.Fscan(br, &got, &k); err != nil || got != label {
			return reuse.TailSum{}, corrupt("expected %s histogram (got %q, err %v)", label, got, err)
		}
		if k < 0 || k > maxHistEntries || k > n {
			return reuse.TailSum{}, corrupt("implausible %s histogram size %d (n=%d)", label, k, n)
		}
		hist := make(map[int64]int64, min(k, 1<<16))
		for i := int64(0); i < k; i++ {
			var v, c int64
			err := scanNumber(&v)
			if err == nil {
				err = scanNumber(&c)
			}
			if err != nil {
				return reuse.TailSum{}, corrupt("truncated %s histogram: %v", label, err)
			}
			if v <= 0 || v > n || c <= 0 {
				return reuse.TailSum{}, corrupt("invalid %s entry %d %d (n=%d)", label, v, c, n)
			}
			if hist[v]+c < hist[v] {
				return reuse.TailSum{}, corrupt("%s count overflow at value %d", label, v)
			}
			hist[v] += c
		}
		return reuse.NewTailSum(hist), nil
	}
	p.Reuse.N, p.Reuse.M = n, m
	if p.Reuse.Reuse, err = readHist("reuse"); err != nil {
		return p, false, err
	}
	if p.Reuse.First, err = readHist("first"); err != nil {
		return p, false, err
	}
	if p.Reuse.Last, err = readHist("last"); err != nil {
		return p, false, err
	}
	if err := p.Validate(); err != nil {
		return p, false, err
	}
	return p, spaced, nil
}
