package profileio

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// sampleSeedProfile builds a small valid profile for the seed corpus.
func sampleSeedProfile() Profile {
	rng := rand.New(rand.NewPCG(1, 2))
	tr := make(trace.Trace, 500)
	for i := range tr {
		tr[i] = uint32(rng.IntN(40))
	}
	return Profile{Name: "seed", Rate: 1.5, Reuse: reuse.Collect(tr)}
}

// hostileSizeBody declares a 2^28-entry histogram in 78 bytes and then
// ends: a reader that trusts the declared size allocates gigabytes before
// it notices the truncation.
const hostileSizeBody = "hotlprof v1\nname x\nrate 1\nn 1000000000000 m 1\nreuse 268435456\n1 1\n"

// FuzzProfileRoundTrip hardens the profile parser: arbitrary bytes must
// either fail with an error or parse into a profile that validates and
// survives a write→read round trip unchanged. The parser must never
// panic and never accept a profile its own Validate rejects.
//
// It is also the differential test of the codec against the fmt-based
// reference (reference_test.go): Read accepts an input only if
// readReference does, with a deeply equal profile; it accepts every input
// readReference accepts whose numbers are all followed by white space or
// the end of the input; and Write's bytes equal writeReference's.
func FuzzProfileRoundTrip(f *testing.F) {
	var b strings.Builder
	rng := sampleSeedProfile()
	if err := Write(&b, rng); err != nil {
		f.Fatal(err)
	}
	good := b.String()
	f.Add(good)
	f.Add("")
	f.Add("hotlprof v1\nname x\nrate 1\nn 3 m 2\n")
	f.Add("hotlprof v2\n")
	f.Add(strings.Replace(good, "rate", "late", 1))
	f.Add(good[:len(good)/3])
	f.Add(hostileSizeBody)
	f.Add(strings.Replace(good, "rate 1.5", "rate 1.25e-07", 1)) // %g switches to an exponent
	const head = "hotlprof v1\nname x\nrate 1\nn 9 m 2\n"
	f.Add(head + "reuse 3\n5 1\n2 2\n7 1\nfirst 1\n1 2\nlast 1\n1 2\n")           // unsorted
	f.Add(head + "reuse 3\n2 1\n5 1\n2 3\nfirst 2\n1 1\n1 1\nlast 1\n1 2\n")      // duplicates
	f.Add(strings.ReplaceAll(good, "\n", "\r\n"))                                 // CRLF
	f.Add(strings.ReplaceAll(good, " ", "\t"))                                    // tabs
	f.Add(head + "reuse 2\n0x2 0o1\n010 +1\nfirst 1\n1_0 0b10\nlast 1\n0X1 2\n")  // spellings (n=9 rejects 1_0)
	f.Add(head + "reuse 2\n0x2 0o1\n010 +1\nfirst 1\n+1 0b10\nlast 1\n0X1 0_2\n") // spellings
	f.Add(head + "reuse 1\n010 1\nfirst 1\n1 2\nlast 1\n1 2\n")                   // octal on the fast-path line shape
	f.Add(head + "reuse 1\n3+4\nfirst 1\n1 2\nlast 1\n1 2\n")                     // glued numbers
	f.Add(head + "reuse 1\n3\u00a04\nfirst 1\n1\u20032\nlast 1\n1 2\u3000")       // Unicode spaces

	f.Fuzz(func(t *testing.T, data string) {
		p, err := Read(strings.NewReader(data))
		ref, spaced, refErr := readReference(strings.NewReader(data))
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("Read accepted what the reference rejects (%v)", refErr)
		case err == nil && !reflect.DeepEqual(p, ref):
			t.Fatalf("Read and the reference disagree:\n%+v\n%+v", p, ref)
		case err != nil && refErr == nil && spaced:
			t.Fatalf("Read rejected a white-space-separated input the reference accepts: %v", err)
		case err != nil && refErr == nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("glued-number input: error %v does not wrap ErrCorrupt", err)
			}
			return
		case err != nil:
			if errors.Is(err, ErrCorrupt) != errors.Is(refErr, ErrCorrupt) {
				t.Fatalf("error class differs from the reference: %v vs %v", err, refErr)
			}
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Read accepted a profile Validate rejects: %v", verr)
		}
		var out, refOut strings.Builder
		if err := Write(&out, p); err != nil {
			t.Fatalf("cannot re-serialize an accepted profile: %v", err)
		}
		if err := writeReference(&refOut, p); err != nil {
			t.Fatalf("reference writer failed: %v", err)
		}
		if out.String() != refOut.String() {
			t.Fatalf("Write differs from the reference writer:\n%q\n%q", out.String(), refOut.String())
		}
		q, err := Read(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("round trip changed the profile: %+v vs %+v", q, p)
		}
	})
}
