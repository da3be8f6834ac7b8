// Package trace provides synthetic memory-access traces and trace
// combinators.
//
// The paper's evaluation profiles SPEC CPU2006 executions; those traces are
// proprietary, so this package supplies deterministic synthetic equivalents
// built from the access patterns the locality literature models: streaming
// (no reuse), cyclic loops (LRU-hostile reuse), sawtooth sweeps
// (LRU-friendly reuse), Zipfian hot/cold mixes, and phased working sets.
// A trace is a sequence of abstract datum IDs; one datum corresponds to one
// cache block.
package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Trace is a sequence of accesses to abstract data identified by uint32 IDs.
type Trace []uint32

// DistinctData returns the number of distinct datum IDs in the trace.
func (t Trace) DistinctData() int {
	seen := make(map[uint32]struct{}, 1024)
	for _, d := range t {
		seen[d] = struct{}{}
	}
	return len(seen)
}

// ToBlocks maps a word-granularity trace onto cache blocks of
// wordsPerBlock words each (integer division of IDs): the line-size knob. Larger
// blocks exploit spatial locality — sequential word streams collapse into
// few block accesses — at the cost of capacity in blocks. It panics for
// wordsPerBlock < 1.
func (t Trace) ToBlocks(wordsPerBlock uint32) Trace {
	if wordsPerBlock < 1 {
		panic("trace: wordsPerBlock must be at least 1")
	}
	out := make(Trace, len(t))
	for i, d := range t {
		out[i] = d / wordsPerBlock
	}
	return out
}

// Offset returns a copy of the trace with every datum ID shifted by base.
// It is used to give co-run programs disjoint data spaces.
func (t Trace) Offset(base uint32) Trace {
	out := make(Trace, len(t))
	for i, d := range t {
		out[i] = d + base
	}
	return out
}

// A Generator produces an endless stream of datum IDs. Generators are not
// safe for concurrent use.
type Generator interface {
	// Next returns the next datum ID in the stream.
	Next() uint32
	// MaxData returns an upper bound (exclusive) on the IDs the generator
	// can emit, i.e. the size of its data space in blocks. Streaming
	// generators with unbounded data return the bound implied by the
	// number of accesses generated so far plus one step.
	MaxData() uint32
}

// Generate draws n accesses from g.
func Generate(g Generator, n int) Trace {
	t := make(Trace, n)
	Fill(g, t)
	return t
}

// Fill overwrites t with the next len(t) accesses of g. Generate is
// Fill into a new trace; a caller consuming a long stream chunk by chunk
// fills one reused buffer instead.
func Fill(g Generator, t []uint32) {
	if m, ok := g.(*DeterministicMix); ok {
		m.fill(t)
		return
	}
	for i := range t {
		t[i] = g.Next()
	}
}

// Streaming emits fresh data forever: datum IDs increase by one every
// Repeat accesses. Repeat models spatial locality within a block (a block
// of B words streamed word-by-word is accessed B times in a row at block
// granularity). A streaming program's footprint grows linearly with window
// length and its LRU miss ratio is 1/Repeat at every cache size.
type Streaming struct {
	Repeat int // accesses per block; values < 1 are treated as 1
	pos    uint32
	cnt    int
}

// NewStreaming returns a streaming generator with the given per-block
// repeat count.
func NewStreaming(repeat int) *Streaming {
	if repeat < 1 {
		repeat = 1
	}
	return &Streaming{Repeat: repeat}
}

// Next implements Generator.
func (s *Streaming) Next() uint32 {
	d := s.pos
	s.cnt++
	if s.cnt >= s.Repeat {
		s.cnt = 0
		s.pos++
	}
	return d
}

// MaxData implements Generator.
func (s *Streaming) MaxData() uint32 { return s.pos + 1 }

// Loop sweeps cyclically over Size blocks: 0,1,...,Size-1,0,1,... Every
// reuse has stack distance Size, so an LRU cache smaller than Size misses
// on every access while a cache of at least Size blocks hits on every
// access after the first sweep. This is the canonical non-convex
// "working-set cliff" pattern that breaks the STTW convexity assumption.
type Loop struct {
	Size   uint32
	Repeat int
	pos    uint32
	cnt    int
}

// NewLoop returns a cyclic generator over size blocks, touching each block
// repeat times per visit.
func NewLoop(size uint32, repeat int) *Loop {
	if size < 1 {
		size = 1
	}
	if repeat < 1 {
		repeat = 1
	}
	return &Loop{Size: size, Repeat: repeat}
}

// Next implements Generator.
func (l *Loop) Next() uint32 {
	d := l.pos
	l.cnt++
	if l.cnt >= l.Repeat {
		l.cnt = 0
		l.pos++
		if l.pos >= l.Size {
			l.pos = 0
		}
	}
	return d
}

// MaxData implements Generator.
func (l *Loop) MaxData() uint32 { return l.Size }

// Sawtooth sweeps forward then backward over Size blocks
// (0..Size-1..0..). Unlike Loop, reuse distances span 1..Size, producing a
// smooth, convex miss-ratio curve under LRU.
type Sawtooth struct {
	Size uint32
	pos  uint32
	dir  int32
}

// NewSawtooth returns a forward-backward sweep generator over size blocks.
func NewSawtooth(size uint32) *Sawtooth {
	if size < 1 {
		size = 1
	}
	return &Sawtooth{Size: size, dir: 1}
}

// Next implements Generator.
func (s *Sawtooth) Next() uint32 {
	d := s.pos
	if s.Size == 1 {
		return d
	}
	next := int64(s.pos) + int64(s.dir)
	if next >= int64(s.Size) {
		s.dir = -1
		next = int64(s.Size) - 2
	} else if next < 0 {
		s.dir = 1
		next = 1
	}
	s.pos = uint32(next)
	return d
}

// MaxData implements Generator.
func (s *Sawtooth) MaxData() uint32 { return s.Size }

// Zipf draws from a Zipfian distribution over Size blocks with exponent
// Theta (0 < Theta). Rank-1 data are hottest. Zipf access produces smooth
// concave footprint growth: a small cache captures most hits, with a long
// diminishing-returns tail.
type Zipf struct {
	Size  uint32
	Theta float64
	rng   *rand.Rand
	cdf   []float64
}

// NewZipf returns a Zipfian generator over size blocks with the given
// exponent, seeded deterministically.
func NewZipf(size uint32, theta float64, seed uint64) *Zipf {
	if size < 1 {
		size = 1
	}
	z := &Zipf{
		Size:  size,
		Theta: theta,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
	z.cdf = make([]float64, size)
	var sum float64
	for i := uint32(0); i < size; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Next implements Generator. It draws by binary search on the CDF.
func (z *Zipf) Next() uint32 {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// MaxData implements Generator.
func (z *Zipf) MaxData() uint32 { return z.Size }

// Phased alternates among a list of sub-generators, running each for its
// configured phase length before moving to the next, cyclically. It models
// programs whose working set changes over time (Figure 1 of the paper).
type Phased struct {
	Phases []Phase
	idx    int
	left   int
}

// Phase is one phase of a Phased generator.
type Phase struct {
	Gen Generator
	Len int // number of accesses in this phase per cycle
}

// NewPhased returns a generator cycling through the given phases. It panics
// if phases is empty or any phase has a non-positive length.
func NewPhased(phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("trace: NewPhased needs at least one phase")
	}
	for i, p := range phases {
		if p.Len <= 0 {
			panic(fmt.Sprintf("trace: phase %d has non-positive length %d", i, p.Len))
		}
		if p.Gen == nil {
			panic(fmt.Sprintf("trace: phase %d has nil generator", i))
		}
	}
	return &Phased{Phases: phases, left: phases[0].Len}
}

// Next implements Generator.
func (p *Phased) Next() uint32 {
	if p.left == 0 {
		p.idx = (p.idx + 1) % len(p.Phases)
		p.left = p.Phases[p.idx].Len
	}
	p.left--
	return p.Phases[p.idx].Gen.Next()
}

// MaxData implements Generator.
func (p *Phased) MaxData() uint32 {
	var max uint32
	for _, ph := range p.Phases {
		if m := ph.Gen.MaxData(); m > max {
			max = m
		}
	}
	return max
}

// Mixture interleaves sub-generators probabilistically: each access is
// drawn from component i with probability Weights[i]/sum(Weights). The
// components must use disjoint data spaces if the mixture is meant to model
// independent regions; use Region to shift a component's IDs.
type Mixture struct {
	Gens    []Generator
	Weights []float64
	rng     *rand.Rand
	cum     []float64
}

// NewMixture returns a seeded probabilistic mixture of generators. It
// panics on mismatched lengths, empty input, or non-positive total weight.
func NewMixture(seed uint64, gens []Generator, weights []float64) *Mixture {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic(fmt.Sprintf("trace: mixture needs matching non-empty gens/weights, got %d/%d", len(gens), len(weights)))
	}
	m := &Mixture{
		Gens:    gens,
		Weights: weights,
		rng:     rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)),
		cum:     make([]float64, len(weights)),
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("trace: negative mixture weight %v", w))
		}
		sum += w
		m.cum[i] = sum
	}
	if sum <= 0 {
		panic("trace: mixture weights sum to zero")
	}
	for i := range m.cum {
		m.cum[i] /= sum
	}
	return m
}

// Next implements Generator.
func (m *Mixture) Next() uint32 {
	u := m.rng.Float64()
	for i, c := range m.cum {
		if u <= c {
			return m.Gens[i].Next()
		}
	}
	return m.Gens[len(m.Gens)-1].Next()
}

// MaxData implements Generator.
func (m *Mixture) MaxData() uint32 {
	var max uint32
	for _, g := range m.Gens {
		if v := g.MaxData(); v > max {
			max = v
		}
	}
	return max
}

// DeterministicMix interleaves sub-generators deterministically in
// proportion to their weights using a largest-deficit scheduler: at every
// step the component whose emitted share lags its weight the most goes
// next, the lowest index winning ties. Unlike Mixture, the gap between
// consecutive accesses of a component is (nearly) constant, so a cyclic
// component's reuse times are sharply concentrated — producing the crisp
// working-set cliffs of real loop nests rather than randomly smeared ones.
type DeterministicMix struct {
	comps []mixComponent
	step  float64
}

// mixComponent is one DeterministicMix component. fill calls the
// generator types the workloads mix through typed pointers rather than
// the Generator interface: the Region wrappers around a component are
// peeled into base (uint32 addition wraps, so a chain of Regions is one
// offset), and the Sawtooth, Loop and Streaming cores get a direct call.
type mixComponent struct {
	weight  float64
	emitted float64
	core    Generator // the component with its Regions peeled
	base    uint32
	saw     *Sawtooth
	loop    *Loop
	stream  *Streaming
}

// NewDeterministicMix returns a deterministic proportional mixture. It
// panics on mismatched lengths, empty input, negative weights, or a
// non-positive total weight.
func NewDeterministicMix(gens []Generator, weights []float64) *DeterministicMix {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic(fmt.Sprintf("trace: mix needs matching non-empty gens/weights, got %d/%d", len(gens), len(weights)))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("trace: negative mix weight %v", w))
		}
		sum += w
	}
	if sum <= 0 {
		panic("trace: mix weights sum to zero")
	}
	m := &DeterministicMix{comps: make([]mixComponent, len(gens))}
	for i, g := range gens {
		c := mixComponent{weight: weights[i] / sum, core: g}
		for {
			r, ok := c.core.(Region)
			if !ok {
				break
			}
			c.core, c.base = r.Gen, c.base+r.Base
		}
		switch core := c.core.(type) {
		case *Sawtooth:
			c.saw = core
		case *Loop:
			c.loop = core
		case *Streaming:
			c.stream = core
		}
		m.comps[i] = c
	}
	return m
}

// Next implements Generator.
func (m *DeterministicMix) Next() uint32 {
	var d [1]uint32
	m.fill(d[:])
	return d[0]
}

// fill writes the next len(t) accesses to t. It is the mix's one
// scheduling loop: Next is fill of one access, and Fill hands it whole
// chunks, so the step count stays in a register across a chunk.
func (m *DeterministicMix) fill(t []uint32) {
	step, comps := m.step, m.comps
	for j := range t {
		step++
		best, bestDef := 0, comps[0].weight*step-comps[0].emitted
		for i := 1; i < len(comps); i++ {
			if def := comps[i].weight*step - comps[i].emitted; def > bestDef {
				best, bestDef = i, def
			}
		}
		c := &comps[best]
		c.emitted++
		switch {
		case c.saw != nil:
			t[j] = c.saw.Next() + c.base
		case c.loop != nil:
			t[j] = c.loop.Next() + c.base
		case c.stream != nil:
			t[j] = c.stream.Next() + c.base
		default:
			t[j] = c.core.Next() + c.base
		}
	}
	m.step = step
}

// MaxData implements Generator.
func (m *DeterministicMix) MaxData() uint32 {
	var max uint32
	for _, c := range m.comps {
		if v := c.core.MaxData() + c.base; v > max {
			max = v
		}
	}
	return max
}

// Region shifts a generator's datum IDs by Base, giving it a private data
// space.
type Region struct {
	Gen  Generator
	Base uint32
}

// Next implements Generator.
func (r Region) Next() uint32 { return r.Gen.Next() + r.Base }

// MaxData implements Generator.
func (r Region) MaxData() uint32 { return r.Gen.MaxData() + r.Base }
