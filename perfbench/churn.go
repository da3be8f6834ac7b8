package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/service"
)

// The churn workload: tenant replacements beside reads of the served
// plan. Each write PUTs a seeded profile over a seeded tenant with a
// known traceparent, then long-polls the change feed on the same
// connection until the epoch whose provenance carries that trace ID
// arrives — the write is applied when the new plan is published. A
// closed loop of writes measures how many the daemon applies per second;
// then an open loop reads the plan on one connection while writes
// continue on the other, and the reads' latency is measured.
const (
	churnClosedWrites = 32    // writes applied back to back: two rounds
	churnOpenWrites   = 16    // writes spread over the open-loop phase: one round
	churnOpenShare    = 0.75  // share of the measured time in the open-loop phase
	churnReadRate     = 200.0 // reads per second in the open-loop phase
	churnPollMS       = 2000  // long-poll wait per /v1/plan/changes request
	churnEpochWait    = 30 * time.Second
)

// A churnWrite replaces tenant position Pos with profile Prof.
type churnWrite struct {
	Pos, Prof   int
	TraceID     string
	Traceparent string
}

// makeChurnWrites draws n writes from the seed in rounds of 16: each
// round replaces every tenant position once and uploads every profile
// once, each in a seeded order, so every run's writes carry the same mix
// of body sizes and warm-start positions.
func makeChurnWrites(o options, tenants, n int) []churnWrite {
	rng := o.rng(4)
	out := make([]churnWrite, 0, n)
	for len(out) < n {
		pos, prof := rng.Perm(tenants), rng.Perm(tenants)
		for k := 0; k < tenants && len(out) < n; k++ {
			var tid [16]byte
			var sid [8]byte
			for i := range tid {
				tid[i] = byte(rng.UintN(256))
			}
			for i := range sid {
				sid[i] = byte(rng.UintN(256))
			}
			tid[0] |= 1 // never the all-zero (invalid) trace ID
			sid[0] |= 1
			t := hex.EncodeToString(tid[:])
			out = append(out, churnWrite{Pos: pos[k], Prof: prof[k], TraceID: t,
				Traceparent: "00-" + t + "-" + hex.EncodeToString(sid[:]) + "-01"})
		}
	}
	return out
}

// feedPoller follows /v1/plan/changes on a connection, checking that
// epochs strictly increase and that no gap marker appears.
type feedPoller struct {
	c          *conn
	last       int64
	events     []service.EpochRecord
	gaps       int
	violations int
}

type changesResponse struct {
	LastEpoch int64                 `json:"last_epoch"`
	Gap       bool                  `json:"gap"`
	Events    []service.EpochRecord `json:"events"`
}

// waitFor long-polls until an epoch whose provenance trace ID is traceID
// arrives, returning false when none does within churnEpochWait or ctx
// ends first.
func (f *feedPoller) waitFor(ctx context.Context, traceID string) bool {
	deadline := time.Now().Add(churnEpochWait)
	for time.Now().Before(deadline) {
		var resp changesResponse
		path := fmt.Sprintf("/v1/plan/changes?since_epoch=%d&wait_ms=%d", f.last, churnPollMS)
		if err := f.c.getJSON(ctx, path, &resp); err != nil {
			return false
		}
		if resp.Gap {
			f.gaps++
		}
		found := false
		for _, ev := range resp.Events {
			if ev.Provenance.Epoch <= f.last {
				f.violations++
			}
			f.last = ev.Provenance.Epoch
			f.events = append(f.events, ev)
			found = found || ev.Provenance.TraceID == traceID
		}
		if found {
			return true
		}
	}
	return false
}

// churnModel is the benchmark's own record of which profile each tenant
// position holds.
type churnModel struct {
	names []string
	prof  []int
}

// A writeRec is one write's timing: request to response, then response
// to the arrival of its epoch.
type writeRec struct {
	k          int // index into the write list
	put, epoch time.Duration
	ok         bool
}

// churnRunner holds what the churn phases share: the daemon, the model,
// the seeded writes and the next one to send, and the two connections —
// reads on one, writes and the feed poller on the other.
type churnRunner struct {
	su        daemonSetupResult
	model     *churnModel
	writes    []churnWrite
	next      int
	readConn  *conn
	poller    *feedPoller
	lastEpoch int64 // newest epoch a read has seen
}

// write sends the next write and waits for its epoch.
func (r *churnRunner) write(ctx context.Context, rec *recorder, parent int64) writeRec {
	k := r.next
	r.next++
	wr := r.writes[k]
	out := writeRec{k: k}
	sp := rec.start(parent, "service.http.put")
	t := time.Now()
	status, _, err := r.poller.c.do(ctx, http.MethodPut, "/v1/tenants/"+r.model.names[wr.Pos],
		r.su.profs[wr.Prof].Body, wr.Traceparent)
	out.put = time.Since(t)
	sp.end()
	if err != nil || status != http.StatusOK {
		return out
	}
	r.model.prof[wr.Pos] = wr.Prof
	ep := rec.start(parent, "service.epoch")
	t = time.Now()
	out.ok = r.poller.waitFor(ctx, wr.TraceID)
	out.epoch = time.Since(t)
	ep.end()
	return out
}

// planRead is the part of a served plan a read checks.
type planRead struct {
	Epoch    int64    `json:"epoch"`
	Tenants  []string `json:"tenants"`
	Degraded bool     `json:"degraded"`
}

// read fetches the served plan and checks it covers every tenant, is not
// degraded, and is no older than the last one read.
func (r *churnRunner) read(ctx context.Context) bool {
	status, body, err := r.readConn.do(ctx, http.MethodGet, "/v1/plan", nil, "")
	if err != nil || status != http.StatusOK {
		return false
	}
	var p planRead
	if json.Unmarshal(body, &p) != nil || p.Degraded || len(p.Tenants) != len(r.model.names) || p.Epoch < r.lastEpoch {
		return false
	}
	r.lastEpoch = p.Epoch
	return true
}

// churnPhase is one measurement of the churn workload.
type churnPhase struct {
	closed         []writeRec
	closedElapsed  time.Duration
	open           []writeRec
	openSamples    []sample
	reads          []sample
	readRTT        []time.Duration
	rtStart, rtEnd runtimeSnap
}

// writesPerS returns the closed loop's applied writes per second. It is a
// total over whole rounds, so it does not depend on which profile the
// seed pairs with which tenant position; a per-write median does, and
// varied more between seeds.
func (p churnPhase) writesPerS() float64 {
	n := 0
	for _, w := range p.closed {
		if w.ok {
			n++
		}
	}
	return float64(n) / p.closedElapsed.Seconds()
}

func (p churnPhase) writeRecs() []writeRec { return append(slices.Clone(p.closed), p.open...) }

func (p churnPhase) ops() int64 { return int64(len(p.closed) + len(p.open) + len(p.reads)) }

func (p churnPhase) failures() int64 {
	var n int64
	for _, w := range p.writeRecs() {
		if !w.ok {
			n++
		}
	}
	for _, s := range p.reads {
		if !s.OK {
			n++
		}
	}
	return n
}

// applyLatencies returns each successful write's time until its epoch
// arrived: from the send in the closed loop, from the due time in the
// open loop.
func (p churnPhase) applyLatencies() []float64 {
	var out []float64
	for _, w := range p.closed {
		if w.ok {
			out = append(out, ms(w.put+w.epoch))
		}
	}
	for _, s := range p.openSamples {
		if s.OK {
			out = append(out, ms(s.Latency))
		}
	}
	return out
}

func (p churnPhase) readLatencies() []float64 {
	var out []float64
	for _, s := range p.reads {
		if s.OK {
			out = append(out, ms(s.Latency))
		}
	}
	return out
}

// measure runs one churn phase: churnClosedWrites writes back to back,
// then dur·churnOpenShare of open-loop reads beside churnOpenWrites
// evenly spaced writes.
func (r *churnRunner) measure(ctx context.Context, o options, dur time.Duration, stream uint64, rec *recorder) churnPhase {
	closedLoop(ctx, planWarmup, 1, func(int) bool { return r.read(ctx) })
	var ph churnPhase
	ph.rtStart = readRuntime()
	t := time.Now()
	for i := 0; i < churnClosedWrites; i++ {
		root := rec.start(0, "loadgen.write")
		ph.closed = append(ph.closed, r.write(ctx, rec, root.ID()))
		root.end()
	}
	ph.closedElapsed = time.Since(t)

	open := time.Duration(churnOpenShare * float64(dur))
	readSched := poissonSchedule(o.rng(stream), churnReadRate, open, 1)
	ph.readRTT = make([]time.Duration, len(readSched))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.reads = openLoop(ctx, start, readSched, 1, func(_, i int, _ arrival, due time.Time) bool {
			root := rec.startAt(0, "loadgen.request", due)
			sp := rec.start(root.ID(), "service.http.read")
			t := time.Now()
			ok := r.read(ctx)
			ph.readRTT[i] = time.Since(t)
			sp.end()
			root.end()
			return ok
		})
	}()
	ph.openSamples = openLoop(ctx, start, uniformSchedule(churnOpenWrites, open), 1,
		func(_, _ int, _ arrival, due time.Time) bool {
			root := rec.startAt(0, "loadgen.request", due)
			w := r.write(ctx, rec, root.ID())
			root.end()
			ph.open = append(ph.open, w)
			return w.ok
		})
	wg.Wait()
	ph.rtEnd = readRuntime()
	return ph
}

func runChurn(ctx context.Context, o options) (outcome, error) {
	var out outcome
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	su, setupS, err := setupDaemonWorkload(ctx, o, rec)
	if err != nil {
		return out, err
	}
	defer su.d.stop()
	model := &churnModel{}
	for i, p := range su.profs {
		model.names = append(model.names, p.Name)
		model.prof = append(model.prof, i)
	}
	// Each profile's curve as the daemon derived it at registration, for
	// the model check and the epoch replay.
	profCurves := make([]mrc.Curve, len(su.profs))
	for i, p := range su.profs {
		if profCurves[i], err = su.d.svc.CurveFor(p.Name, 0); err != nil {
			return out, err
		}
	}
	readConn, writeConn := newConn(su.d.base), newConn(su.d.base)
	defer readConn.close()
	defer writeConn.close()
	r := &churnRunner{su: su, model: model, readConn: readConn,
		writes: makeChurnWrites(o, len(su.profs), 2*(churnClosedWrites+churnOpenWrites)),
		poller: &feedPoller{c: writeConn, last: su.d.svc.Audit().LastEpoch()}}

	dur := o.measured()
	var ph churnPhase
	var overhead float64
	var startProf []int
	if !o.trace {
		rss := startRSS()
		ph = r.measure(ctx, o, dur, 5, nil)
		out.set("maxrss_mb", rss.peakMB())
	} else {
		a := r.measure(ctx, o, dur/2, 5, nil)
		out.attempted += a.ops()
		out.failed += a.failures()
		startProf = slices.Clone(model.prof)
		tracer := obs.NewTracer(1<<20, nil)
		obs.EnableTracer(tracer)
		ph = r.measure(ctx, o, dur/2, 6, rec)
		obs.EnableTracer(nil)
		overhead = (a.writesPerS()/ph.writesPerS() - 1) * 100
	}
	out.attempted += ph.ops()
	out.failed += ph.failures()

	// Output checks, outside the timed window.
	poller := r.poller
	out.check(poller.violations == 0, "feed epochs did not strictly increase (%d violations)", poller.violations)
	out.check(poller.gaps == 0, "feed reported %d gaps", poller.gaps)
	var final service.Plan
	if err := writeConn.getJSON(ctx, "/v1/plan", &final); err != nil {
		out.fail(1, "final plan: %v", err)
	} else {
		out.check(slices.Equal(final.Tenants, model.names), "final plan tenants %v", final.Tenants)
		err := checkAgainstReference(su.d.svc, final)
		out.check(err == nil, "final plan: %v", err)
	}
	for pos, name := range model.names {
		c, err := su.d.svc.CurveFor(name, 0)
		want := profCurves[model.prof[pos]]
		out.check(err == nil && c.Accesses == want.Accesses && slices.Equal(c.MR, want.MR),
			"tenant %s does not hold profile %s", name, su.profs[model.prof[pos]].Name)
	}

	if !o.trace {
		lat := summarize(ph.applyLatencies())
		fmt.Fprintf(os.Stderr, "churn: %d writes in %.2fs, %.2f/s; apply %s; %d reads beside %d writes, read %s\n",
			len(ph.closed), ph.closedElapsed.Seconds(), ph.writesPerS(), lat.ladder(),
			len(ph.reads), len(ph.open), summarize(ph.readLatencies()).ladder())
		out.set("setup_s", setupS)
		out.set("ops_per_s", ph.writesPerS())
		out.set("p50_ms", lat.P50)
		return out, nil
	}

	out.set("obs.trace_overhead_pct", overhead)
	runtimeDelta(&out, ph.rtStart, ph.rtEnd, ph.ops())
	out.set("loadgen.latency_ms.p99", summarize(ph.readLatencies()).at(99))
	lag, late := lagStats(append(slices.Clone(ph.reads), ph.openSamples...))
	out.set("loadgen.lag_ms.p99", lag)
	out.set("loadgen.late_frac", late)
	out.set("service.feed.gaps", float64(poller.gaps))
	out.set("service.store.compactions", float64(obs.Enabled().Counter("service.store.compactions").Value()))
	setProfilingLayers(&out, rec.snapshot())

	var readUS []float64
	for i, s := range ph.reads {
		if s.OK {
			readUS = append(readUS, us(ph.readRTT[i]))
		}
	}
	reads := summarize(readUS)
	out.set("service.http.read_us.p50", reads.P50)
	out.set("service.http.read_us.p99", reads.at(99))
	var putMS, epochMS, applyMS []float64
	var phaseWrites []churnWrite
	for _, w := range ph.writeRecs() {
		phaseWrites = append(phaseWrites, r.writes[w.k])
		if w.ok {
			putMS = append(putMS, ms(w.put))
			epochMS = append(epochMS, ms(w.epoch))
			applyMS = append(applyMS, ms(w.put+w.epoch))
		}
	}
	put, epoch := summarize(putMS), summarize(epochMS)
	out.set("service.http.put_ms.p50", put.P50)
	out.set("service.http.put_ms.p90", put.at(90))
	out.set("service.epoch_ms.p50", epoch.P50)
	out.set("service.epoch_ms.p90", epoch.at(90))

	// Layer pass: the traced phase's writes and epochs, replayed
	// in-process through each layer's public functions.
	var phaseEvents []service.EpochRecord
	for _, ev := range poller.events {
		if ev.Provenance.TraceID != "" && slices.ContainsFunc(phaseWrites, func(w churnWrite) bool {
			return w.TraceID == ev.Provenance.TraceID
		}) {
			phaseEvents = append(phaseEvents, ev)
		}
	}
	lw := churnLayerWork{su: su, model: model, profCurves: profCurves, startProf: startProf,
		writes: phaseWrites, events: phaseEvents, scratch: filepath.Join(o.data, "layers")}
	if err := lw.run(ctx, &out, rec); err != nil {
		return out, err
	}
	sp := selfTimes(rec.snapshot())
	var layerSum float64
	for _, n := range []string{"profileio.read", "mrc.derive", "service.store.put", "partition.incremental",
		"service.provenance.digest", "service.diff", "service.audit.append", "service.feed.publish", "service.http.encode"} {
		layerSum += mean(durationsMS(sp[n]))
	}
	out.set("trace.coverage", layerSum/mean(applyMS))
	return out, writeSpansFile(o, "churn", rec)
}

// churnLayerWork replays one phase's writes through each layer on the
// write path: profile decode, curve derivation, the store append, the
// warm-started and cold epoch solves, the provenance digest, the plan
// diff, the audit append and the feed publish.
type churnLayerWork struct {
	su         daemonSetupResult
	model      *churnModel
	profCurves []mrc.Curve
	startProf  []int
	writes     []churnWrite
	events     []service.EpochRecord
	scratch    string
}

func (lw churnLayerWork) run(ctx context.Context, out *outcome, rec *recorder) error {
	cfg := lw.su.d.svc.Config()
	store, err := service.OpenStore(filepath.Join(lw.scratch, "store"), 0)
	if err != nil {
		return err
	}
	defer store.Close()
	audit, err := service.OpenAuditLog(filepath.Join(lw.scratch, "audit"), 0, 0)
	if err != nil {
		return err
	}
	defer audit.Close()
	feed := service.NewChangeFeed(0)
	sub := feed.Subscribe()
	defer feed.Close()
	defer sub.Close()

	names := lw.model.names
	curveAt := func(pos, prof int) mrc.Curve {
		c := lw.profCurves[prof]
		c.Name = names[pos]
		return c
	}
	prof := slices.Clone(lw.startProf)
	curves := make([]mrc.Curve, len(names))
	for pos := range names {
		curves[pos] = curveAt(pos, prof[pos])
	}
	inc := partition.NewIncremental(cfg.Units)
	if _, err := inc.Rebase(ctx, curves); err != nil {
		return err
	}
	var reused []float64
	var prev *service.Plan
	var kb float64
	for _, wr := range lw.writes {
		body := lw.su.profs[wr.Prof].Body
		kb += float64(len(body)) / 1024
		var p profileio.Profile
		rec.timed(0, "profileio.read", func() { p, err = profileio.Read(bytes.NewReader(body)) })
		if err != nil {
			return err
		}
		rec.timed(0, "mrc.derive", func() {
			mrc.FromFootprint(names[wr.Pos], p.Footprint(), cfg.Units, cfg.BlocksPerUnit, p.Rate)
		})
		rec.timed(0, "service.store.put", func() { err = store.Put(names[wr.Pos], p) })
		if err != nil {
			return err
		}

		curves[wr.Pos] = curveAt(wr.Pos, wr.Prof)
		var sol partition.Solution
		var n int
		rec.timed(0, "partition.incremental", func() {
			if n, err = inc.Rebase(ctx, curves); err == nil {
				sol, err = inc.Solve()
			}
		})
		if err != nil {
			return err
		}
		reused = append(reused, float64(n))
		pr := partition.Problem{Curves: curves, Units: cfg.Units}
		rec.timed(0, "partition.cold16", func() { _, err = partition.OptimizeParallel(ctx, pr, 1) })
		if err != nil {
			return err
		}
		rec.timed(0, "service.provenance.digest", func() { service.InputDigest(names, curves, cfg.Units) })
		next := &service.Plan{Tenants: names, Units: cfg.Units, Alloc: sol.Alloc, Objective: sol.Objective,
			GroupMissRatio: sol.GroupMissRatio, MissRatios: sol.MissRatios, SolverPath: sol.SolverPath}
		rec.timed(0, "service.diff", func() { service.ComputePlanDiff(prev, next) })
		rec.timed(0, "service.http.encode", func() { encodePlan(*next) })
		prev = next
	}
	for _, ev := range lw.events {
		rec.timed(0, "service.audit.append", func() { err = audit.Append(ev) })
		if err != nil {
			return err
		}
		rec.timed(0, "service.feed.publish", func() { feed.Publish(ev) })
	}

	sp := selfTimes(rec.snapshot())
	read := summarize(durationsMS(sp["profileio.read"]))
	out.set("profileio.read_ms.p50", read.P50)
	out.set("profileio.read_ms.p90", read.at(90))
	if len(lw.writes) > 0 {
		out.set("profileio.body_kb.mean", kb/float64(len(lw.writes)))
	}
	out.set("mrc.derive_ms.p50", median(durationsMS(sp["mrc.derive"])))
	put := summarize(durationsMS(sp["service.store.put"]))
	out.set("service.store.put_ms.p50", put.P50)
	out.set("service.store.put_ms.p90", put.at(90))
	incr := summarize(durationsMS(sp["partition.incremental"]))
	out.set("partition.incremental_ms.p50", incr.P50)
	out.set("partition.incremental_ms.p90", incr.at(90))
	out.set("partition.reused_layers.mean", mean(reused))
	out.set("partition.cold16_ms.p50", median(durationsMS(sp["partition.cold16"])))
	out.set("service.provenance.digest_us.p50", median(durationsUS(sp["service.provenance.digest"])))
	out.set("service.diff_us.p50", median(durationsUS(sp["service.diff"])))
	out.set("service.http.encode_us.p50", median(durationsUS(sp["service.http.encode"])))
	appendMS := summarize(durationsMS(sp["service.audit.append"]))
	out.set("service.audit.append_ms.p50", appendMS.P50)
	out.set("service.audit.append_ms.p90", appendMS.at(90))
	out.set("service.feed.publish_us.p50", median(durationsUS(sp["service.feed.publish"])))
	return nil
}
