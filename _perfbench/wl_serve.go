package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"syscall"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/libm"
	"repro/internal/oracle"
	"repro/internal/serve"
)

// The serve workload: an in-process serve.New server with the builtin
// tables on loopback, driven by an open-loop seeded Poisson client over
// one HTTP/JSON connection and one bulk connection. Each request draws
// its function, format and mode uniformly; 90% are HTTP requests of 1–64
// inputs, 10% bulk frames of 4096 inputs. The untraced run sends the mix
// through Server.Evaluate as one closed-loop stream for the end-to-end
// metrics. The traced run drives both connections: an open-loop reference
// rung at a fixed light rate, timed from each request's due time, then a
// ladder of rising rates up to the highest rate whose p99 stays within the
// latency limit without a growing backlog; rungs where the generator could
// not keep its schedule are marked invalid and never count as passing.
const (
	serveQueue        = 64
	serveHTTPShare    = 0.9
	serveMaxBatch     = 64
	serveBulkBatch    = 4096
	serveHTTPTmpls    = 17 * 30 // 17 per (function, format) pair
	serveBulkTmpls    = 30      // one per (function, format) pair
	serveSetupSamples = 15
	serveSetupBatch   = 4
	serveRefRate      = 1000.0 // requests per second of the reference rung
	serveRefWindow    = time.Second
	serveLimitMS      = 5.0 // latency limit on the p99
	serveStepLength   = 2 * time.Second
	serveStepWindow   = 500 * time.Millisecond
)

// serveLadder is the ladder of offered rates above the reference rung, in
// requests per second.
var serveLadder = []float64{1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000}

// serveTmpl is one request the client can send, with its HTTP body
// encoded up front and the oracle's correct outputs.
type serveTmpl struct {
	req  serve.Request
	body []byte
	want []uint64
}

type serveState struct {
	srv     *serve.Server
	url     string
	bulk    string
	formats []fp.Format
}

// startServer is the workload's set-up: build the server over the builtin
// tables, start both listeners, compile every kernel it serves and wait
// until it reports healthy.
func startServer() (*serveState, error) {
	largest, ok := libm.LargestFormat()
	if !ok {
		return nil, fmt.Errorf("no generated tables in internal/libm")
	}
	srv, err := serve.New(serve.Config{Queue: serveQueue})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	st := &serveState{
		srv:     srv,
		url:     "http://" + srv.HTTPAddr().String(),
		bulk:    srv.BulkAddr().String(),
		formats: []fp.Format{fp.Bfloat16, fp.TensorFloat32, largest},
	}
	ks := srv.KernelSet()
	for _, fn := range bigmath.AllFuncs {
		for _, f := range st.formats {
			for _, m := range fp.StandardModes {
				if _, err := ks.Kernel(fn, f, m); err != nil {
					stopServer(st)
					return nil, err
				}
			}
		}
	}
	resp, err := http.Get(st.url + "/healthz")
	if err != nil {
		stopServer(st)
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stopServer(st)
		return nil, fmt.Errorf("server not healthy: %s", resp.Status)
	}
	return st, nil
}

func stopServer(st *serveState) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
}

// serveTemplates draws the request pool and computes each request's
// correct outputs with the oracle.
func serveTemplates(rng *rand.Rand, formats []fp.Format, workers int) (httpT, bulkT []*serveTmpl, err error) {
	orcs := make([]*oracle.Oracle, bigmath.NumFuncs)
	for _, fn := range bigmath.AllFuncs {
		orcs[fn] = oracle.New(fn)
	}
	// Every (function, format) pair is equally frequent in both pools, so
	// the cost of the mix does not depend on the seed; modes, batch sizes
	// and inputs are drawn.
	draw := func(i, n int) (*serveTmpl, error) {
		pair := i % (len(bigmath.AllFuncs) * len(formats))
		fn := bigmath.AllFuncs[pair/len(formats)]
		f := formats[pair%len(formats)]
		mi := rng.Intn(len(fp.StandardModes))
		m := fp.StandardModes[mi]
		xs := regularInputs(rng, fn, f, n)
		t := &serveTmpl{req: serve.Request{Fn: fn, Out: f, Mode: m, Inputs: make([]uint64, n)}}
		for i, x := range xs {
			t.req.Inputs[i] = f.FromFloat64(x, fp.RoundNearestEven)
		}
		t.want = expected(orcs[fn], f, xs, fp.StandardModes, workers)[mi]
		body, err := json.Marshal(map[string]interface{}{
			"func": fn.String(), "format": f.String(), "mode": m.String(), "inputs": t.req.Inputs,
		})
		t.body = body
		return t, err
	}
	for i := 0; i < serveHTTPTmpls; i++ {
		t, err := draw(i, 1+rng.Intn(serveMaxBatch))
		if err != nil {
			return nil, nil, err
		}
		httpT = append(httpT, t)
	}
	for i := 0; i < serveBulkTmpls; i++ {
		t, err := draw(i, serveBulkBatch)
		if err != nil {
			return nil, nil, err
		}
		bulkT = append(bulkT, t)
	}
	return httpT, bulkT, nil
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // offset from the phase start
	bulk bool
	tmpl *serveTmpl
	id   int64
}

// sample is what the client observed of one arrival.
type sample struct {
	due, sent, done time.Duration // offsets from the phase start
	idle            bool          // the connection was idle at the due time
	bulk            bool
	ok, shed        bool
	tmpl            *serveTmpl
	id              int64
}

// latency is the request's latency timed from when it was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// schedule draws a Poisson arrival process of the given rate over d.
func schedule(rng *rand.Rand, httpT, bulkT []*serveTmpl, rate float64, d time.Duration, nextID *int64) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second)), id: *nextID}
		*nextID++
		if rng.Float64() < serveHTTPShare {
			a.tmpl = httpT[rng.Intn(len(httpT))]
		} else {
			a.bulk = true
			a.tmpl = bulkT[rng.Intn(len(bulkT))]
		}
		out = append(out, a)
	}
}

// client holds the benchmark's two connections.
type client struct {
	http *http.Client
	url  string
	bulk *serve.BulkClient
}

func newClient(st *serveState) (*client, error) {
	bc, err := serve.DialBulk(st.bulk)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: st.url + "/eval", bulk: bc}, nil
}

func (c *client) close() {
	c.bulk.Close()
	c.http.CloseIdleConnections()
}

// send performs one request. The returned check, called once the
// latency has been taken, reports whether the answer was correct and
// whether the request was refused by admission control.
func (c *client) send(a arrival) (check func() (ok, shed bool), err error) {
	if a.bulk {
		outs, err := c.bulk.Eval(a.tmpl.req)
		var be *serve.BulkError
		if errors.As(err, &be) {
			return func() (bool, bool) { return false, be.Code == "serve-overload" }, nil
		}
		if err != nil {
			return nil, err
		}
		return func() (bool, bool) { return equalBits(outs, a.tmpl.want), false }, nil
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(a.tmpl.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return func() (bool, bool) {
		if resp.StatusCode != http.StatusOK {
			return false, resp.StatusCode == http.StatusTooManyRequests
		}
		var r struct {
			Outputs []uint64 `json:"outputs"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return false, false
		}
		return equalBits(r.Outputs, a.tmpl.want), false
	}, nil
}

func equalBits(got, want []uint64) bool {
	return len(got) == len(want) && mismatches(got, want) == 0
}

// runPhase plays one open-loop schedule: each connection sends its
// arrivals in due order, at their due time when it is idle and as soon as
// it is free otherwise. A transport error ends the run.
func runPhase(c *client, tr *tracer, arrivals []arrival) ([]sample, error) {
	samples := make([]sample, len(arrivals))
	var httpIdx, bulkIdx []int
	for i, a := range arrivals {
		if a.bulk {
			bulkIdx = append(bulkIdx, i)
		} else {
			httpIdx = append(httpIdx, i)
		}
	}
	start := time.Now().Add(2 * time.Millisecond)
	errs := make(chan error, 2)
	worker := func(idx []int) {
		for _, i := range idx {
			a := arrivals[i]
			due := start.Add(a.due)
			idle := time.Now().Before(due)
			if idle {
				waitUntil(due)
			}
			name := "serve.http"
			if a.bulk {
				name = "serve.bulk"
			}
			sent := time.Since(start)
			id := tr.begin(name, a.tmpl.req.Fn.String(), -1, a.id)
			check, err := c.send(a)
			done := time.Since(start)
			tr.end(id)
			if err != nil {
				errs <- err
				return
			}
			ok, shed := check()
			samples[i] = sample{due: a.due, sent: sent, done: done, idle: idle, bulk: a.bulk, ok: ok, shed: shed, tmpl: a.tmpl, id: a.id}
		}
		errs <- nil
	}
	go worker(httpIdx)
	go worker(bulkIdx)
	err1, err2 := <-errs, <-errs
	if err1 != nil {
		return nil, err1
	}
	return samples, err2
}

// spinWindow is how far ahead of a due time waitUntil stops sleeping and
// polls the clock instead.
const spinWindow = 80 * time.Microsecond

// waitUntil blocks until t. The Go timer wakes sleepers at millisecond
// granularity on Linux, which would make the generator late by half a
// millisecond on average; a nanosleep system call up to spinWindow before
// t, then polling the clock, keeps it within microseconds of schedule on
// an idle machine.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// phaseStats summarizes the samples of one phase. Latencies are timed
// from the due time, in ms; the tails are medians over the phase's windows
// of each window's tail, so one stalled window does not decide them.
type phaseStats struct {
	n, failed        int
	p50, p99         float64
	httpP99, bulkP99 float64 // pooled tails by request kind
	lateP99          float64 // the generator's tail lateness over idle sends
	backlogMid       int     // requests due and not done at mid-phase
	backlogEnd       int     // … at the end of the phase
	backlogMax       int     // … at the worst moment
}

func summarize(samples []sample, length, window time.Duration) phaseStats {
	st := phaseStats{n: len(samples)}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var lats, hl, bl []float64
	for _, s := range samples {
		if !s.ok {
			st.failed++
		}
		lats = append(lats, ms(s.latency()))
		if s.bulk {
			bl = append(bl, ms(s.latency()))
		} else {
			hl = append(hl, ms(s.latency()))
		}
	}
	st.p50 = median(lats)
	st.httpP99 = tailQuantile(hl)
	st.bulkP99 = tailQuantile(bl)
	var p99s, lates []float64
	for _, w := range windows(samples, window) {
		var wl, late []float64
		for _, s := range w {
			wl = append(wl, ms(s.latency()))
			if s.idle {
				late = append(late, ms(s.sent-s.due))
			}
		}
		p99s = append(p99s, tailQuantile(wl))
		lates = append(lates, tailQuantile(late))
	}
	st.p99 = median(p99s)
	st.lateP99 = median(lates)
	st.backlogMid = backlogAt(samples, length/2)
	st.backlogEnd = backlogAt(samples, length)
	st.backlogMax = maxBacklog(samples)
	return st
}

// maxBacklog is the largest number of requests due and not yet done at
// any moment of the phase.
func maxBacklog(samples []sample) int {
	type event struct {
		t     time.Duration
		delta int
	}
	events := make([]event, 0, 2*len(samples))
	for _, s := range samples {
		events = append(events, event{s.due, 1}, event{s.done, -1})
	}
	// Completions sort before arrivals at the same instant.
	sort.Slice(events, func(i, j int) bool {
		return events[i].t < events[j].t || (events[i].t == events[j].t && events[i].delta < events[j].delta)
	})
	n, peak := 0, 0
	for _, e := range events {
		n += e.delta
		if n > peak {
			peak = n
		}
	}
	return peak
}

// backlogAt counts requests due by t and not done by t.
func backlogAt(samples []sample, t time.Duration) int {
	n := 0
	for _, s := range samples {
		if s.due <= t && s.done > t {
			n++
		}
	}
	return n
}

// windows splits a phase's samples by due time into consecutive windows.
func windows(samples []sample, w time.Duration) [][]sample {
	var out [][]sample
	for _, s := range samples {
		i := int(s.due / w)
		for len(out) <= i {
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// ladderStep is one rung of the rate ladder.
type ladderStep struct {
	rate  float64
	stats phaseStats
	valid bool // the generator kept its schedule
	pass  bool // valid, p99 within the limit, backlog not growing
}

// maxRate interpolates the highest sustainable rate: the last passing
// rung before the first failing one, moved towards that failing rung in
// proportion to where the p99 crosses the limit between them (when the
// failure is a valid p99 failure). It also returns the uninterpolated
// rung rate.
func maxRate(steps []ladderStep) (interp, rung float64) {
	for i, s := range steps {
		if s.pass {
			continue
		}
		if i == 0 {
			return 0, 0
		}
		prev := steps[i-1]
		if !s.valid || s.stats.p99 <= prev.stats.p99 {
			return prev.rate, prev.rate
		}
		f := (serveLimitMS - prev.stats.p99) / (s.stats.p99 - prev.stats.p99)
		return prev.rate + (s.rate-prev.rate)*math.Min(math.Max(f, 0), 1), prev.rate
	}
	last := steps[len(steps)-1].rate
	return last, last
}

func runServe(cfg config) (*outcome, error) {
	setupS, st, err := measureSetup(serveSetupSamples, serveSetupBatch, startServer, stopServer)
	if err != nil {
		return nil, err
	}
	defer stopServer(st)
	rng := rand.New(rand.NewSource(cfg.seed))
	httpT, bulkT, err := serveTemplates(rng, st.formats, cfg.workers)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}

	if cfg.tr == nil {
		// The end-to-end metrics come from the request path in process:
		// over loopback, latency and throughput on the shared machine this
		// benchmark was tuned on drifted between runs by more than any
		// usable bound, so the transport is measured by the traced run.
		lats, rate, samples, err := closedLoop(func(a arrival) (func() (bool, bool), error) { return evaluateInProcess(st, a) },
			rng, httpT, bulkT, cfg.budget)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			out.attempted++
			if !s.ok {
				out.failed++
			}
		}
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["latency_p50_ms"] = median(lats)
		out.metrics["throughput_per_s"] = rate
		out.note("in process: %d requests of the mix, p50 %.4f ms, p99 %.4f ms, %.0f req/s", len(lats), median(lats), tailQuantile(lats), rate)
		return out, nil
	}

	c, err := newClient(st)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var nextID int64
	play := func(tr *tracer, rate float64, d time.Duration) ([]sample, error) {
		samples, err := runPhase(c, tr, schedule(rng, httpT, bulkT, rate, d, &nextID))
		for _, s := range samples {
			out.attempted++
			if !s.ok {
				out.failed++
			}
		}
		return samples, err
	}

	// Warm the connections and the server's buffers before timing.
	if _, err := play(nil, serveRefRate, 200*time.Millisecond); err != nil {
		return nil, err
	}

	// Traced: the reference rung untraced and traced (the difference is
	// the tracing overhead), the ladder traced, then the in-process split
	// of the reference rung's requests.
	refLen := cfg.budget / 5
	ref, err := play(nil, serveRefRate, refLen)
	if err != nil {
		return nil, err
	}
	refStep := judge(serveRefRate, ref, refLen, serveRefWindow)
	tracedRef, err := play(cfg.tr, serveRefRate, refLen)
	if err != nil {
		return nil, err
	}
	tracedStats := summarize(tracedRef, refLen, serveRefWindow)
	steps, err := climb(cfg.budget-2*refLen, func(rate float64, d time.Duration) ([]sample, error) { return play(cfg.tr, rate, d) })
	if err != nil {
		return nil, err
	}
	steps = append([]ladderStep{refStep}, steps...)
	interp, rung := maxRate(steps)
	valid := 0
	for _, s := range steps {
		if s.valid {
			valid++
		}
		out.note("rung %5.0f req/s: n=%d p50=%.3f p99=%.3f ms (http %.3f, bulk %.3f) generator late p99=%.3f ms backlog mid/end %d/%d valid=%v pass=%v",
			s.rate, s.stats.n, s.stats.p50, s.stats.p99, s.stats.httpP99, s.stats.bulkP99, s.stats.lateP99, s.stats.backlogMid, s.stats.backlogEnd, s.valid, s.pass)
	}
	out.note("max sustainable rate %.0f req/s interpolated (highest passing rung %.0f)", interp, rung)
	evalUS, kernelUS, err := serveInProcess(cfg.tr, st, ref)
	if err != nil {
		return nil, err
	}
	var shed, total float64
	for _, s := range append(append([]sample(nil), ref...), tracedRef...) {
		total++
		if s.shed {
			shed++
		}
	}
	meanLatUS := func(bulk bool) float64 {
		var sum, n float64
		for _, s := range ref {
			if s.bulk == bulk {
				sum += float64(s.latency()) / float64(time.Microsecond)
				n++
			}
		}
		return sum / n
	}
	out.metrics["serve.evaluate_us"] = evalUS.all
	out.metrics["serve.kernel_us"] = kernelUS
	out.metrics["serve.wire_us.http"] = meanLatUS(false) - evalUS.http
	out.metrics["serve.wire_us.bulk"] = meanLatUS(true) - evalUS.bulk
	out.metrics["serve.shed_frac"] = shed / total
	out.metrics["serve.backlog"] = float64(refStep.stats.backlogMax)
	out.metrics["serve.gen_late_ms"] = refStep.stats.lateP99
	out.metrics["serve.max_rps"] = interp
	out.metrics["serve.valid_steps"] = float64(valid)
	out.metrics["serve.loopback_p50_ms"] = refStep.stats.p50
	out.metrics["tail.latency_p99_ms"] = refStep.stats.p99
	out.metrics["trace.overhead_frac"] = tracedStats.p50/refStep.stats.p50 - 1
	out.note("reference p50 untraced %.3f ms, traced %.3f ms", refStep.stats.p50, tracedStats.p50)
	return out, nil
}

// evaluateInProcess sends one request through Server.Evaluate — the
// service's whole request path short of the transport: admission,
// deadline, panic isolation, kernel-set snapshot, input decoding and the
// batched kernel.
func evaluateInProcess(st *serveState, a arrival) (check func() (ok, shed bool), err error) {
	outs, err := st.srv.Evaluate(context.Background(), a.tmpl.req)
	return func() (bool, bool) {
		var fe *fault.Error
		if errors.As(err, &fe) {
			return false, fe.Code == fault.CodeOverload
		}
		return err == nil && equalBits(outs, a.tmpl.want), false
	}, nil
}

// closedLoop sends the request mix as one closed-loop stream for d, each
// request, HTTP-sized or bulk as the mix draws it, sent as soon as the
// previous one is answered. It returns the latency of every request (ms),
// the requests completed per second (the median over serveRefWindow
// windows) and the outcome of each.
func closedLoop(send func(arrival) (func() (bool, bool), error), rng *rand.Rand, httpT, bulkT []*serveTmpl, d time.Duration) ([]float64, float64, []sample, error) {
	var (
		lats      []float64
		samples   []sample
		perWindow []float64
	)
	start := time.Now()
	for time.Since(start) < d {
		a := arrival{tmpl: httpT[rng.Intn(len(httpT))]}
		if rng.Float64() >= serveHTTPShare {
			a = arrival{bulk: true, tmpl: bulkT[rng.Intn(len(bulkT))]}
		}
		sent := time.Since(start)
		check, err := send(a)
		if err != nil {
			return nil, 0, samples, err
		}
		done := time.Since(start)
		ok, shed := check()
		lats = append(lats, float64(done-sent)/float64(time.Millisecond))
		samples = append(samples, sample{due: sent, sent: sent, done: done, bulk: a.bulk, ok: ok, shed: shed, tmpl: a.tmpl})
		w := int(done / serveRefWindow)
		for len(perWindow) <= w {
			perWindow = append(perWindow, 0)
		}
		perWindow[w]++
	}
	full := int(d / serveRefWindow)
	if full == 0 {
		return lats, float64(len(samples)) / time.Since(start).Seconds(), samples, nil
	}
	if len(perWindow) > full {
		perWindow = perWindow[:full] // drop the partial last window
	}
	return lats, median(perWindow) / serveRefWindow.Seconds(), samples, nil
}

// judge decides one rung: valid when the generator kept its schedule
// (its tail lateness stays within the latency limit), passing when it is
// valid, every request was answered correctly, the tail latency is within
// the limit and the backlog did not grow over the rung.
func judge(rate float64, samples []sample, length, window time.Duration) ladderStep {
	s := summarize(samples, length, window)
	step := ladderStep{rate: rate, stats: s, valid: s.lateP99 <= serveLimitMS}
	step.pass = step.valid && s.failed == 0 && s.p99 <= serveLimitMS && s.backlogEnd <= s.backlogMid+2
	return step
}

// climb walks the ladder within the time left, one rung per
// serveStepLength, and stops after two consecutive failing rungs.
func climb(left time.Duration, play func(rate float64, d time.Duration) ([]sample, error)) ([]ladderStep, error) {
	var steps []ladderStep
	fails := 0
	start := time.Now()
	for _, rate := range serveLadder {
		if time.Since(start)+serveStepLength > left {
			break
		}
		samples, err := play(rate, serveStepLength)
		if err != nil {
			return nil, err
		}
		step := judge(rate, samples, serveStepLength, serveStepWindow)
		steps = append(steps, step)
		if step.pass {
			fails = 0
		} else if fails++; fails == 2 {
			break
		}
	}
	return steps, nil
}

// inProcessUS is the mean in-process time per request, overall and by
// request kind.
type inProcessUS struct{ all, http, bulk float64 }

// serveInProcess replays the reference phase's requests without
// transport: Server.Evaluate on each (admission, decode, kernel), then the
// kernel's EvalBatch alone on the same inputs.
func serveInProcess(tr *tracer, st *serveState, ref []sample) (inProcessUS, float64, error) {
	ctx := context.Background()
	ks := st.srv.KernelSet()
	xs := make([]float64, serveBulkBatch)
	dst := make([]uint64, serveBulkBatch)
	var us inProcessUS
	var kernel, nHTTP, nBulk float64
	for _, s := range ref {
		req := s.tmpl.req
		id := tr.begin("serve.Server.Evaluate", req.Fn.String(), -1, s.id)
		start := time.Now()
		outs, err := st.srv.Evaluate(ctx, req)
		d := float64(time.Since(start)) / float64(time.Microsecond)
		tr.end(id)
		if err != nil {
			return us, 0, err
		}
		if !equalBits(outs, s.tmpl.want) {
			return us, 0, fmt.Errorf("in-process %v %v %v request differs from the oracle", req.Fn, req.Out, req.Mode)
		}
		us.all += d
		if s.bulk {
			us.bulk += d
			nBulk++
		} else {
			us.http += d
			nHTTP++
		}

		k, err := ks.Kernel(req.Fn, req.Out, req.Mode)
		if err != nil {
			return us, 0, err
		}
		n := len(req.Inputs)
		for i, b := range req.Inputs {
			xs[i] = req.Out.Decode(b)
		}
		id = tr.begin("eval.Kernel.EvalBatch", req.Fn.String(), -1, s.id)
		start = time.Now()
		k.EvalBatch(dst[:n], xs[:n])
		kernel += float64(time.Since(start)) / float64(time.Microsecond)
		tr.end(id)
	}
	total := nHTTP + nBulk
	if nHTTP == 0 || nBulk == 0 {
		return us, 0, fmt.Errorf("reference phase had %v HTTP and %v bulk requests", nHTTP, nBulk)
	}
	return inProcessUS{all: us.all / total, http: us.http / nHTTP, bulk: us.bulk / nBulk}, kernel / total, nil
}
