package serve

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/reduction"
)

// Hot-reload coverage, including the mix-freedom acceptance test: a table
// swap mid-traffic must never produce a response computed partly against
// the old generation and partly against the new one.

const reloadFn = bigmath.CosPi

// reloadOpts are the generation options of the test artifacts; Workers is
// excluded from the artifact fingerprint, so the server addresses the
// same artifact regardless of it.
func reloadOpts() gen.Options {
	return gen.Options{
		Levels:  []fp.Format{fp.MustFormat(10, 8), fp.MustFormat(12, 8)},
		Seed:    1,
		Workers: 2,
	}
}

// baseArtifact generates (once per test binary) the sealed verify
// artifact of reloadFn under reloadOpts.
var baseArtifact = sync.OnceValues(func() ([]byte, error) {
	st := pipeline.NewMemStore()
	if _, _, err := cli.GenerateVerified(context.Background(), reloadFn, reloadOpts(), st); err != nil {
		return nil, err
	}
	data, ok := st.Get(gen.VerifyKey(reloadFn, reloadOpts()), gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok {
		return nil, context.Canceled // unreachable; GenerateVerified stores the artifact
	}
	return data, nil
})

// pinArtifact returns a re-sealed copy of the base artifact with the
// special-input table pinning each xs[i] to proxy at every level — a
// self-consistent artifact (it passes load verification) whose served
// bits at xs differ from any artifact pinning a different proxy.
func pinArtifact(t *testing.T, xs []float64, proxy float64) []byte {
	t.Helper()
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(base)
	if err != nil {
		t.Fatal(err)
	}
	for li := range res.Specials {
		sp := res.Specials[li]
		for _, x := range xs {
			i := sort.Search(len(sp), func(i int) bool { return sp[i].X >= x })
			if i < len(sp) && math.Float64bits(sp[i].X) == math.Float64bits(x) {
				sp[i].Proxy = proxy
				continue
			}
			sp = append(sp, gen.SpecialInput{})
			copy(sp[i+1:], sp[i:])
			sp[i] = gen.SpecialInput{X: x, Proxy: proxy}
		}
		res.Specials[li] = sp
	}
	var e pipeline.Enc
	gen.ResultCodec.Encode(&e, res)
	return pipeline.Seal(gen.ResultCodec.Name, gen.ResultCodec.Version, e.Bytes())
}

// pinnedInputs picks two regular bit patterns of the serving format whose
// output a pinned special actually controls (finite decode, not already
// handled by the reduction scheme's special-case path) and that no level's
// load-time verification sample contains — a pinned proxy is a wrong
// answer, which the load gate would reject.
func pinnedInputs(t *testing.T) (bits []uint64, xs []float64) {
	t.Helper()
	out := fp.MustFormat(10, 8)
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(base)
	if err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < out.NumValues() && len(bits) < 2; b++ {
		x := out.Decode(b)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if _, regular := reduction.Lower(res.Fn).Reduce(x); !regular || sampled(res, x) {
			continue
		}
		bits = append(bits, b)
		xs = append(xs, x)
	}
	if len(bits) < 2 {
		t.Fatal("no regular inputs found in the serving format")
	}
	return bits, xs
}

// sampled reports whether x is in some level's verification sample.
func sampled(res *gen.Result, x float64) bool {
	for _, lvl := range res.Levels {
		if lvl.FromFloat64(x, fp.RoundNearestEven)%sampleStep(lvl) == 0 {
			return true
		}
	}
	return false
}

// storeWith returns a memory store holding artifact under the server's key.
func storeWith(t *testing.T, artifact []byte) pipeline.Store {
	t.Helper()
	st := pipeline.NewMemStore()
	if err := st.Put(gen.VerifyKey(reloadFn, reloadOpts()), gen.ResultCodec.Name, gen.ResultCodec.Version, artifact); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHotReloadNeverMixes is the hot-reload acceptance test. Generation A
// pins two probe inputs to 1.0, generation B pins them to 2.0. Under
// concurrent traffic the store content is swapped from A to B and the
// server reloaded; every response must answer both probes from one
// generation — (A,A) or (B,B), never (A,B) — and after the reload settles
// the server answers from B.
func TestHotReloadNeverMixes(t *testing.T) {
	out := fp.MustFormat(10, 8)
	probeBits, probeXs := pinnedInputs(t)
	artA := pinArtifact(t, probeXs, 1.0)
	artB := pinArtifact(t, probeXs, 2.0)
	wantA := out.FromFloat64(1.0, fp.RoundNearestEven)
	wantB := out.FromFloat64(2.0, fp.RoundNearestEven)
	if wantA == wantB {
		t.Fatal("probe proxies round to the same bits; the test is vacuous")
	}

	st := storeWith(t, artA)
	s := newTestServer(t, Config{Store: st, Opt: reloadOpts(), Queue: 64})
	if src := s.KernelSet().Source(reloadFn); src != "store" {
		t.Fatalf("source %q, want store", src)
	}

	// The request brackets the batch with the two pinned probes, so a
	// response mixing generations would disagree between its ends.
	inputs := append(append([]uint64{probeBits[0]}, testInputs(30)...), probeBits[1])
	req := Request{Fn: reloadFn, Out: out, Mode: fp.RoundNearestEven, Inputs: inputs}
	check := func(outBits []uint64, wantFirst, wantLast uint64) bool {
		return outBits[0] == wantFirst && outBits[len(outBits)-1] == wantLast
	}

	var stop atomic.Bool
	var mixes, fromB atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				outBits, err := s.Evaluate(context.Background(), req)
				if err != nil {
					t.Errorf("Evaluate under reload: %v", err)
					return
				}
				switch {
				case check(outBits, wantA, wantA):
				case check(outBits, wantB, wantB):
					fromB.Add(1)
				default:
					mixes.Add(1)
					t.Errorf("mixed-generation response: first=%#x last=%#x (A=%#x B=%#x)",
						outBits[0], outBits[len(outBits)-1], wantA, wantB)
				}
			}
		}()
	}

	// Swap the store content mid-traffic and hot-reload.
	if err := st.Put(gen.VerifyKey(reloadFn, reloadOpts()), gen.ResultCodec.Name, gen.ResultCodec.Version, artB); err != nil {
		t.Fatal(err)
	}
	if left := s.reloadOnce(""); left != "" {
		t.Fatalf("reload failed (lastFailed %q)", left)
	}
	// Let post-reload traffic flow, then stop.
	waitFor(t, "post-reload responses", func() bool { return fromB.Load() > 0 || mixes.Load() > 0 })
	stop.Store(true)
	wg.Wait()

	// After the reload settles every answer comes from B.
	outBits, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !check(outBits, wantB, wantB) {
		t.Errorf("post-reload response not from generation B: first=%#x last=%#x", outBits[0], outBits[len(outBits)-1])
	}
}

// TestReloadFailureKeepsOld: a corrupt artifact in the store is rejected
// and counted; the previous generation keeps serving; the failed
// fingerprint is remembered so the watcher does not retry-and-log-spam;
// and a subsequent good generation reloads normally.
func TestReloadFailureKeepsOld(t *testing.T) {
	probeBits, probeXs := pinnedInputs(t)
	out := fp.MustFormat(10, 8)
	artA := pinArtifact(t, probeXs, 1.0)
	artB := pinArtifact(t, probeXs, 2.0)
	key := gen.VerifyKey(reloadFn, reloadOpts())

	rec := obs.New("test")
	st := storeWith(t, artA)
	s := newTestServer(t, Config{Store: st, Opt: reloadOpts(), Span: rec.Root()})
	ksA := s.KernelSet()
	counters := func(c obs.Counter) int64 { return rec.Report().Counters[string(c)] }

	// Corrupt swap: rejected, counted, old tables keep serving.
	corrupt := append([]byte(nil), artB...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := st.Put(key, gen.ResultCodec.Name, gen.ResultCodec.Version, corrupt); err != nil {
		t.Fatal(err)
	}
	lastFailed := s.reloadOnce("")
	if lastFailed == "" {
		t.Fatal("corrupt reload reported success")
	}
	if got := counters(obs.CtrServeReloadFailed); got != 1 {
		t.Errorf("serve.reload.failed = %d, want 1", got)
	}
	if s.KernelSet() != ksA {
		t.Error("corrupt reload swapped the kernel set")
	}
	req := Request{Fn: reloadFn, Out: out, Mode: fp.RoundNearestEven, Inputs: probeBits}
	outBits, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := out.FromFloat64(1.0, fp.RoundNearestEven); outBits[0] != want {
		t.Errorf("after failed reload: served %#x, want generation A %#x", outBits[0], want)
	}

	// The failed fingerprint is remembered: no second attempt, no second count.
	if again := s.reloadOnce(lastFailed); again != lastFailed {
		t.Errorf("suppressed retry returned %q, want unchanged %q", again, lastFailed)
	}
	if got := counters(obs.CtrServeReloadFailed); got != 1 {
		t.Errorf("serve.reload.failed after suppressed retry = %d, want 1", got)
	}

	// A good generation then reloads normally.
	if err := st.Put(key, gen.ResultCodec.Name, gen.ResultCodec.Version, artB); err != nil {
		t.Fatal(err)
	}
	if left := s.reloadOnce(lastFailed); left != "" {
		t.Fatal("good reload did not succeed")
	}
	if got := counters(obs.CtrServeReloads); got != 1 {
		t.Errorf("serve.reloads = %d, want 1", got)
	}
	outBits, err = s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := out.FromFloat64(2.0, fp.RoundNearestEven); outBits[0] != want {
		t.Errorf("after good reload: served %#x, want generation B %#x", outBits[0], want)
	}
}

// TestNewDegradesOnBadStore: a server started against a store whose
// artifact fails verification degrades to the builtin tables (counted)
// instead of refusing to start.
func TestNewDegradesOnBadStore(t *testing.T) {
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), base...)
	corrupt[len(corrupt)/3] ^= 0x08
	rec := obs.New("test")
	s := newTestServer(t, Config{Store: storeWith(t, corrupt), Opt: reloadOpts(), Span: rec.Root()})
	if src := s.KernelSet().Source(reloadFn); src != "builtin" {
		t.Errorf("degraded source %q, want builtin", src)
	}
	if got := rec.Report().Counters[string(obs.CtrServeReloadFailed)]; got != 1 {
		t.Errorf("serve.reload.failed = %d, want 1", got)
	}
}

// TestWatcherReloads: the background watcher picks up a store change
// without an explicit reload call.
func TestWatcherReloads(t *testing.T) {
	_, probeXs := pinnedInputs(t)
	artA := pinArtifact(t, probeXs, 1.0)
	artB := pinArtifact(t, probeXs, 2.0)
	st := storeWith(t, artA)
	s := newTestServer(t, Config{Store: st, Opt: reloadOpts(), ReloadInterval: 5 * time.Millisecond})
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	before := s.KernelSet().Fingerprint()
	if err := st.Put(gen.VerifyKey(reloadFn, reloadOpts()), gen.ResultCodec.Name, gen.ResultCodec.Version, artB); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watcher to reload", func() bool { return s.KernelSet().Fingerprint() != before })
}
