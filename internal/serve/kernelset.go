package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// A KernelSet is one immutable generation of serving tables: the
// gen.Result of every available function — loaded from the artifact
// store's verify artifacts when present, the baked-in libm tables
// otherwise — plus a lazily filled cache of compiled eval kernels. The
// server holds the current set behind an atomic pointer and every request
// snapshots it exactly once, so a hot reload swaps generations between
// requests, never inside one: a response is computed entirely against the
// old tables or entirely against the new ones.
type KernelSet struct {
	results [bigmath.NumFuncs]*gen.Result
	source  [bigmath.NumFuncs]string // "store", "builtin", or "" when absent
	fp      string
	span    *obs.Span
	kernels sync.Map // kernelKey → *eval.Kernel
}

// kernelKey identifies one compiled kernel within a set.
type kernelKey struct {
	fn   bigmath.Func
	bits int
	exp  int
	mode fp.Mode
}

// verifySamples is how many inputs per level the load-time verification
// checks against the oracle. The sample is a deterministic stride over the
// format's bit patterns (sampleStep), so a corrupted coefficient table has
// many chances to disagree before it is served.
const verifySamples = 32

// sampleStep is the stride of level format f's verification sample: the
// inputs whose bit patterns are multiples of it.
func sampleStep(f fp.Format) uint64 {
	return max(f.NumValues()/verifySamples, 1)
}

// LoadKernelSet assembles a kernel set from st's verify artifacts under
// opt's fingerprint, falling back per function to the baked-in libm tables
// when the store has no artifact (or st is nil). A store artifact that
// fails to decode, names the wrong function, or answers wrongly on the
// verification sample fails the whole load — the caller keeps serving its
// previous set (hot reload) or degrades to the builtin tables (startup).
func LoadKernelSet(st pipeline.Store, opt gen.Options, sp *obs.Span, logf pipeline.Logf) (*KernelSet, error) {
	ks := &KernelSet{span: sp}
	h := sha256.New()
	for _, fn := range bigmath.AllFuncs {
		data := storeArtifact(st, fn, opt)
		hashContribution(h, fn, data)
		switch {
		case data != nil:
			res, err := decodeResult(data)
			if err != nil {
				return nil, fmt.Errorf("serve: %s: store artifact: %w", fn, err)
			}
			if err := verifyResult(fn, res); err != nil {
				return nil, fmt.Errorf("serve: %s: store artifact failed verification: %w", fn, err)
			}
			ks.results[fn] = res
			ks.source[fn] = "store"
		case libm.Have(fn):
			res, err := libm.Progressive(fn)
			if err != nil {
				return nil, fmt.Errorf("serve: %s: builtin tables: %w", fn, err)
			}
			ks.results[fn] = res
			ks.source[fn] = "builtin"
		default:
			if logf != nil {
				logf("serve: %s: no tables in store or binary; function not served", fn)
			}
		}
	}
	ks.fp = hex.EncodeToString(h.Sum(nil))
	return ks, nil
}

// StoreFingerprint digests what LoadKernelSet would load right now —
// the sealed verify-artifact bytes per function, or the builtin/absent
// markers — without decoding anything. The reload watcher polls it: a
// fingerprint equal to the live set's means nothing changed; a different
// one triggers a full load-verify-swap cycle.
func StoreFingerprint(st pipeline.Store, opt gen.Options) string {
	h := sha256.New()
	for _, fn := range bigmath.AllFuncs {
		hashContribution(h, fn, storeArtifact(st, fn, opt))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeArtifact fetches fn's sealed verify artifact from st, nil when
// absent (or no store is attached).
func storeArtifact(st pipeline.Store, fn bigmath.Func, opt gen.Options) []byte {
	if st == nil {
		return nil
	}
	data, ok := st.Get(gen.VerifyKey(fn, opt), gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok {
		return nil
	}
	return data
}

// hashContribution folds one function's table provenance into the set
// fingerprint: the artifact bytes when the store has them, a builtin or
// absent marker otherwise. LoadKernelSet and StoreFingerprint use the same
// folding, so "fingerprint unchanged" is exactly "a reload would produce
// the identical set".
func hashContribution(h io.Writer, fn bigmath.Func, data []byte) {
	io.WriteString(h, fn.String())
	h.Write([]byte{0})
	switch {
	case data != nil:
		h.Write(data)
	case libm.Have(fn):
		io.WriteString(h, "builtin")
	default:
		io.WriteString(h, "absent")
	}
	h.Write([]byte{0})
}

// decodeResult unseals and decodes one verify artifact.
func decodeResult(data []byte) (*gen.Result, error) {
	payload, err := pipeline.Unseal(data, gen.ResultCodec.Name, gen.ResultCodec.Version)
	if err != nil {
		return nil, err
	}
	d := pipeline.NewDec(payload)
	res, err := gen.ResultCodec.Decode(d)
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyResult gates a store-loaded result before it can serve traffic:
// the artifact must name the function it is keyed under, carry at least
// one level, compile into kernels, and serve correctly rounded results on
// a deterministic sample per level — under round-to-nearest, plus all five
// standard modes at the largest level. Each sampled input is checked
// against a fresh oracle's round-to-odd result at f+2 bits, which rounds
// correctly into every mode, so one oracle query covers all of them. It
// cannot prove full correct rounding — that is the generator's exhaustive
// verify stage — but it catches swapped, truncated and bit-rotted tables,
// and validly sealed tables with wrong coefficients, before a single wrong
// answer leaves the server.
func verifyResult(fn bigmath.Func, res *gen.Result) error {
	if res.Fn != fn {
		return fmt.Errorf("artifact is for %s", res.Fn)
	}
	if len(res.Levels) == 0 {
		return errors.New("artifact has no levels")
	}
	orc := oracle.New(fn)
	for li, lvl := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == len(res.Levels)-1 {
			modes = fp.StandardModes
		}
		kernels := make([]*eval.Kernel, len(modes))
		for i, mode := range modes {
			k, err := eval.Compile(res, lvl, mode)
			if err != nil {
				return fmt.Errorf("level %v mode %v: compile: %w", lvl, mode, err)
			}
			kernels[i] = k
		}
		ext := lvl.Extend(2)
		for b := uint64(0); b < lvl.NumValues(); b += sampleStep(lvl) {
			x := lvl.Decode(b)
			ro := ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
			for i, k := range kernels {
				if got, want := k.Eval(x), lvl.FromFloat64(ro, modes[i]); got != want {
					return fmt.Errorf("level %v mode %v input %#x: served %#x, correctly rounded %#x",
						lvl, modes[i], b, got, want)
				}
			}
		}
	}
	return nil
}

// Fingerprint identifies the set's table provenance; equal fingerprints
// mean byte-identical source artifacts.
func (ks *KernelSet) Fingerprint() string {
	_ = ks.results  // excluded: decoded from exactly the bytes fp digests
	_ = ks.source   // excluded: derived from the same load that set fp
	_ = ks.span     // excluded: observability only; never serves a byte
	_ = &ks.kernels // excluded: lazily compiled views of results
	return ks.fp
}

// Source reports where fn's tables came from: "store", "builtin", or ""
// when the function is not served.
func (ks *KernelSet) Source(fn bigmath.Func) string {
	if fn < 0 || fn >= bigmath.NumFuncs {
		return ""
	}
	return ks.source[fn]
}

// Functions lists the functions this set serves.
func (ks *KernelSet) Functions() []bigmath.Func {
	var fns []bigmath.Func
	for _, fn := range bigmath.AllFuncs {
		if ks.results[fn] != nil {
			fns = append(fns, fn)
		}
	}
	return fns
}

// Result returns the set's table for fn (tests compare served bits against
// a direct evaluation of the same generation).
func (ks *KernelSet) Result(fn bigmath.Func) (*gen.Result, bool) {
	if fn < 0 || fn >= bigmath.NumFuncs || ks.results[fn] == nil {
		return nil, false
	}
	return ks.results[fn], true
}

// Kernel returns the set's compiled kernel for (fn, out, mode), compiling
// it on first use. Compilation may race across requests; both candidates
// are compiled from the same immutable result, so whichever lands in the
// cache evaluates identically. Errors wrap libm.ErrNoTables (function not
// served) or eval.ErrTooWide (format wider than the set's levels).
func (ks *KernelSet) Kernel(fn bigmath.Func, out fp.Format, mode fp.Mode) (*eval.Kernel, error) {
	if fn < 0 || fn >= bigmath.NumFuncs || ks.results[fn] == nil {
		return nil, fmt.Errorf("serve: %v: %w", fn, libm.ErrNoTables)
	}
	key := kernelKey{fn: fn, bits: out.Bits(), exp: out.ExpBits(), mode: mode}
	if v, ok := ks.kernels.Load(key); ok {
		return v.(*eval.Kernel), nil
	}
	res := ks.results[fn]
	k, err := eval.Compile(res, out, mode)
	if err != nil {
		if _, ok := res.ServingLevel(out, mode); !ok {
			return nil, fmt.Errorf("serve: %s: %v: %w", fn, out, eval.ErrTooWide)
		}
		return nil, err
	}
	k.Observe(ks.span) // before the kernel is shared via the cache
	v, _ := ks.kernels.LoadOrStore(key, k)
	return v.(*eval.Kernel), nil
}
