package serve

import (
	"strings"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/pipeline"
)

// KernelSet loading and verification: store artifacts are gated by a
// decode + self-consistency sweep before they may serve, the builtin
// fallback covers absent functions, and the set fingerprint tracks
// exactly the bytes a load would consume.

// TestLoadKernelSetBuiltin: with no store every function serves from the
// baked-in tables, bit-identical to libm's own kernels.
func TestLoadKernelSetBuiltin(t *testing.T) {
	ks, err := LoadKernelSet(nil, reloadOpts(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ks.Functions()); got != len(bigmath.AllFuncs) {
		t.Fatalf("%d functions served, want %d", got, len(bigmath.AllFuncs))
	}
	inputs := testInputs(64)
	for _, fn := range bigmath.AllFuncs {
		if src := ks.Source(fn); src != "builtin" {
			t.Errorf("%v: source %q, want builtin", fn, src)
		}
		k, err := ks.Kernel(fn, testFormat, fp.RoundNearestEven)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		want := directBits(t, fn, inputs)
		for i, b := range inputs {
			if got := k.Eval(testFormat.Decode(b)); got != want[i] {
				t.Fatalf("%v input %#x: kernel %#x, libm %#x", fn, b, got, want[i])
			}
		}
	}
}

// TestLoadKernelSetFromStore: a store artifact overrides the builtin
// tables for its function only, and the served bits match a one-off
// evaluation (Result.Eval) of the decoded artifact.
func TestLoadKernelSetFromStore(t *testing.T) {
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := LoadKernelSet(storeWith(t, base), reloadOpts(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range bigmath.AllFuncs {
		want := "builtin"
		if fn == reloadFn {
			want = "store"
		}
		if src := ks.Source(fn); src != want {
			t.Errorf("%v: source %q, want %q", fn, src, want)
		}
	}
	res, ok := ks.Result(reloadFn)
	if !ok {
		t.Fatal("store-loaded function has no result")
	}
	out := fp.MustFormat(10, 8)
	k, err := ks.Kernel(reloadFn, out, fp.RoundNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	li, ok := res.ServingLevel(out, fp.RoundNearestEven)
	if !ok {
		t.Fatal("store result serves no level for the test format")
	}
	for b := uint64(0); b < out.NumValues(); b += 17 {
		x := out.Decode(b)
		if got, want := k.Eval(x), res.Eval(x, li, out, fp.RoundNearestEven); got != want {
			t.Fatalf("input %#x: kernel %#x, Result.Eval %#x", b, got, want)
		}
	}
}

// TestLoadKernelSetRejectsBadArtifacts: corrupt bytes and artifacts keyed
// under the wrong function both fail the load with a diagnostic naming
// the function.
func TestLoadKernelSetRejectsBadArtifacts(t *testing.T) {
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), base...)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := LoadKernelSet(storeWith(t, corrupt), reloadOpts(), nil, nil); err == nil {
		t.Error("corrupt artifact loaded without error")
	}

	truncated := base[:len(base)-4]
	if _, err := LoadKernelSet(storeWith(t, truncated), reloadOpts(), nil, nil); err == nil {
		t.Error("truncated artifact loaded without error")
	}

	// The CosPi artifact stored under SinPi's key must be rejected by the
	// function check, not served as sinpi.
	st := pipeline.NewMemStore()
	if err := st.Put(gen.VerifyKey(bigmath.SinPi, reloadOpts()), gen.ResultCodec.Name, gen.ResultCodec.Version, base); err != nil {
		t.Fatal(err)
	}
	_, err = LoadKernelSet(st, reloadOpts(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "sinpi") {
		t.Errorf("wrong-function artifact: got %v, want an error naming sinpi", err)
	}
}

// TestLoadKernelSetRejectsWrongCoefficients: an artifact resealed with
// valid framing but a perturbed constant coefficient C1 decodes and
// compiles, so only the load gate's oracle check can refuse it.
func TestLoadKernelSetRejectsWrongCoefficients(t *testing.T) {
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Kernels[0].Pieces {
		p := &res.Kernels[0].Pieces[i]
		p.Coeffs = append([]float64(nil), p.Coeffs...)
		p.Coeffs[0] *= 1 + 1.0/8 // one ulp at 1 of the largest level
	}
	var e pipeline.Enc
	gen.ResultCodec.Encode(&e, res)
	resealed := pipeline.Seal(gen.ResultCodec.Name, gen.ResultCodec.Version, e.Bytes())
	if _, err := decodeResult(resealed); err != nil {
		t.Fatalf("resealed artifact does not decode: %v", err)
	}
	_, err = LoadKernelSet(storeWith(t, resealed), reloadOpts(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("perturbed-C1 artifact: got %v, want a verification failure", err)
	}
}

// TestStoreFingerprintTracksContent: the cheap poll fingerprint equals the
// loaded set's, changes when the store content changes, and reverts when
// the content reverts.
func TestStoreFingerprintTracksContent(t *testing.T) {
	base, err := baseArtifact()
	if err != nil {
		t.Fatal(err)
	}
	opt := reloadOpts()
	key := gen.VerifyKey(reloadFn, opt)

	st := pipeline.NewMemStore()
	empty := StoreFingerprint(st, opt)
	if got := StoreFingerprint(nil, opt); got != empty {
		t.Error("nil store fingerprint differs from empty store fingerprint")
	}

	if err := st.Put(key, gen.ResultCodec.Name, gen.ResultCodec.Version, base); err != nil {
		t.Fatal(err)
	}
	withArtifact := StoreFingerprint(st, opt)
	if withArtifact == empty {
		t.Error("fingerprint did not change when an artifact appeared")
	}
	ks, err := LoadKernelSet(st, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Fingerprint() != withArtifact {
		t.Error("loaded set fingerprint differs from the poll fingerprint of the same content")
	}

	if err := st.Delete(key, gen.ResultCodec.Name, gen.ResultCodec.Version); err != nil {
		t.Fatal(err)
	}
	if got := StoreFingerprint(st, opt); got != empty {
		t.Error("fingerprint did not revert when the artifact was deleted")
	}
}

// TestKernelSetKernelErrors: unknown-format requests wrap the stable
// sentinel errors so the endpoints can map them to statuses.
func TestKernelSetKernelErrors(t *testing.T) {
	ks, err := LoadKernelSet(nil, reloadOpts(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Kernel(bigmath.Log2, fp.MustFormat(34, 8), fp.RoundNearestEven); err == nil {
		t.Error("a 34-bit format compiled against the builtin levels")
	}
	if _, err := ks.Kernel(bigmath.NumFuncs, testFormat, fp.RoundNearestEven); err == nil {
		t.Error("an out-of-range function returned a kernel")
	}
	if _, err := libm.Kernel(bigmath.Log2, testFormat, fp.RoundNearestEven); err != nil {
		t.Fatalf("libm baseline kernel: %v", err)
	}
}
