package gen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// pinnedExp2Result is the SHA-256 of the encoded exp2 Result on ladder
// F10,8:F12,8 with seed 1, as produced with every exact solve running the
// rational Bland simplex. A certified float basis yields the unique
// optimum, the same answer, so certification must not move these bits.
const pinnedExp2Result = "738cde4c079e1ede732bb1ef49459028a8cdab4b30da5feffb4563460babde2b"

// TestExactSolverPinsOutput generates exp2 on a small ladder whose
// samples carry the r = 0 equality row, so they reach the exact solver,
// and requires that some of those solves were closed by the certificate
// and that the encoded Result is byte-identical to the pinned one.
func TestExactSolverPinsOutput(t *testing.T) {
	rec := obs.New("run")
	ctx := obs.WithSpan(context.Background(), rec.Root())
	levels := []fp.Format{fp.MustFormat(10, 8), fp.MustFormat(12, 8)}
	res, err := GenerateStaged(ctx, bigmath.Exp2, Options{Levels: levels, Seed: 1}, nil)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ctr := rec.Report().Counters
	exact, fallbacks := ctr[string(obs.CtrClarksonExactSolves)], ctr[string(obs.CtrClarksonExactFallbacks)]
	if res.Stats.ExactSolves == 0 || int64(res.Stats.ExactSolves) != exact {
		t.Fatalf("Stats.ExactSolves = %d, counter %d; want equal and > 0", res.Stats.ExactSolves, exact)
	}
	if fallbacks >= exact {
		t.Errorf("%d of %d exact solves fell back to the rational simplex; want some certified", fallbacks, exact)
	}
	var e pipeline.Enc
	ResultCodec.Encode(&e, res)
	sum := sha256.Sum256(e.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pinnedExp2Result {
		t.Errorf("encoded exp2 Result SHA-256 = %s, want %s", got, pinnedExp2Result)
	}
	t.Logf("exact solves %d, fallbacks %d", exact, fallbacks)
}
