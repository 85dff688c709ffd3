package reduction

import (
	"testing"

	"repro/internal/bigmath"
)

// TestLoweredZeroAllocs keeps the regular path of the devirtualized scheme
// allocation-free: Reduce and Compensate feed the batch hot loop.
func TestLoweredZeroAllocs(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		l := Lower(fn)
		if n := testing.AllocsPerRun(100, func() {
			ctx, ok := l.Reduce(0.7265625)
			if ok {
				_ = l.Compensate(ctx, 1.0, 0.5)
			}
		}); n != 0 {
			t.Fatalf("%v: regular path allocates %v times per run", fn, n)
		}
	}
}
