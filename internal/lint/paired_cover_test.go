package lint

import "testing"

// The paired harness derives every per-run seed and fans runs out to
// workers; its results must stay a pure function of the sweep. These
// fixtures pin the package into the seedflow, vtcore and ctxflow sets.

func TestSeedflowCoversPaired(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/paired", map[string]string{
		"seed.go": `package paired

import "math/rand"

func BadJitter() float64 {
	return rand.Float64() // want "global math/rand source call rand.Float64"
}

func GoodSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`,
	})
}

func TestVTCoreCoversPaired(t *testing.T) {
	runFixture(t, VTCore, "example.com/internal/paired", map[string]string{
		"sweep.go": `package paired

import "time"

func Stamp() time.Time {
	return time.Now() //lint:allow walltime tempting but wrong // want "inside virtual-time core package"
}
`,
	})
}

func TestCtxFlowCoversPaired(t *testing.T) {
	runFixture(t, CtxFlow, "example.com/internal/paired", map[string]string{
		"sweep.go": `package paired

import "context"

func BadMap(n int) { // want "exported BadMap starts a goroutine but accepts no context.Context"
	for i := 0; i < n; i++ {
		go func() {}()
	}
}

func GoodMap(ctx context.Context, n int) {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		go func() {}()
	}
}
`,
	})
}
