package paired

import (
	"context"
	"reflect"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/faults"
)

type coord struct {
	profile, plan string
	n             int
	seed          int64
}

func coords(t *testing.T, workers int) []coord {
	t.Helper()
	out, err := Map(context.Background(), Sweep{
		Profiles: []string{"4g-drive", "wifi-cafe"},
		Runs:     2,
		Seed:     11,
		Workers:  workers,
	}, func(r Run) (coord, error) {
		return coord{r.Profile.Name, r.Plan.Name, r.N, r.Seed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMapSweepOrderAtEveryWorkerCount(t *testing.T) {
	one := coords(t, 1)
	if len(one) != 2*len(BuiltinFaultPlans())*2 {
		t.Fatalf("%d runs, want %d", len(one), 2*len(BuiltinFaultPlans())*2)
	}
	want := coord{"4g-drive", "none", 1, one[1].seed}
	if one[1] != want {
		t.Errorf("second run = %+v, want %+v (profile-major, then plan, then run)", one[1], want)
	}
	seen := map[int64]bool{}
	for _, c := range one {
		if seen[c.seed] {
			t.Errorf("seed %d reused across runs", c.seed)
		}
		seen[c.seed] = true
	}
	if four := coords(t, 4); !reflect.DeepEqual(one, four) {
		t.Errorf("sweep differs between 1 and 4 workers:\n%v\n%v", one, four)
	}
}

// TestRunIsPaired pins the pairing itself: two engines on one Run see the
// identical link, and the truth flood replays deterministically.
func TestRunIsPaired(t *testing.T) {
	out, err := Map(context.Background(), Sweep{Profiles: []string{"subway"}, Runs: 1, Seed: 3}, func(r Run) ([]float64, error) {
		a, _, err := r.Engine(core.CrossingPolicy{})
		if err != nil {
			return nil, err
		}
		b, _, err := r.Engine(nil)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(a.Samples, b.Samples) {
			t.Errorf("%s/%s: two engines on one run saw different links", r.Profile.Name, r.Plan.Name)
		}
		t1, err := r.Truth()
		if err != nil {
			return nil, err
		}
		t2, _ := r.Truth()
		if t1 != t2 || t1 <= 0 {
			t.Errorf("%s/%s: truth %g then %g", r.Profile.Name, r.Plan.Name, t1, t2)
		}
		return a.Samples, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(out[0], out[2]) {
		t.Error("fault-free and blackout runs produced identical sample streams")
	}
}

func TestMapRejectsAndCancels(t *testing.T) {
	noop := func(Run) (int, error) { return 0, nil }
	bad := []NamedFaultPlan{{Name: "bad", Plan: &faults.Plan{Faults: []faults.Fault{{Kind: "warp"}}}}}
	if _, err := Map(context.Background(), Sweep{Plans: bad}, noop); err == nil {
		t.Error("sweep accepted an invalid fault plan")
	}
	if _, err := Map(context.Background(), Sweep{Profiles: []string{"no-such-profile"}}, noop); err == nil {
		t.Error("sweep accepted an unknown profile")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, Sweep{Workers: 2}, noop); err == nil {
		t.Error("cancelled sweep reported success")
	}
}
