package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ifdk/pkg/api"
)

func TestSpecSequencesAreDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(reconSpecs(7), reconSpecs(7)) {
		t.Error("reconSpecs differs between two calls with one seed")
	}
	if !reflect.DeepEqual(progressiveSpecs(7), progressiveSpecs(7)) {
		t.Error("progressiveSpecs differs between two calls with one seed")
	}
	if !reflect.DeepEqual(mixSchedule(7, 1, 120), mixSchedule(7, 1, 120)) {
		t.Error("mixSchedule differs between two calls with one seed")
	}
	if reflect.DeepEqual(reconSpecs(7), reconSpecs(8)) || reflect.DeepEqual(mixSchedule(7, 1, 120), mixSchedule(8, 1, 120)) {
		t.Error("seeds 7 and 8 generate the same inputs")
	}
}

func TestReconAndProgressiveKeysAreDistinct(t *testing.T) {
	for name, specs := range map[string][]api.Spec{"recon": reconSpecs(1), "progressive": progressiveSpecs(1)} {
		seen := map[api.Spec]bool{}
		for _, s := range specs {
			if seen[s] {
				t.Errorf("%s repeats %+v: a measured job would be a cache hit", name, s)
			}
			seen[s] = true
			if s.Window == windows[4].String() && name == "progressive" {
				t.Errorf("progressive measures the staging window %s", s.Window)
			}
		}
	}
}

func TestMixScansAreValidJobs(t *testing.T) {
	pool := mixScans()
	if need := mixStaged + int(math.Round(0.25*mixRate*mixRoundSec)); len(pool) < need {
		t.Errorf("scan pool of %d cannot feed %d staged and new scans", len(pool), need)
	}
	for _, sc := range pool {
		if sc.np%4 != 0 || math.Abs(float64(sc.np)/float64(4*sc.nx)-1) > 0.1 {
			t.Errorf("np %d is not a multiple of R·C within 10%% of 4·nx", sc.np)
		}
	}
}

func TestMixClassSharesWithinTwoPoints(t *testing.T) {
	n := int(mixRate * mixRoundSec)
	for seed := int64(1); seed <= 20; seed++ {
		plan := mixSchedule(seed, int(seed%4), n)
		if len(plan.jobs) != n {
			t.Fatalf("seed %d: %d jobs scheduled, want %d", seed, len(plan.jobs), n)
		}
		counts := map[string]int{}
		for _, j := range plan.jobs {
			counts[j.class]++
		}
		for _, c := range mixClasses {
			if got := float64(counts[c.name]) / float64(n); math.Abs(got-c.share) > 0.02 {
				t.Errorf("seed %d: %s share %.3f, target %.2f", seed, c.name, got, c.share)
			}
		}
	}
}

// TestMixScheduleIsFeasible checks what the realised-class check relies
// on: repeats reuse a settled key, every other job uses a key not seen
// before, and no new scan was staged before.
func TestMixScheduleIsFeasible(t *testing.T) {
	plan := mixSchedule(3, 2, int(mixRate*mixRoundSec))
	key := func(s api.Spec) api.Spec { s.Verify = false; return s }
	firstDue := map[api.Spec]float64{}
	scans := map[scan]bool{}
	for _, w := range plan.warm {
		firstDue[key(w)] = math.Inf(-1)
	}
	for _, sc := range plan.staged {
		scans[sc] = true
		p := sc.spec(windows[0])
		p.Quality = api.QualityPreview
		firstDue[p] = math.Inf(-1)
	}
	for _, j := range plan.jobs {
		k := key(j.spec)
		at, seen := firstDue[k]
		switch j.class {
		case "repeat":
			if !seen || at > j.due-settleSec {
				t.Errorf("repeat at %.2fs of %+v has no settled original", j.due, k)
			}
		case "newscan":
			if scans[scanOf(j.spec)] {
				t.Errorf("new scan at %.2fs was staged before", j.due)
			}
			scans[scanOf(j.spec)] = true
		default:
			if seen {
				t.Errorf("%s at %.2fs reuses key %+v", j.class, j.due, k)
			}
			if !scans[scanOf(j.spec)] {
				t.Errorf("%s at %.2fs is on an unstaged scan", j.class, j.due)
			}
		}
		if !seen {
			firstDue[k] = j.due
		}
	}
}

func TestSupportedPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %g, want 3.7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{trace: "a", id: 1, name: "client.job", start: at(0), end: at(10)},
		{trace: "a", id: 2, parent: 1, name: "service.queue.wait", start: at(1), end: at(4)},
		{trace: "a", id: 3, parent: 1, name: "core.compute", start: at(3), end: at(6)},
		{trace: "a", id: 4, parent: 1, name: "pfs.store", start: at(8), end: at(12)}, // runs past its parent
		{trace: "a", id: 5, parent: 3, name: "filter.filter.round", start: at(3), end: at(5)},
		{trace: "a", id: 6, parent: 3, name: "mpi.allgather.round", start: at(4), end: at(5.5)},
	}
	got := selfTimes(spans)["a"]
	want := map[string]float64{
		"client":  10 - (5 + 2), // [1,6] and the clipped [8,10]
		"service": 3,
		"core":    3 - 2.5, // [3,5.5]
		"filter":  2,
		"mpi":     1.5,
		"pfs":     4,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s self time = %g, want %g", layer, got[layer], w)
		}
	}
}

func TestOwnerOf(t *testing.T) {
	for id, want := range map[string]int{"b0-j00000001": 0, "b1-j00000012": 1, "j00000003": 0} {
		if got := ownerOf(id); got != want {
			t.Errorf("ownerOf(%q) = %d, want %d", id, got, want)
		}
	}
}
