package batcher

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/race"
	"ifdk/internal/volume"
)

func testGeom() geometry.Params {
	return geometry.Default(64, 32, 90, 32, 32, 32)
}

func randProj(rng *rand.Rand, g geometry.Params) *volume.Image {
	img := volume.NewImage(g.Nu, g.Nv)
	for i := range img.Data {
		img.Data[i] = float32(rng.NormFloat64())
	}
	return img
}

// A batched sweep must produce exactly what the direct per-rank path
// produces, and a round with every seat filled must report the full batch.
func TestBatchedMatchesDirect(t *testing.T) {
	g := testGeom()
	const members = 4
	p := New(Options{Window: time.Second}) // generous: flush on full rounds only
	flt, err := filter.Cached(g, filter.Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ins := make([]*volume.Image, members)
	want := make([]*volume.Image, members)
	for i := range ins {
		ins[i] = randProj(rng, g)
		var err error
		if want[i], err = flt.Apply(ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	batches := make([]int, members)
	errs := make([]error, members)
	for i := 0; i < members; i++ {
		m, err := p.Join(g, filter.Hann)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			defer m.Close()
			batches[i], errs[i] = m.Filter(context.Background(), ins[i])
		}(i, m)
	}
	wg.Wait()
	for i := 0; i < members; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if batches[i] != members {
			t.Errorf("member %d: batch %d, want %d (full round)", i, batches[i], members)
		}
		for k, v := range want[i].Data {
			if ins[i].Data[k] != v {
				t.Fatalf("member %d: filtered pixel %d = %v, want %v", i, k, ins[i].Data[k], v)
			}
		}
	}
}

// A lone member must not wait for a full round beyond the window, and a
// zero window must flush immediately.
func TestLoneMemberFlushes(t *testing.T) {
	g := testGeom()
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		p := New(Options{Window: window})
		m, err := p.Join(g, filter.RamLak)
		if err != nil {
			t.Fatal(err)
		}
		// A second seat that never submits: the round can only flush on the
		// window (or instantly at window 0), not on fullness.
		idle, err := p.Join(g, filter.RamLak)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		img := randProj(rng, g)
		start := time.Now()
		batch, err := m.Filter(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		if batch != 1 {
			t.Errorf("window %v: lone batch %d, want 1", window, batch)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("window %v: lone flush took %v", window, d)
		}
		idle.Close()
		m.Close()
	}
}

// Cancelling a parked projection withdraws it without disturbing the
// members still filtering; the group must keep working afterwards.
func TestCancelWithdrawsParked(t *testing.T) {
	g := testGeom()
	p := New(Options{Window: time.Hour}) // rounds flush only when full
	a, err := p.Join(g, filter.RamLak)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Join(g, filter.RamLak)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ctx, cancel := context.WithCancel(context.Background())
	parked := randProj(rng, g)
	orig := append([]float32(nil), parked.Data...)
	done := make(chan error, 1)
	go func() {
		_, err := a.Filter(ctx, parked)
		done <- err
	}()
	time.Sleep(time.Millisecond) // let the projection park
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled Filter returned %v", err)
	}
	for i, v := range parked.Data {
		if v != orig[i] {
			t.Fatalf("withdrawn projection was mutated at %d", i)
		}
	}
	// The survivor's next full round is b alone (a withdrew, but its seat is
	// still held — the round stays short of full until a's seat closes).
	a.Close()
	img := randProj(rng, g)
	batch, err := b.Filter(context.Background(), img)
	if err != nil || batch != 1 {
		t.Fatalf("survivor round: batch %d err %v", batch, err)
	}
	b.Close()
}

// Hammer join/leave/filter/cancel from many goroutines; run under -race this
// is the memory-safety and teardown test. Every member must terminate.
func TestConcurrentChurn(t *testing.T) {
	g := testGeom()
	p := New(Options{Window: 200 * time.Microsecond})
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 20; it++ {
				win := filter.Window(it % 2) // two plans churn independently
				m, err := p.Join(g, win)
				if err != nil {
					t.Error(err)
					return
				}
				img := randProj(rng, g)
				ctx := context.Background()
				var cancel context.CancelFunc
				if it%3 == 0 { // some submitters cancel mid-round
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				_, err = m.Filter(ctx, img)
				if cancel != nil {
					cancel()
				}
				if err != nil && err != context.DeadlineExceeded && err != context.Canceled {
					t.Errorf("filter: %v", err)
				}
				m.Close()
			}
		}(int64(i))
	}
	wg.Wait()
}

// The batched path must stay within one heap allocation per job per round in
// steady state: the request, its completion channel and the dispatcher
// scratch are all reused.
func TestBatchedAllocRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	g := testGeom()
	const members = 4
	const rounds = 50
	p := New(Options{Window: time.Second})
	ms := make([]*Member, members)
	for i := range ms {
		var err error
		if ms[i], err = p.Join(g, filter.SheppLogan); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	imgs := make([]*volume.Image, members)
	for i := range imgs {
		imgs[i] = randProj(rng, g)
	}
	runRounds := func(k int) {
		var wg sync.WaitGroup
		for i := 0; i < members; i++ {
			wg.Add(1)
			go func(m *Member, img *volume.Image) {
				defer wg.Done()
				for r := 0; r < k; r++ {
					if _, err := m.Filter(context.Background(), img); err != nil {
						t.Error(err)
						return
					}
				}
			}(ms[i], imgs[i])
		}
		wg.Wait()
	}
	runRounds(4) // warm the scratch and pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runRounds(rounds)
	runtime.ReadMemStats(&after)
	perJobRound := float64(after.Mallocs-before.Mallocs) / (members * rounds)
	t.Logf("batched filtering: %.2f allocs/job/round", perJobRound)
	if perJobRound > 1 {
		t.Fatalf("batched filtering allocates %.2f objects/job/round, want <= 1", perJobRound)
	}
	for _, m := range ms {
		m.Close()
	}
}

// Members of different coalescing classes must never share a round, even on
// an identical geometry and window: a preview's decimated sweep riding a
// full-resolution round (or vice versa) would couple the interactive tier's
// latency to batch traffic. Each class fills and flushes on its own.
func TestJoinClassPartitionsRounds(t *testing.T) {
	g := testGeom()
	const perClass = 2
	p := New(Options{Window: time.Second}) // flush on full rounds only
	flt, err := filter.Cached(g, filter.Hann)
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"", "preview/2"}
	rng := rand.New(rand.NewSource(7))
	type seat struct {
		in, want *volume.Image
		batch    int
		err      error
	}
	seats := make([]seat, len(classes)*perClass)
	members := make([]*Member, len(seats))
	// Join every member before any filters: a class's full round is
	// len(pending) >= members, so a lone early member filtering before its
	// class-mate joined would flush a round of one.
	for ci, class := range classes {
		for k := 0; k < perClass; k++ {
			i := ci*perClass + k
			seats[i].in = randProj(rng, g)
			if seats[i].want, err = flt.Apply(seats[i].in); err != nil {
				t.Fatal(err)
			}
			if members[i], err = p.JoinClass(g, filter.Hann, class); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(s *seat, m *Member) {
			defer wg.Done()
			defer m.Close()
			s.batch, s.err = m.Filter(context.Background(), s.in)
		}(&seats[i], m)
	}
	wg.Wait()
	for i := range seats {
		if seats[i].err != nil {
			t.Fatalf("seat %d: %v", i, seats[i].err)
		}
		// A full round within the class, never a cross-class merge.
		if seats[i].batch != perClass {
			t.Errorf("seat %d: batch %d, want %d (own class only)", i, seats[i].batch, perClass)
		}
		for k, v := range seats[i].want.Data {
			if seats[i].in.Data[k] != v {
				t.Fatalf("seat %d: filtered pixel %d = %v, want %v", i, k, seats[i].in.Data[k], v)
			}
		}
	}
}
