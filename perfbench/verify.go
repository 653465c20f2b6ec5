package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/preview"
	"ifdk/internal/ct/projector"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// maxRelRMSE is the paper's bound on the distributed result against the
// serial FDK reference.
const maxRelRMSE = 1e-5

var (
	phantoms = []string{"shepplogan", "sphere", "industrial"}
	windows  = []filter.Window{filter.RamLak, filter.SheppLogan, filter.Cosine, filter.Hamming, filter.Hann}
)

// scan identifies one synthetic dataset: what the service stages once and
// every window of it reconstructs from.
type scan struct {
	phantom    string
	nx, nu, np int
}

func scanOf(s api.Spec) scan { return scan{s.Phantom, s.NX, s.NU, s.NP} }

// spec is a full-quality request for the scan on the 2×2 grid.
func (sc scan) spec(win filter.Window) api.Spec {
	return api.Spec{Phantom: sc.phantom, NX: sc.nx, NU: sc.nu, NP: sc.np, R: 2, C: 2, Window: win.String()}
}

func (sc scan) geometry() geometry.Params {
	return geometry.Default(sc.nu, sc.nu, sc.np, sc.nx, sc.nx, sc.nx)
}

// object is the phantom the service renders for this scan's name.
func (sc scan) object() (phantom.Phantom, error) {
	r := sc.geometry().FOVRadius() * 0.9
	switch sc.phantom {
	case "shepplogan":
		return phantom.SheppLogan3D(r), nil
	case "sphere":
		return phantom.UniformSphere(r*0.6, 1), nil
	case "industrial":
		return phantom.IndustrialBlock(r), nil
	}
	return phantom.Phantom{}, fmt.Errorf("unknown phantom %q", sc.phantom)
}

func parseWindow(name string) (filter.Window, error) {
	for _, w := range windows {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("unknown window %q", name)
}

// references computes the expected outputs independently of the service:
// projections from the analytic projector, full volumes from serial
// fdk.Reconstruct, previews from preview.Plan.Reconstruct. Each is computed
// once per run and reused.
type references struct {
	mu   sync.Mutex
	proj map[scan][]*volume.Image
	vols map[refKey]*volume.Volume
}

type refKey struct {
	scan
	window  string
	preview bool
}

func newReferences() *references {
	return &references{proj: map[scan][]*volume.Image{}, vols: map[refKey]*volume.Volume{}}
}

func (r *references) projections(sc scan) ([]*volume.Image, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.proj[sc]; ok {
		return p, nil
	}
	ph, err := sc.object()
	if err != nil {
		return nil, err
	}
	p := projector.AnalyticAll(ph, sc.geometry(), 0)
	r.proj[sc] = p
	return p, nil
}

// volume is the reference for a full-quality (preview=false) or preview
// result of spec.
func (r *references) volume(spec api.Spec, wantPreview bool) (*volume.Volume, error) {
	sc := scanOf(spec)
	key := refKey{sc, spec.Window, wantPreview}
	r.mu.Lock()
	v, ok := r.vols[key]
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	win, err := parseWindow(spec.Window)
	if err != nil {
		return nil, err
	}
	proj, err := r.projections(sc)
	if err != nil {
		return nil, err
	}
	g := sc.geometry()
	if wantPreview {
		plan, err := preview.PlanFor(g, 0)
		if err != nil {
			return nil, err
		}
		read := func(dst *volume.Image, s int) error { copy(dst.Data, proj[s].Data); return nil }
		v, _, err = plan.Reconstruct(context.Background(), read, preview.Options{Window: win})
	} else {
		v, err = fdk.Reconstruct(g, proj, fdk.Config{Window: win})
	}
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.vols[key] = v
	r.mu.Unlock()
	return v, nil
}

// precompute fills the references of every spec before the first round,
// so each round runs beside the same live heap.
func (r *references) precompute(specs []api.Spec) error {
	for _, s := range specs {
		if _, err := r.volume(s, false); err != nil {
			return err
		}
		if s.Quality == api.QualityProgressive {
			if _, err := r.volume(s, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// relRMSE is the RMSE of got against ref relative to ref's largest
// magnitude, as the service's own verification defines it.
func relRMSE(ref, got *volume.Volume) (float64, error) {
	rmse, err := volume.RMSE(ref, got)
	if err != nil {
		return 0, err
	}
	s := ref.Summarize()
	if scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max))); scale > 0 {
		rmse /= scale
	}
	return rmse, nil
}

// sameBits reports whether two volumes have the same shape and the same
// float32 bit patterns voxel for voxel.
func sameBits(a, b *volume.Volume) bool {
	if a == nil || b == nil || a.Nx != b.Nx || a.Ny != b.Ny || a.Nz != b.Nz || a.Layout != b.Layout {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
