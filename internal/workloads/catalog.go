package workloads

import "fmt"

// CatalogNames lists the workloads constructible by name through ByName,
// in a stable order (for -list, error messages and API listings).
func CatalogNames() []string {
	return []string{"vecadd", "vecadd-prefetch", "vecadd-coalesced", "regular", "random", "stream",
		"sgemm", "dgemm", "fft", "gauss-seidel", "hpgmg", "spmv"}
}

// ByName builds the named workload from the shared knobs: mb is the
// footprint in MiB (stream/regular/random/fft/hpgmg), n the problem
// dimension (sgemm/dgemm/gauss-seidel/spmv), seed the workload RNG seed
// (random/spmv). A size the workload cannot run with is rejected here,
// so no caller meets it later as a panic mid-run. The returned
// constructor is reusable — each call builds a fresh workload with fresh
// seeded RNG state, so one grid point never perturbs another. uvmsim,
// uvmsweep and the sweepd service resolve workload names through this
// one catalogue, which keeps their names and config digests comparable.
func ByName(name string, mb uint64, n int, seed uint64) (func() Workload, error) {
	bytes := mb << 20
	var mk func() Workload
	switch name {
	case "vecadd":
		mk = func() Workload { return NewVecAddPaper() }
	case "vecadd-prefetch":
		mk = func() Workload { return NewVecAddPrefetch() }
	case "vecadd-coalesced":
		mk = func() Workload { return NewVecAddCoalesced() }
	case "regular":
		mk = func() Workload { return NewRegular(bytes, 160) }
	case "random":
		mk = func() Workload { return NewRandom(bytes, 160, 300, seed) }
	case "stream":
		mk = func() Workload { return NewStream(bytes, 24) }
	case "sgemm":
		mk = func() Workload { return NewSGEMM(n) }
	case "dgemm":
		mk = func() Workload { return NewDGEMM(n) }
	case "fft":
		mk = func() Workload { return NewFFT(int(bytes/8), 10) }
	case "gauss-seidel":
		mk = func() Workload { return NewGaussSeidel(n, 3) }
	case "hpgmg":
		mk = func() Workload { return NewHPGMG(bytes, 1) }
	case "spmv":
		mk = func() Workload { return NewSpMV(n*n/64, 16, seed) }
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q (valid: %v)", name, CatalogNames())
	}
	switch name {
	case "sgemm", "dgemm", "gauss-seidel", "spmv":
		if n <= 0 {
			return nil, fmt.Errorf("workloads: %s needs n > 0, got %d", name, n)
		}
	}
	if g, ok := mk().(*GEMM); ok && g.N%g.Tile != 0 {
		return nil, fmt.Errorf("workloads: %s n=%d is not a multiple of the %d-element tile", name, n, g.Tile)
	}
	return mk, nil
}
