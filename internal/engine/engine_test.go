package engine

import (
	"math"
	"reflect"
	"testing"

	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
)

// testInstance is a fixed, moderately tangled pricing instance: enough
// structure that every algorithm produces a distinctive result.
func testInstance(t testing.TB) *hypergraph.Hypergraph {
	t.Helper()
	return hypergraph.MustFromEdges(8, []hypergraph.Edge{
		{Items: []int{0}, Valuation: 9},
		{Items: []int{0, 1}, Valuation: 14},
		{Items: []int{1, 2}, Valuation: 11},
		{Items: []int{2, 3, 4}, Valuation: 17},
		{Items: []int{4, 5}, Valuation: 6},
		{Items: []int{5, 6, 7}, Valuation: 13},
		{Items: []int{0, 3, 6}, Valuation: 21},
		{Items: []int{1, 4, 7}, Valuation: 8},
		{Items: []int{0, 1, 2, 3, 4, 5, 6, 7}, Valuation: 30},
		{Items: nil, Valuation: 5}, // empty bundle, always price 0
	})
}

// TestEngineMatchesLegacyCalls asserts that every registered built-in
// produces results identical to the pre-refactor direct function calls on
// the same instance: same revenue, same pricing function parameters.
func TestEngineMatchesLegacyCalls(t *testing.T) {
	h := testInstance(t)
	opts := Options{LPIPMaxCandidates: 6, CIPEpsilon: 0.5}

	legacy := map[string]func() (pricing.Result, error){
		"UBP": func() (pricing.Result, error) { return pricing.UniformBundle(h), nil },
		"UIP": func() (pricing.Result, error) { return pricing.UniformItem(h), nil },
		"LPIP": func() (pricing.Result, error) {
			return pricing.LPItem(h, pricing.LPItemOptions{MaxCandidates: 6})
		},
		"CIP": func() (pricing.Result, error) {
			return pricing.Capacity(h, pricing.CapacityOptions{Epsilon: 0.5})
		},
		"Layering": func() (pricing.Result, error) { return pricing.Layering(h), nil },
		"XOS": func() (pricing.Result, error) {
			lpip, err := pricing.LPItem(h, pricing.LPItemOptions{MaxCandidates: 6})
			if err != nil {
				return pricing.Result{}, err
			}
			cip, err := pricing.Capacity(h, pricing.CapacityOptions{Epsilon: 0.5})
			if err != nil {
				return pricing.Result{}, err
			}
			return pricing.XOS(h, lpip.Weights, cip.Weights), nil
		},
	}

	names := List()
	if len(names) < len(legacy) {
		t.Fatalf("List() = %v, want at least the %d built-ins", names, len(legacy))
	}
	for _, name := range names {
		fn, ok := legacy[name]
		if !ok {
			continue // user-registered extras are out of scope here
		}
		t.Run(name, func(t *testing.T) {
			want, err := fn()
			if err != nil {
				t.Fatalf("legacy %s: %v", name, err)
			}
			got, err := Price(name, h, opts)
			if err != nil {
				t.Fatalf("engine %s: %v", name, err)
			}
			if got.Algorithm != want.Algorithm {
				t.Errorf("Algorithm = %q, want %q", got.Algorithm, want.Algorithm)
			}
			if got.Revenue != want.Revenue {
				t.Errorf("Revenue = %v, want %v", got.Revenue, want.Revenue)
			}
			if got.BundlePrice != want.BundlePrice {
				t.Errorf("BundlePrice = %v, want %v", got.BundlePrice, want.BundlePrice)
			}
			if !reflect.DeepEqual(got.Weights, want.Weights) {
				t.Errorf("Weights = %v, want %v", got.Weights, want.Weights)
			}
			if !reflect.DeepEqual(got.WeightSets, want.WeightSets) {
				t.Errorf("WeightSets = %v, want %v", got.WeightSets, want.WeightSets)
			}
			// The fitted pricing function must agree edge by edge, not just
			// in aggregate.
			for i := 0; i < h.NumEdges(); i++ {
				e := h.Edge(i)
				if gp, wp := got.Price(e), want.Price(e); math.Abs(gp-wp) > 1e-12 {
					t.Errorf("edge %d: Price = %v, want %v", i, gp, wp)
				}
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"UBP", "ubp", "Lpip", "xos"} {
		if _, err := Get(name); err != nil {
			t.Errorf("Get(%q): %v", name, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("Get(nope) succeeded, want error")
	}
	if _, err := Price("nope", testInstance(t), Options{}); err == nil {
		t.Error("Price(nope) succeeded, want error")
	}
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	if err := Register(New("UBP", nil)); err == nil {
		t.Error("duplicate Register(UBP) succeeded, want error")
	}
	if err := Register(New("uBp", nil)); err == nil {
		t.Error("case-variant duplicate Register(uBp) succeeded, want error")
	}
	if err := Register(New("", nil)); err == nil {
		t.Error("Register with empty name succeeded, want error")
	}
}

func TestListOrderStartsWithPaperRoster(t *testing.T) {
	want := []string{"UBP", "UIP", "LPIP", "CIP", "Layering", "XOS"}
	got := List()
	if len(got) < len(want) {
		t.Fatalf("List() = %v, want prefix %v", got, want)
	}
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Errorf("List()[:6] = %v, want %v", got[:len(want)], want)
	}
}

func TestXOSComponentValidation(t *testing.T) {
	h := testInstance(t)
	if _, err := Price("XOS", h, Options{XOSComponents: []string{"XOS"}}); err == nil {
		t.Error("XOS with itself as component succeeded, want error")
	}
	if _, err := Price("XOS", h, Options{XOSComponents: []string{"UBP"}}); err == nil {
		t.Error("XOS over the non-item pricing UBP succeeded, want error")
	}
	res, err := Price("XOS", h, Options{XOSComponents: []string{"UIP", "Layering"}})
	if err != nil {
		t.Fatalf("XOS over UIP+Layering: %v", err)
	}
	if len(res.WeightSets) != 2 {
		t.Errorf("WeightSets count = %d, want 2", len(res.WeightSets))
	}
	if res.Revenue < 0 {
		t.Errorf("XOS revenue = %v, want >= 0", res.Revenue)
	}
}

// TestXOSPrecomputedWeightSets asserts that XOS over precomputed component
// weights matches XOS that runs its components, without re-solving any LPs.
func TestXOSPrecomputedWeightSets(t *testing.T) {
	h := testInstance(t)
	opts := Options{LPIPMaxCandidates: 6, CIPEpsilon: 0.5}
	lpip, err := Price("LPIP", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	cip, err := Price("CIP", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := Price("XOS", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.XOSWeightSets = [][]float64{lpip.Weights, cip.Weights}
	reused, err := Price("XOS", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Revenue != recomputed.Revenue {
		t.Errorf("precomputed XOS revenue = %v, recomputed = %v", reused.Revenue, recomputed.Revenue)
	}
	if !reflect.DeepEqual(reused.WeightSets, recomputed.WeightSets) {
		t.Errorf("precomputed XOS weight sets differ from recomputed")
	}
	if reused.LPSolves != 0 {
		t.Errorf("precomputed XOS solved %d LPs, want 0", reused.LPSolves)
	}
}

// TestWorkersDoNotChangeResults runs the LP-based algorithms, and XOS over
// them, serially and over a worker pool: every result must be identical.
func TestWorkersDoNotChangeResults(t *testing.T) {
	h := testInstance(t)
	for _, name := range []string{"LPIP", "CIP", "XOS"} {
		serial, err := Price(name, h, Options{CIPEpsilon: 0.2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Price(name, h, Options{CIPEpsilon: 0.2, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		serial.Runtime, pooled.Runtime = 0, 0
		if !reflect.DeepEqual(serial, pooled) {
			t.Errorf("%s: workers=1 %+v, workers=3 %+v", name, serial, pooled)
		}
	}
}
