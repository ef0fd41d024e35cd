package desmodel

import (
	"math"
	"testing"
	"unsafe"

	"github.com/argonne-first/first/internal/sim"
)

const forecastTol = 1e-9

// TestForecastSeedsWithFirstObservation pins the seeding contract: the
// first sample becomes the level exactly (no decay up from zero) and the
// trend starts flat.
func TestForecastSeedsWithFirstObservation(t *testing.T) {
	f := NewForecast(0.5, 0.2)
	if f.Seeded() {
		t.Fatal("zero-observation forecaster reports Seeded")
	}
	if got := f.Predict(10); got != 0 {
		t.Fatalf("unseeded Predict = %v, want 0", got)
	}
	f.Observe(42)
	if !f.Seeded() {
		t.Fatal("forecaster not Seeded after first observation")
	}
	if got := f.Level(); got != 42 {
		t.Fatalf("level after first observation = %v, want exactly 42", got)
	}
	if got := f.Predict(100); got != 42 {
		t.Fatalf("Predict(100) after one sample = %v, want 42 (flat trend)", got)
	}
}

// TestForecastGoldenHandComputed walks the Holt recurrence by hand at
// α=0.5, β=0.2 over 10, 20, 30 and pins level, trend, and both
// prediction forms against the exact arithmetic.
func TestForecastGoldenHandComputed(t *testing.T) {
	f := NewForecast(0.5, 0.2)
	f.Observe(10) // level 10, trend 0
	f.Observe(20) // level 0.5·20+0.5·10 = 15, trend 0.2·5 = 1
	f.Observe(30) // level 0.5·30+0.5·16 = 23, trend 0.2·8+0.8·1 = 2.4
	if got := f.Level(); math.Abs(got-23) > forecastTol {
		t.Fatalf("level = %v, want 23", got)
	}
	if got := f.Predict(2); math.Abs(got-27.8) > forecastTol {
		t.Fatalf("Predict(2) = %v, want 23 + 2·2.4 = 27.8", got)
	}
	// PredictSum(2) = Σ (23 + i·2.4) for i = 1, 2 = 46 + 7.2.
	if got := f.PredictSum(2); math.Abs(got-53.2) > forecastTol {
		t.Fatalf("PredictSum(2) = %v, want 53.2", got)
	}
}

// TestForecastStepTrace drives a step input (0 → 100) and checks the
// forecast converges onto the new plateau with the trend dying back out.
func TestForecastStepTrace(t *testing.T) {
	f := NewForecast(0.5, 0.2)
	for i := 0; i < 20; i++ {
		f.Observe(0)
	}
	if got := f.Predict(5); got != 0 {
		t.Fatalf("flat-zero forecast = %v, want 0", got)
	}
	for i := 0; i < 60; i++ {
		f.Observe(100)
	}
	if got := f.Level(); math.Abs(got-100) > 1e-6 {
		t.Fatalf("post-step level = %v, want ~100", got)
	}
	if got := f.Predict(10); math.Abs(got-100) > 1e-4 {
		t.Fatalf("post-step Predict(10) = %v, want ~100 (trend should decay)", got)
	}
}

// TestForecastRampLeadsReactive is the predictive scaler's reason to
// exist: on a steadily rising ramp the trend term projects ahead of the
// level, so the horizon forecast exceeds anything a trendless EWMA (β=0)
// of the same stream reports.
func TestForecastRampLeadsReactive(t *testing.T) {
	holt := NewForecast(0.5, 0.2)
	ewma := NewForecast(0.5, 0)
	for i := 0; i < 50; i++ {
		x := float64(10 * i)
		holt.Observe(x)
		ewma.Observe(x)
	}
	if holt.Predict(5) <= holt.Level() {
		t.Fatalf("ramp Predict(5)=%v not above level %v", holt.Predict(5), holt.Level())
	}
	if holt.Predict(5) <= ewma.Predict(5) {
		t.Fatalf("holt Predict(5)=%v does not lead the trendless EWMA's %v on a ramp",
			holt.Predict(5), ewma.Predict(5))
	}
	// The EWMA variant must stay trendless: its h-step prediction is its
	// level, whatever the ramp does.
	if ewma.Predict(5) != ewma.Level() {
		t.Fatalf("β=0 Predict(5)=%v differs from level %v", ewma.Predict(5), ewma.Level())
	}
}

// TestForecastDiurnalBursty runs the experiment family's two shapes
// through the forecaster and bounds the predictions: finite, non-negative,
// and never beyond a small multiple of the trace peak (a diverging trend
// would blow through this on the sinusoid's rising edge).
func TestForecastDiurnalBursty(t *testing.T) {
	shapes := []struct {
		name  string
		shape func(i int) float64
	}{
		{"diurnal", func(i int) float64 {
			return 50 * (1 + 0.75*math.Sin(2*math.Pi*float64(i)/48))
		}},
		{"bursty", func(i int) float64 {
			if i%10 < 4 {
				return 200
			}
			return 25
		}},
	}
	for _, sc := range shapes {
		name, shape := sc.name, sc.shape
		f := NewForecast(0.5, 0.2)
		peak := 0.0
		for i := 0; i < 500; i++ {
			x := shape(i)
			if x > peak {
				peak = x
			}
			f.Observe(x)
			for _, h := range []float64{0, 1, 3, 10} {
				p := f.Predict(h)
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("%s step %d: Predict(%v) = %v", name, i, h, p)
				}
				if p > 4*peak {
					t.Fatalf("%s step %d: Predict(%v) = %v diverged past 4×peak %v", name, i, h, p, peak)
				}
			}
			if s := f.PredictSum(10); math.IsNaN(s) || s < 0 || s > 40*peak {
				t.Fatalf("%s step %d: PredictSum(10) = %v out of bounds", name, i, s)
			}
		}
	}
}

// TestForecastPropertyFiniteNonNegative fuzzes the input stream with
// extreme magnitudes, negatives, NaN, and ±Inf: every prediction must stay
// finite and non-negative, and non-finite samples must not poison the
// state (the next finite observation keeps working).
func TestForecastPropertyFiniteNonNegative(t *testing.T) {
	rng := sim.NewRNG(20251015)
	f := NewForecast(0.5, 0.2)
	for i := 0; i < 20000; i++ {
		var x float64
		switch rng.Intn(8) {
		case 0:
			x = math.NaN()
		case 1:
			x = math.Inf(1)
		case 2:
			x = math.Inf(-1)
		case 3:
			x = -math.Exp(40 * rng.Float64())
		default:
			x = math.Exp(40*rng.Float64() - 20)
		}
		f.Observe(x)
		h := float64(rng.Intn(1000))
		if p := f.Predict(h); math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("step %d: Predict(%v) = %v after observing %v", i, h, p, x)
		}
		if s := f.PredictSum(int(h)); math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("step %d: PredictSum(%v) = %v after observing %v", i, h, s, x)
		}
		if l := f.Level(); math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("step %d: level went non-finite (%v) after observing %v", i, l, x)
		}
	}
}

// TestForecastDownTrendSumClamps pins PredictSum's step-wise clamp: with a
// steep down-trend the per-step forecasts cross zero inside the horizon
// and the steps beyond the crossing must contribute nothing (not negative
// arrivals cancelling real ones).
func TestForecastDownTrendSumClamps(t *testing.T) {
	f := NewForecast(0.5, 0.2)
	f.Observe(400) // level 400, trend 0
	f.Observe(350) // level 375, trend −5
	f.Observe(300) // level 335, trend −12
	if got := f.Level(); math.Abs(got-335) > forecastTol {
		t.Fatalf("level = %v, want 335", got)
	}
	// Per-step forecasts 335 − 12i cross zero at i ≈ 27.9: steps 1..27
	// contribute, everything after clamps to zero, so the thousand-step
	// sum equals 27·335 − 12·(27·28/2) = 4509 — not 1000 steps of
	// increasingly negative arrivals netted against the real ones.
	if got := f.PredictSum(1000); math.Abs(got-4509) > forecastTol {
		t.Fatalf("down-trend PredictSum(1000) = %v, want 4509 (clamped at the zero crossing)", got)
	}
	// Inside the crossing the plain triangle applies: 3·335 − 12·6 = 933.
	if got := f.PredictSum(3); math.Abs(got-933) > forecastTol {
		t.Fatalf("down-trend PredictSum(3) = %v, want 933", got)
	}
}

// TestForecastStateSizeConstant pins the fixed-size-state contract: a
// Forecast is a flat value (no pointers, slices, or maps to grow), small
// enough to live inline on every deployment.
func TestForecastStateSizeConstant(t *testing.T) {
	if sz := unsafe.Sizeof(Forecast{}); sz > 48 {
		t.Fatalf("Forecast grew to %d bytes; the per-deployment inline budget is 48", sz)
	}
	// Value semantics: a copy diverges independently, proving there is no
	// hidden shared state behind the struct.
	a := NewForecast(0.5, 0.2)
	a.Observe(10)
	b := a
	b.Observe(1000)
	if a.Level() != 10 {
		t.Fatalf("copying a Forecast shares state: original level moved to %v", a.Level())
	}
}

// TestForecastAllocs pins the observe/predict hot path at 0 allocs/op —
// the forecaster runs inside every scaler tick of every deployment.
func TestForecastAllocs(t *testing.T) {
	f := NewForecast(0.5, 0.2)
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		f.Observe(17)
		sink = f.Predict(6) + f.PredictSum(6) + f.Level()
	})
	if allocs != 0 {
		t.Fatalf("forecast observe/predict path allocates %v/op, want 0", allocs)
	}
	_ = sink
}
