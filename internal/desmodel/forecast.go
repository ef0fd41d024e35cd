package desmodel

// Online arrival-rate forecasting for the predictive scaler (doc.go
// "Predictive scaling & drain-aware routing").
//
// Forecast is Holt-style double exponential smoothing: a smoothed level
// plus a smoothed trend, so a steadily rising arrival rate projects
// forward instead of lagging one EWMA time-constant behind. State is two
// float64s and two coefficients — fixed size regardless of stream length,
// which is what lets one Forecast live inline on every (cluster, model)
// deployment without an allocation anywhere on the observe/predict path.
//
// The zero value is ready to use but observes nothing until coefficients
// are set; construct with NewForecast. With Beta == 0 the trend term stays
// zero and the forecaster degrades to a plain seeded EWMA (the shape the
// scaler uses for the service-rate estimate).

// Forecast holds double-exponential-smoothing state for one scalar
// series. All methods are allocation-free.
type Forecast struct {
	// Alpha smooths the level, Beta the trend; both in (0, 1]. Larger
	// values track the stream faster and remember less.
	Alpha, Beta float64

	level  float64
	trend  float64
	seeded bool
}

// NewForecast returns a forecaster with the given smoothing coefficients
// (Beta 0 for EWMA mode).
func NewForecast(alpha, beta float64) Forecast { return Forecast{Alpha: alpha, Beta: beta} }

// Default smoothing coefficients for the predictive scaler: level tracks
// at α=0.5 (half-life about one scaler tick, fast enough to catch a
// burst's leading edge) and trend at β=0.2 (slow enough that one spiky
// tick does not project a runaway slope).
const (
	defaultForecastAlpha = 0.5
	defaultForecastBeta  = 0.2
)

// Observe feeds one sample (e.g. arrivals counted during the last scaler
// tick). The first sample seeds the level exactly, so early predictions
// do not decay up from zero; the trend seeds at zero and only develops from the second
// sample on. Non-finite samples (NaN, ±Inf) are dropped so one corrupt
// observation cannot poison the state forever.
//
//first:hotpath pinned by the forecast AllocsPerRun sweep (forecast_test.go)
func (f *Forecast) Observe(x float64) {
	if x != x || x > maxForecastSample || x < -maxForecastSample {
		return
	}
	if !f.seeded {
		f.level, f.trend, f.seeded = x, 0, true
		return
	}
	prev := f.level
	f.level = f.Alpha*x + (1-f.Alpha)*(f.level+f.trend)
	f.trend = f.Beta*(f.level-prev) + (1-f.Beta)*f.trend
}

// maxForecastSample rejects samples (and caps horizons) far beyond any
// real per-tick count, keeping every prediction finite.
const maxForecastSample = 1e15

// Predict returns the forecast h steps ahead: level + h·trend, clamped
// to be non-negative (an arrival rate cannot go below zero, however
// steep the downward trend). Before any observation it returns 0.
//
//first:hotpath pinned by the forecast AllocsPerRun sweep (forecast_test.go)
func (f *Forecast) Predict(h float64) float64 {
	if !f.seeded {
		return 0
	}
	if h < 0 {
		h = 0
	} else if h > maxForecastSample {
		h = maxForecastSample
	}
	v := f.level + h*f.trend
	if v < 0 || v != v {
		return 0
	}
	return v
}

// PredictSum returns the forecast total over the next h whole steps:
// Σ_{i=1..h} max(0, level + i·trend). The scaler uses this as "arrivals
// expected during one cold start". Negative per-step forecasts clamp at
// zero step-wise (the closed form switches to the triangle above the
// zero crossing), so a steep down-trend predicts an early-quiet horizon
// rather than negative arrivals cancelling real ones.
//
//first:hotpath pinned by the forecast AllocsPerRun sweep (forecast_test.go)
func (f *Forecast) PredictSum(h int) float64 {
	if !f.seeded || h <= 0 {
		return 0
	}
	if float64(h) > maxForecastSample {
		h = int(maxForecastSample)
	}
	n := float64(h)
	if f.trend >= 0 {
		v := n*f.level + f.trend*n*(n+1)/2
		if v < 0 || v != v {
			return 0
		}
		return v
	}
	// Down-trend: per-step forecasts hit zero at i0 = -level/trend; only
	// steps 1..min(h, floor(i0)) contribute.
	if f.level <= 0 {
		return 0
	}
	last := -f.level / f.trend // last i with a positive forecast, fractional
	if n > last {
		n = float64(int(last))
		if n <= 0 {
			return 0
		}
	}
	v := n*f.level + f.trend*n*(n+1)/2
	if v < 0 || v != v {
		return 0
	}
	return v
}

// Level exposes the smoothed level (the scaler's service-rate EWMA reads
// this). Zero before any observation.
//
//first:hotpath pinned by the forecast AllocsPerRun sweep (forecast_test.go)
func (f *Forecast) Level() float64 { return f.level }

// Seeded reports whether at least one sample has been observed.
func (f *Forecast) Seeded() bool { return f.seeded }
