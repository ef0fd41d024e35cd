package desmodel_test

import (
	"fmt"
	"testing"

	"github.com/argonne-first/first/internal/desmodel"
	"github.com/argonne-first/first/internal/experiments"
)

// TestFamiliesSameWithOfferIgnored runs every short experiment family twice —
// engines skipping the quiet iterations Step offers, and engines stepping
// each one — and requires the same rows, field for field.
func TestFamiliesSameWithOfferIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are long")
	}
	const seed int64 = experiments.DefaultSeed
	families := []struct {
		name string
		run  func() string
	}{
		{"fig3", func() string { return fmt.Sprintf("%+v", experiments.RunFig3On(experiments.Parallel, seed)) }},
		{"fig4", func() string { return fmt.Sprintf("%+v", experiments.RunFig4On(experiments.Parallel, seed)) }},
		{"fig5", func() string { return fmt.Sprintf("%+v", experiments.RunFig5On(experiments.Parallel, seed)) }},
		{"table1", func() string { return fmt.Sprintf("%+v", experiments.RunTable1On(experiments.Parallel, seed)) }},
		{"federate", func() string {
			return fmt.Sprintf("%+v", experiments.RunFederateCellsOn(experiments.Parallel, seed, experiments.FederateCellsShort))
		}},
		{"autoscale", func() string {
			return fmt.Sprintf("%+v", experiments.RunAutoScaleCellsOn(experiments.Parallel, seed, experiments.AutoScaleCellsShort))
		}},
	}
	taken := make([]string, len(families))
	for i, f := range families {
		taken[i] = f.run()
	}
	desmodel.SetIgnoreOffer(true)
	defer desmodel.SetIgnoreOffer(false)
	for i, f := range families {
		if ignored := f.run(); ignored != taken[i] {
			t.Errorf("%s: rows differ between offer taken and offer ignored\ntaken:   %.1500s\nignored: %.1500s", f.name, taken[i], ignored)
		}
	}
}
