package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/argonne-first/first/internal/chaosnet"
	"github.com/argonne-first/first/internal/desmodel"
)

// calRow builds a synthetic row with the given rung counts and re-route
// pressure on both sides.
func calRow(reqs int, liveA, liveC int64, liveFO int64, simA, simC int64, simMigr int64) LiveFedRow {
	r := LiveFedRow{Requests: reqs, RungActive: liveA, RungCapacity: liveC, FailoverAttempts: liveFO}
	r.Sim.Offered = reqs
	r.Sim.Rungs = desmodel.FedRungs{Active: simA, Capacity: simC}
	r.Sim.Migrations = simMigr
	return r
}

// TestCalibrationTolerances pins the gate arithmetic on synthetic rows:
// which gaps pass, which trip, and how degenerate rates are handled.
func TestCalibrationTolerances(t *testing.T) {
	cases := []struct {
		name     string
		row      LiveFedRow
		wantPass bool
		wantWord string // substring expected in a violation, "" = none
	}{
		{
			name:     "identical sides pass",
			row:      calRow(1000, 900, 100, 150, 900, 100, 150),
			wantPass: true,
		},
		{
			name:     "gap inside tolerance passes",
			row:      calRow(1000, 920, 80, 150, 900, 100, 150), // 2 pts
			wantPass: true,
		},
		{
			name:     "rung gap past 5 pts trips",
			row:      calRow(1000, 1000, 0, 150, 900, 100, 150), // 10 pts
			wantPass: false,
			wantWord: "rung share gap",
		},
		{
			name:     "rate ratio past 2x trips",
			row:      calRow(1000, 900, 100, 200, 900, 100, 50), // 0.2 vs 0.05 = 4x
			wantPass: false,
			wantWord: "ratio",
		},
		{
			name:     "one-sided re-routing trips hard",
			row:      calRow(1000, 900, 100, 200, 900, 100, 0), // live 0.2, sim 0
			wantPass: false,
			wantWord: "ratio",
		},
		{
			name:     "both sides too quiet to compare pass vacuously",
			row:      calRow(1000, 900, 100, 5, 900, 100, 0), // 0.005 vs 0
			wantPass: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cal := c.row.Calibrate()
			if cal.Pass != c.wantPass {
				t.Fatalf("Pass = %v, want %v (cal %+v)", cal.Pass, c.wantPass, cal)
			}
			if c.wantWord != "" {
				found := false
				for _, v := range cal.Violations {
					if strings.Contains(v, c.wantWord) {
						found = true
					}
				}
				if !found {
					t.Errorf("violations %v missing %q", cal.Violations, c.wantWord)
				}
			}
		})
	}
}

// TestWriteCalibArtifact round-trips a divergent cell's artifact: the
// preserved schedule must read back canonical-identical (so the offline
// replay is the same storm), and the verdict must carry the violations.
func TestWriteCalibArtifact(t *testing.T) {
	dir := t.TempDir()
	row := calRow(500, 500, 0, 100, 400, 100, 10)
	row.Clusters = 2
	row.Schedule = LiveFedCellsShort[0].BuildSchedule(0xabc)
	cal := row.Calibrate()
	if cal.Pass {
		t.Fatal("synthetic divergent row unexpectedly passed")
	}
	schedPath, err := WriteCalibArtifact(dir, row, cal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chaosnet.ReadSchedule(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(row.Schedule.Canonical(), got.Canonical()) {
		t.Error("preserved schedule is not canonical-identical to the executed one")
	}
	verdict, err := os.ReadFile(filepath.Join(dir, "livefed_c2_r500_verdict.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Calibration
	if err := json.Unmarshal(verdict, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pass || len(back.Violations) == 0 {
		t.Errorf("verdict artifact lost the failure: %+v", back)
	}
}

// TestLiveFedCalibrationGate is the per-PR gate (`make calibrate`): the
// short live storm and its DES twin — one executed schedule, two executors
// — must land within tolerance, and both sides must actually have been
// stormy enough for the comparison to mean something.
func TestLiveFedCalibrationGate(t *testing.T) {
	rows := RunLiveFedCellsOn(Sequential, DefaultSeed, LiveFedCellsShort)
	for _, r := range rows {
		if r.Sim.Offered == 0 || r.Sim.M.Completed == 0 {
			t.Fatalf("c%d: sim twin did not run: %+v", r.Clusters, r.Sim)
		}
		if r.Sim.Offered != r.Requests || int64(r.Sim.M.Completed)+r.SimFailed != int64(r.Requests) {
			t.Errorf("c%d: twin offered %d, completed %d and failed %d of %d requests (conservation broken)",
				r.Clusters, r.Sim.Offered, r.Sim.M.Completed, r.SimFailed, r.Requests)
		}
		la, _, _ := rungShares(r.RungActive, r.RungCapacity, r.RungFirstConf)
		sa, _, _ := rungShares(r.Sim.Rungs.Active, r.Sim.Rungs.Capacity, r.Sim.Rungs.FirstConf)
		if la < 50 || sa < 50 {
			t.Errorf("c%d: active-rung share live %.1f%% / sim %.1f%%, want majorities", r.Clusters, la, sa)
		}
		if r.FailoverAttempts == 0 {
			t.Errorf("c%d: live side saw no failover attempts under the storm", r.Clusters)
		}
		if r.Sim.Migrations == 0 {
			t.Errorf("c%d: sim twin saw no migrations — replayed storm too quiet", r.Clusters)
		}
		if r.Sim.HardKills == 0 {
			t.Errorf("c%d: twin replayed no hard kills — schedule events did not fire", r.Clusters)
		}
		cal := r.Calibrate()
		if !cal.Pass {
			t.Errorf("c%d: calibration gate FAILED: %v", r.Clusters, cal.Violations)
		}
		t.Logf("c%d: rung gap %.2f pts (≤%.1f), ratio %.2fx (≤%.1fx), live fo/req %.4f vs sim migr/req %.4f, failed live %d vs sim %d",
			r.Clusters, cal.RungGapPts, CalibRungTolerancePts,
			cal.RateRatio, CalibRateRatioMax, cal.LiveFailoverPerReq, cal.SimMigrationsPerReq,
			r.Shed+r.TypedErr, r.SimFailed)
	}
}
