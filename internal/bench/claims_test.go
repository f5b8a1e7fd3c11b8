package bench

import (
	"encoding/json"
	"io/fs"
	"os"
	"strings"
	"testing"
)

// readClaimSamples decodes a file of recorded gate samples afresh, so a
// test may mutate them.
func readClaimSamples(t *testing.T, fsys fs.FS, name string) []ClaimSample {
	t.Helper()
	b, err := fs.ReadFile(fsys, name)
	if err != nil {
		t.Fatal(err)
	}
	var samples []ClaimSample
	if err := json.Unmarshal(b, &samples); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestClaimReferenceCoversGateSeeds checks that every reference file
// holds one sample per gate seed, in seed order.
func TestClaimReferenceCoversGateSeeds(t *testing.T) {
	refs := claimReference()
	if len(refs) != 2 {
		t.Fatalf("%d reference samplers, want Box–Muller and ziggurat", len(refs))
	}
	for _, ref := range refs {
		if len(ref.samples) != len(claimSeeds) {
			t.Fatalf("%s: %d samples for %d gate seeds", ref.sampler, len(ref.samples), len(claimSeeds))
		}
		for i, s := range ref.samples {
			if s.Seed != claimSeeds[i] {
				t.Errorf("%s: sample %d has seed %d, want %d", ref.sampler, i, s.Seed, claimSeeds[i])
			}
		}
	}
}

// TestClaimsPassOnReferenceSamples judges each reference sampler's
// samples on their own: the gate must accept both samplers its bands
// were derived from.
func TestClaimsPassOnReferenceSamples(t *testing.T) {
	for _, ref := range claimReference() {
		rows := CheckClaims(ref.samples, 2)
		if len(rows) != len(claims) {
			t.Fatalf("%d gate rows for %d claims", len(rows), len(claims))
		}
		for _, r := range rows {
			if r.Status != GateOK || r.Experiment != gateStatusExperiment || !strings.HasPrefix(r.Gate, "claim_") {
				t.Errorf("%s: %+v", ref.sampler, r)
			}
		}
	}
}

// TestClaimsFailWrongSamplers judges the gate's recorded samples under two
// wrong Thompson samplers: a Beta that returns its mean a/(a+b), and one
// that draws Beta(b, a). Each must fail at least one claim.
func TestClaimsFailWrongSamplers(t *testing.T) {
	for _, name := range []string{"claims_betamean.json", "claims_betaswap.json"} {
		failed := 0
		for _, r := range CheckClaims(readClaimSamples(t, os.DirFS("testdata"), name), 2) {
			if r.Status == GateFailed {
				failed++
				t.Logf("%s: %s: %s", name, r.Gate, r.Reason)
			}
		}
		if failed == 0 {
			t.Errorf("%s: every claim passes", name)
		}
	}
}

// TestClaimsCatchShapeViolations breaks one figure's shape at a time in
// the Box–Muller reference samples and checks that exactly that claim
// fails. The Fig*Shapes tests check the same shapes on the live figures
// of one seed.
func TestClaimsCatchShapeViolations(t *testing.T) {
	cases := []struct {
		gate   string
		mutate func(s *ClaimSample)
	}{
		// Fig. 9: L=1000 < 2·Lmax must not beat L=2000.
		{"claim_fig9_window_length", func(s *ClaimSample) { s.Window["TMerge"][0].REC = s.Window["TMerge"][1].REC + 0.2 }},
		// Fig. 11: SORT fragments at least as much as Tracktor.
		{"claim_fig11_polyonymous_rate", func(s *ClaimSample) {
			s.Trackers[0].Rate, s.Trackers[len(s.Trackers)-1].Rate = s.Trackers[len(s.Trackers)-1].Rate, s.Trackers[0].Rate+0.01
		}},
		// Fig. 11: TMerge must leave few polyonymous pairs unselected.
		{"claim_fig11_polyonymous_rate", func(s *ClaimSample) {
			for i := range s.Trackers {
				s.Trackers[i].ResidualRate = s.Trackers[i].Rate / 2
			}
		}},
		// Fig. 12: merging must not lower IDF1.
		{"claim_fig12_identity", func(s *ClaimSample) { s.Identity.After.IDF1 = s.Identity.Before.IDF1 - 0.01 }},
		// Fig. 13: merging must not lower either query's recall.
		{"claim_fig13_query_recall", func(s *ClaimSample) { s.Queries.CountAfter = s.Queries.CountBefore - 0.2 }},
		{"claim_fig13_query_recall", func(s *ClaimSample) { s.Queries.CoOccurAfter = s.Queries.CoOccurBefore }},
		// Fig. 8: dropping BetaInit must cost recall.
		{"claim_fig8_betainit", func(s *ClaimSample) { s.Ablations[1] = s.Ablations[0] }},
		// Fig. 5: TMerge must beat LCB at equal budget.
		{"claim_fig5_fps_at_equal_rec", func(s *ClaimSample) {
			s.LCB.Points = append([]Point(nil), s.Ablations[0].Points...)
			for i := range s.LCB.Points {
				s.LCB.Points[i].REC += 0.1
			}
		}},
		// Fig. 3: the exhaustive baseline must reach 0.95 near K=0.05.
		{"claim_fig3_exhaustive_rec", func(s *ClaimSample) { s.RecK[4].REC = 0.9 }},
	}
	for _, c := range cases {
		samples := readClaimSamples(t, claimRefs, "claimsref/boxmuller.json")
		for i := range samples {
			c.mutate(&samples[i])
		}
		for _, r := range CheckClaims(samples, 2) {
			if want := r.Gate == c.gate; (r.Status == GateFailed) != want {
				t.Errorf("breaking %s: %s is %s: %s", c.gate, r.Gate, r.Status, r.Reason)
			}
		}
	}
}
