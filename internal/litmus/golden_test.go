package litmus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashcampaign"
)

// Golden digests pin the litmus harness's output bytes: a refactor of the
// sweep, the classifier or the artifact writer must leave them unchanged.
// A deliberate change to the modeled behaviour updates them and says why
// in CHANGES.md.
const (
	goldenCuratedReport = "945a3186450891d05b02052b45343edb31c09f654cb71f260b44b88429b2988b"
	goldenRoundTripMeta = "bb7b416deeaa6ca3f65d60159d4b92625ac735340c1909727734a59ed51702b0"
	goldenRoundTripImg  = "4e08c6cbe41fbf2d5f576afab1b247d16dedf9b35720daf4b5fc2d5e2562080e"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// The curated sweep under every fault model: the CI gate's report.
func TestGoldenCuratedReport(t *testing.T) {
	rep, err := Run(context.Background(), Config{Programs: Curated(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha(buf.Bytes()); got != goldenCuratedReport {
		t.Fatalf("curated report sha256 = %s, want %s", got, goldenCuratedReport)
	}
}

// The round-trip reproducer's descriptor and faulted image.
func TestGoldenRoundTripArtifact(t *testing.T) {
	dir, _, _, _ := roundTripArtifact(t)
	for _, f := range []struct{ name, want string }{
		{crashcampaign.MetaFileName, goldenRoundTripMeta},
		{crashcampaign.ImageFileName, goldenRoundTripImg},
	} {
		b, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(b); got != f.want {
			t.Errorf("%s sha256 = %s, want %s", f.name, got, f.want)
		}
	}
}
