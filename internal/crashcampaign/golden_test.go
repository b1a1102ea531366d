package crashcampaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Golden digests pin the campaign's output bytes for the minimizer
// scenario of TestMinimizerProducesReproducer: a refactor of the sweep,
// the classifier, the minimizer or the artifact writer must leave them
// unchanged. A deliberate change to the modeled behaviour updates them
// and says why in CHANGES.md.
const (
	goldenMinimizerReport    = "1f22f2406a6a9e94d24b4b5c4f6125c18e0653921960a5336321b521ca89c678"
	goldenMinimizerArtifacts = "730fe513c44952f2f3b61f945bc98e6b346e52342abadf0be227d201212d2ff9"
)

// TestGoldenMinimizerReport hashes the report (with the temporary
// artifact root replaced by a fixed token) and every artifact file, in
// path order, keyed by its path below the root.
func TestGoldenMinimizerReport(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.StringSwap}
	c.Schemes = []core.Scheme{core.PMEMNoLog}
	c.Sweep = 220
	c.Minimize = MinimizeAll
	root := t.TempDir()
	c.ArtifactDir = root
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	report := bytes.ReplaceAll(buf.Bytes(), []byte(root), []byte("ARTIFACTS"))
	sum := sha256.Sum256(report)
	if got := hex.EncodeToString(sum[:]); got != goldenMinimizerReport {
		t.Errorf("report sha256 = %s, want %s", got, goldenMinimizerReport)
	}

	h := sha256.New()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("campaign wrote no artifacts")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenMinimizerArtifacts {
		t.Errorf("artifacts (%d files) sha256 = %s, want %s", files, got, goldenMinimizerArtifacts)
	}
}
