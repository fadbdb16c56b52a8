package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// TestGoldenRendersLaneInvariant pins the runner's parallelism contract
// over the whole registry: every experiment renders byte-identically to
// its committed golden with its fan-out run on one worker lane and on
// two. TestGoldenRenders covers the default GOMAXPROCS-wide pool, and
// TestParallelMatchesSerial a wider one on a subset. A diverging byte
// means worker completion order leaked into a merge. Under -short only
// the single-lane pool runs.
func TestGoldenRendersLaneInvariant(t *testing.T) {
	laneCounts := []int{1, 2}
	if testing.Short() {
		laneCounts = laneCounts[:1]
	}
	for _, lanes := range laneCounts {
		lanes := lanes
		for _, e := range All() {
			e := e
			t.Run(fmt.Sprintf("lanes%d/%s", lanes, e.ID), func(t *testing.T) {
				t.Parallel()
				r, err := e.Run(context.Background(), Options{Seed: 42, Quick: true, Parallel: lanes})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				r.Render(&buf)
				want, err := os.ReadFile(goldenPath(e.ID))
				if err != nil {
					t.Fatalf("missing golden for %s: %v", e.ID, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s render on %d worker lanes diverged from the golden:\n%s",
						e.ID, lanes, renderDiff(want, buf.Bytes()))
				}
			})
		}
	}
}
