package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"neusight/internal/predict"
	"neusight/internal/promtext"
)

// TestMetricsGolden pins the cluster families of /metrics byte for byte:
// testdata/metrics.golden was rendered by the commit before the shared
// exposition writer (internal/promtext) from this fixture — a member with
// three peers (one suspect, one dead) and every counter distinct. Since
// then only the 307 counter's and the joins-accepted counter's families
// have left it and the steered family's help text has changed.
func TestMetricsGolden(t *testing.T) {
	n, err := NewNode(Config{
		Self:     "10.0.0.1:8080",
		Peers:    []string{"10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"},
		Registry: predict.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.members["10.0.0.3:8080"].state = MemberSuspect
	n.members["10.0.0.4:8080"].state = MemberDead
	// The second slot held the deleted 307 counter and the thirteenth the
	// deleted joins-accepted counter; stand-ins keep every later counter's
	// value, and so its golden line, unchanged.
	for i, c := range []interface{ Store(uint64) }{
		&n.steered, new(atomic.Uint64), &n.proxied, &n.misrouted, &n.proxyFailures, &n.proxyTimeouts,
		&n.failedOver, &n.relayErrors, &n.probes, &n.probeFailures, &n.evictions, &n.readmissions,
		new(atomic.Uint64), &n.authRejected, &n.pushes, &n.pushFailures, &n.polls, &n.pollFailures,
		&n.absorbed, &n.invalidations, &n.droppedEntries, &n.planEvalsServed, &n.planEvalCells,
	} {
		c.Store(uint64(1000 + 37*i))
	}
	n.proxied.Store(1234567) // large enough to print in exponent form

	var buf bytes.Buffer
	p := promtext.NewWriter(&buf)
	n.WriteMetrics(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cluster metrics differ from the golden bytes\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
