package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/predict"
)

// ringGolden renders the primary and replica of every catalog engine on
// every registered GPU, for a fixed 3-member and a fixed 5-member cluster.
// The registry is empty, so each engine hashes by its name.
func ringGolden(t *testing.T) []byte {
	var buf bytes.Buffer
	addrs := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080", "10.0.0.5:8080"}
	for _, size := range []int{3, 5} {
		n, err := NewNode(Config{Self: addrs[0], Peers: addrs[1:size], Registry: predict.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range predict.Catalog() {
			for _, g := range gpu.All() {
				primary, replica := n.Owners(info.Name, g.Name)
				fmt.Fprintf(&buf, "members=%d %s|%s primary=%s replica=%s\n", size, info.Name, g.Name, primary, replica)
			}
		}
	}
	return buf.Bytes()
}

// TestRingGolden pins the member ring's placement byte for byte:
// testdata/ring.golden was written by the commit before the member ring
// and the shard ring became one package (internal/ring), so the hash and
// the point labels every member of a running cluster agrees on cannot
// drift. Never regenerate it from the current code.
func TestRingGolden(t *testing.T) {
	got := ringGolden(t)
	want, err := os.ReadFile(filepath.Join("testdata", "ring.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ring placement differs from the golden\n got:\n%s\nwant:\n%s", got, want)
	}
}
