package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -nodes 9 builds two racks of four: the classic mix, the overload run
// and the linearizability capture must all stay on those 8 nodes, and
// the summary must report the cluster that was built.
func TestClassicNodesNotMultipleOfRack(t *testing.T) {
	ops, keys, n, r, w, value, nodes := 200, 50, 3, 2, 2, 128, 9
	skew, reads := 0.99, 0.9
	transport := "tcp"
	checkFlag, stale := true, false

	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	runClassic(&ops, &keys, &n, &r, &w, &skew, &reads, &value, &transport, &nodes,
		&checkFlag, &stale, 0, 2)
	f.Close()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"200 ops on 8 nodes", "overload 2.0x capacity", "linearizability: linearizable"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
