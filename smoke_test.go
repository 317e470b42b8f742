// Smoke tests that compile and run every program under examples/ and
// cmd/ — and the benchmark driver under benchmarks/, a module of its own
// that `go build ./...` does not see — so example drift or an API
// deletion breaks `go test ./...` instead of rotting silently. Each
// program must build, exit zero and print something it is expected to
// print.
package umzi_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"umzi"
)

// buildProgram compiles one main package into dir and returns the binary
// path.
func buildProgram(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestExamplesAndCommandsSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()

	cases := []struct {
		pkg  string
		args []string
		want string // substring expected on stdout
	}{
		{"examples/quickstart", nil, ""},
		{"examples/iot", nil, ""},
		{"examples/htap", nil, ""},
		{"examples/recovery", nil, ""},
		{"examples/durability", nil, "zero acknowledged rows lost"},
		{"examples/sharded", []string{"-rows", "20000", "-shards", "4"}, "global id order verified"},
		{"examples/analytics", []string{"-rows", "20000", "-shards", "4"}, "pushdown verified against client-side aggregation"},
		{"examples/secondary", []string{"-rows", "20000", "-customers", "128", "-shards", "4"}, "index plan, zone scan and covered scan agree"},
		{"examples/server", nil, "local and remote agree"},
		{"cmd/umzi-server", []string{"-selftest"}, "selftest ok"},
		{"cmd/umzi-bench", []string{"-list"}, "available figures"},
		{"cmd/umzi-bench", []string{"-figure", "s1", "-scale", "tiny"}, "Figure S1"},
		{"cmd/umzi-bench", []string{"-figure", "s3", "-scale", "tiny"}, "Figure S3"},
		{"cmd/umzi-bench", []string{"-figure", "a8", "-scale", "tiny"}, "Ablation A8"},
		{"cmd/umzi-inspect", []string{"-store", dir}, ""},
		{"cmd/umzi-workload", []string{"-list"}, "htap.OrderAnalytics"},
		{"cmd/umzi-workload", []string{"-run", "stream.EarlyClose"}, `"passed": true`},
	}

	bins := map[string]string{}
	for _, c := range cases {
		if _, ok := bins[c.pkg]; !ok {
			bins[c.pkg] = buildProgram(t, dir, c.pkg)
		}
	}

	for _, c := range cases {
		// The temp dir is random per run; name it TMPDIR so the subtest
		// name is the same every run.
		name := c.pkg
		if len(c.args) > 0 {
			name += " " + strings.ReplaceAll(strings.Join(c.args, " "), dir, "TMPDIR")
		}
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(bins[c.pkg], c.args...)
			cmd.Env = os.Environ()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if c.want != "" && !strings.Contains(string(out), c.want) {
				t.Fatalf("%s: output missing %q:\n%s", name, c.want, out)
			}
		})
	}
}

// TestBenchmarkDriverSmoke builds the repo benchmark (benchmarks/, its
// own module with a replace onto this one) and runs all four workloads
// at smoke scale, traced and untraced: every run must finish with no
// failed operation and a verified result set.
func TestBenchmarkDriverSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "umzi-benchmarks")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = "benchmarks"
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./benchmarks: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-quick", "-tmpdir", filepath.Join(dir, "tmp")).CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark driver: %v\n%s", err, out)
	}
	runs := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "attempted=") {
			continue
		}
		runs++
		if !strings.Contains(line, "failed=0 correct=true") {
			t.Fatalf("benchmark run did not end clean: %s\n%s", line, out)
		}
	}
	if runs == 0 {
		t.Fatalf("benchmark driver reported no runs:\n%s", out)
	}
}

// TestInspectStoreSmoke materializes a two-table DB — one of them
// sharded, with a secondary index — in a filesystem store and checks
// both umzi-inspect modes: the default -store mode lists every table of
// the DB catalog, and -table prints one table's whole index set, all
// from shared storage alone.
func TestInspectStoreSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	ctx := context.Background()
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	store, err := umzi.NewFSStore(storeDir, umzi.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := umzi.OpenDB(umzi.DBConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable(umzi.TableDef{
		Name: "orders",
		Columns: []umzi.TableColumn{
			{Name: "id", Kind: umzi.KindInt64},
			{Name: "region", Kind: umzi.KindString},
		},
		PrimaryKey: []string{"id"},
		ShardKey:   []string{"id"},
	}, umzi.TableOptions{
		Shards: 2,
		Secondaries: []umzi.SecondaryIndexSpec{{
			Name:      "by_region",
			IndexSpec: umzi.IndexSpec{Equality: []string{"region"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(umzi.TableDef{
		Name:       "events",
		Columns:    []umzi.TableColumn{{Name: "seq", Kind: umzi.KindInt64}},
		PrimaryKey: []string{"seq"},
	}, umzi.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := orders.Upsert(ctx, umzi.Row{umzi.I64(i), umzi.Str("r")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := orders.Groom(); err != nil {
		t.Fatal(err)
	}
	if err := orders.PostGroom(); err != nil {
		t.Fatal(err)
	}
	if err := orders.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	bin := buildProgram(t, dir, "cmd/umzi-inspect")
	out, err := exec.Command(bin, "-store", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("umzi-inspect -store: %v\n%s", err, out)
	}
	for _, want := range []string{"2 tables", "orders (2 shards)", "events (1 shards)", "by_region", "post-groomed"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("inspect -store output missing %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bin, "-store", storeDir, "-table", "orders/shard-000").CombinedOutput()
	if err != nil {
		t.Fatalf("umzi-inspect -table: %v\n%s", err, out)
	}
	for _, want := range []string{"2 indexes", "(primary)", "by_region", "IndexedPSN=1",
		"data blocks", "bytes on store", "plain layout"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("inspect -table output missing %q:\n%s", want, out)
		}
	}
}
