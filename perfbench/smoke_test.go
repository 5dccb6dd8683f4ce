package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"speedctx/internal/core"
)

// binDir holds speedtestd and speedctx built for the smoke runs.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "speedctx/cmd/speedtestd", "speedctx/cmd/speedctx")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build programs under test:", err)
		return 1
	}
	binDir = dir
	return m.Run()
}

// smoke runs one workload at the tiny sizes and fails on any oracle
// mismatch or missing metric.
func smoke(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	var out bytes.Buffer
	e := &env{workload: workload, seed: seed, seconds: 1, trace: trace, bin: binDir, size: tinySize, out: &out}
	res, err := execute(e, t.TempDir(), workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range []string{"ingest", "tiles", "mixed", "report"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				res := smoke(t, w, 3, trace)
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				if !trace {
					for _, d := range endToEnd {
						if v := res.Metrics[d.Name].Value; v <= 0 {
							t.Errorf("%s = %v, want > 0", d.Name, v)
						}
					}
				}
			})
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	a := smoke(t, "tiles", 5, true)
	b := smoke(t, "tiles", 5, true)
	for name := range exactCounts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestCheckAcksRejectsMismatch(t *testing.T) {
	want := []core.Assignment{{UploadTier: 1, Tier: 3, Confidence: 0.5}, {UploadTier: 0, Tier: 1, Confidence: 0.25}}
	good := "{\"tier\":3,\"upload_tier\":1,\"confidence\":0.5}\n{\"tier\":1,\"upload_tier\":0,\"confidence\":0.25}\n"
	if err := checkAcks([]byte(good), want); err != nil {
		t.Fatalf("matching acks rejected: %v", err)
	}
	for _, bad := range []string{
		"{\"tier\":3,\"upload_tier\":1,\"confidence\":0.5}\n{\"tier\":1,\"upload_tier\":0,\"confidence\":0.26}\n",
		"{\"tier\":3,\"upload_tier\":1,\"confidence\":0.5}\n{\"error\":\"ingest: unknown city\"}\n",
		"{\"tier\":3,\"upload_tier\":1,\"confidence\":0.5}\n",
		"{\"tier\":3,\"upload_tier\":1}\n{\"tier\":1,\"upload_tier\":0,\"confidence\":0.25}\n",
	} {
		if err := checkAcks([]byte(bad), want); err == nil {
			t.Errorf("mismatching acks accepted: %q", bad)
		}
	}
}

func TestCheckQueriesRejectsMismatch(t *testing.T) {
	body := []byte("{\"zoom\":16,\"tiles\":[]}\n")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(body) }))
	defer srv.Close()
	q := []tileQuery{{path: "/v1/tiles", want: body}}
	if err := checkQueries(srv.URL, q); err != nil {
		t.Fatalf("matching body rejected: %v", err)
	}
	q[0].want = []byte("{\"zoom\":16,\"tiles\":[{}]}\n")
	if err := checkQueries(srv.URL, q); err == nil {
		t.Fatal("mismatching body accepted")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and
// workload lists equal to what the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sort.Strings(names)
	sort.Strings(code)
	if fmt.Sprint(names) != fmt.Sprint(code) {
		t.Errorf("workloads %v, code runs %v", names, code)
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, code reports %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code reports %+v", i, m, d)
		}
	}
	if fmt.Sprint(bench.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer differs from the code's list")
	}
}
