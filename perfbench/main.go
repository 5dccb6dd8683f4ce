// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real programs, checks every output against
// an oracle computed outside the timed window, and prints the workload's
// metrics; the last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"cpu_ms":{"value":…,"unit":"ms"},…}}
//
// With -trace 0 the serving workloads drive a speedtestd child and
// report the end-to-end metrics of BENCHMARK.json; report drives
// speedctx children. With -trace 1 the same layers are hosted in-process,
// calls into them are timed as spans, and the per-layer metrics are
// reported instead. run.sh builds everything and is the entry point:
//
//	bash perfbench/run.sh --workload tiles --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports with -trace 0. Their
// meaning per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms", "ms", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding speedtestd and speedctx
	work     string // this run's scratch directory
	size     sizes
	out      io.Writer // human-readable lines, before the JSON result
}

func (e *env) dur() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// named prints one workload-specific metric line: name, value, unit.
func (e *env) named(name string, v float64, unit string) {
	e.printf("  %-28s %14.4f %s\n", name, v, unit)
}

// gate sets one of the end-to-end metrics BENCHMARK.json bounds and
// prints it, marked, beside the workload's named metrics.
func (e *env) gate(res *result, name string, v float64, unit string) {
	e.printf("* %-28s %14.4f %s\n", name, v, unit)
	res.set(name, v, unit)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // why the run is not correct
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records a correctness or validity problem.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*result, error){
	"ingest": runIngest,
	"tiles":  runTiles,
	"mixed":  runMixed,
	"report": runReport,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: ingest, tiles, mixed or report")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 hosts the layers in-process and reports the per-layer metrics")
	bin := fs.String("bin", "", "directory holding the speedtestd and speedctx binaries")
	work := fs.String("work", "", "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload ingest|tiles|mixed|report --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, size: fullSize, out: os.Stdout}
	res, err := execute(e, *work, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// execute runs one workload in a fresh scratch directory under work and
// removes the directory afterwards, traces excepted.
func execute(e *env, work string, run func(*env) (*result, error)) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-seed%d-trace%v-%d", e.workload, e.seed, e.trace, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.work = dir
	e.printf("perfbench %s seed %d, %gs window, trace %v\n", e.workload, e.seed, e.seconds, e.trace)
	res, err := run(e)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	for _, p := range res.problems {
		e.printf("  PROBLEM: %s\n", p)
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("workload %s reported no %s", e.workload, d.Name)
		}
	}
	return res, nil
}

func printResult(w io.Writer, res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}
