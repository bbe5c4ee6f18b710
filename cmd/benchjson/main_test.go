package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: webtxprofile
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDecisionKernels/rbf/indexed/svs=50-8   	  326389	       712.7 ns/op
BenchmarkDecisionBatch-8                        	   50000	      2412 ns/op	     128 B/op	       2 allocs/op
BenchmarkParamSearchFullGrid-8                  	       2	 512345678 ns/op	  142578 kernelEvals/op	       8 gramBuilds/op
garbage line
BenchmarkBroken-8	notanumber	1 ns/op
PASS
ok  	webtxprofile	3.728s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("context = %q/%q/%q", rep.GoOS, rep.GoArch, rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkDecisionKernels/rbf/indexed/svs=50-8" || b0.Pkg != "webtxprofile" {
		t.Errorf("record 0 = %+v", b0)
	}
	if b0.Runs != 326389 || b0.Metrics["ns/op"] != 712.7 {
		t.Errorf("record 0 metrics = %+v", b0)
	}
	b1 := rep.Benchmarks[1]
	if b1.Metrics["B/op"] != 128 || b1.Metrics["allocs/op"] != 2 {
		t.Errorf("benchmem metrics = %+v", b1.Metrics)
	}
	b2 := rep.Benchmarks[2]
	if b2.Metrics["kernelEvals/op"] != 142578 || b2.Metrics["gramBuilds/op"] != 8 {
		t.Errorf("custom metrics = %+v", b2.Metrics)
	}
}

func rec(name string, ns float64) Record {
	return Record{Name: name, Runs: 10, Metrics: map[string]float64{"ns/op": ns}}
}

func TestTrajectory(t *testing.T) {
	prev := Report{Benchmarks: []Record{
		rec("BenchmarkStable-8", 100),
		rec("BenchmarkRegressed-8", 100),
		rec("BenchmarkImproved-8", 300),
		rec("BenchmarkRemoved-8", 50),
		{Name: "BenchmarkNoNs-8", Runs: 1, Metrics: map[string]float64{"allocs/op": 3}},
	}}
	cur := Report{Benchmarks: []Record{
		rec("BenchmarkStable-8", 104),
		rec("BenchmarkRegressed-8", 150),
		rec("BenchmarkImproved-8", 100),
		rec("BenchmarkNew-8", 42),
	}}
	out := trajectory(prev, cur, "BENCH_PR6.json")

	for _, want := range []string{
		"BenchmarkStable-8",
		"BenchmarkRegressed-8",
		"BenchmarkImproved-8",
		"compared 3 benchmarks; 1 new (no baseline), 1 regressions flagged",
		"in baseline but not this run: BenchmarkRemoved-8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "BenchmarkRegressed-8") && !strings.Contains(line, "!! regression"):
			t.Errorf("regressed benchmark not flagged: %q", line)
		case strings.Contains(line, "BenchmarkStable-8") && strings.Contains(line, "!! regression"):
			t.Errorf("within-threshold benchmark flagged: %q", line)
		case strings.Contains(line, "BenchmarkImproved-8") && strings.Contains(line, "!! regression"):
			t.Errorf("improvement flagged as regression: %q", line)
		case strings.Contains(line, "BenchmarkNew-8"):
			t.Errorf("baseline-less benchmark appears in the table: %q", line)
		}
	}
}

func TestExpandBaselines(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR10.json", "BENCH_PR7.json", "BENCH_PR9.json", "BENCH_seed.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := expandBaselines(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	// Chronological: the numberless seed report first, then by PR number —
	// numerically, so PR10 lands after PR9, not between PR1 and PR2.
	want := []string{"BENCH_seed.json", "BENCH_PR7.json", "BENCH_PR9.json", "BENCH_PR10.json"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("order = %v, want %v", names, want)
	}
	if _, err := expandBaselines(filepath.Join(dir, "NOPE_*.json")); err == nil {
		t.Error("expandBaselines accepted a pattern matching nothing")
	}
}

func TestTrajectoryAll(t *testing.T) {
	pr6 := Report{Benchmarks: []Record{rec("BenchmarkStable-8", 100), rec("BenchmarkRetired-8", 7)}}
	pr7 := Report{Benchmarks: []Record{rec("BenchmarkStable-8", 90), rec("BenchmarkRegressed-8", 100)}}
	cur := Report{Benchmarks: []Record{
		rec("BenchmarkStable-8", 91),
		rec("BenchmarkRegressed-8", 180),
		rec("BenchmarkNew-8", 5),
	}}
	out := trajectoryAll([]Report{pr6, pr7}, []string{"BENCH_PR6.json", "BENCH_PR7.json"}, cur)

	for _, want := range []string{
		"BENCH_PR6", "BENCH_PR7", "this run",
		"compared 2 benchmarks; 1 new (no baseline), 1 regressions flagged",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectoryAll output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "BenchmarkStable-8"):
			// Full history: both baseline columns populated.
			if !strings.Contains(line, "100.0") || !strings.Contains(line, "90.0") || !strings.Contains(line, "91.0") {
				t.Errorf("stable row missing history columns: %q", line)
			}
			if strings.Contains(line, "!! regression") {
				t.Errorf("stable row flagged (delta is vs newest baseline): %q", line)
			}
		case strings.Contains(line, "BenchmarkRegressed-8"):
			// Absent from the oldest report: a placeholder, then the jump.
			if !strings.Contains(line, "-") || !strings.Contains(line, "!! regression") {
				t.Errorf("regressed row malformed: %q", line)
			}
		case strings.Contains(line, "BenchmarkNew-8") && !strings.Contains(line, "new"):
			t.Errorf("baseline-less benchmark not marked new: %q", line)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	rep, err := parse(strings.NewReader("PASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("benchmarks = %+v, want none", rep.Benchmarks)
	}
}

// TestParseFoldsCount checks `go test -count 5` output: the five lines of
// one benchmark fold into one record holding the median of each metric,
// the ns/op extremes and the sample count, while a benchmark printed once
// keeps its single sample.
func TestParseFoldsCount(t *testing.T) {
	const repeated = `pkg: webtxprofile/internal/svm
BenchmarkFusedEngines/packed/float64/models=100-2   	 300	  21000 ns/op	 4761904 decisions/sec
BenchmarkFusedEngines/packed/float64/models=100-2   	 300	  19000 ns/op	 5263157 decisions/sec
BenchmarkFusedEngines/packed/float64/models=100-2   	 300	  25000 ns/op	 4000000 decisions/sec
BenchmarkFusedEngines/packed/float64/models=100-2   	 300	  20000 ns/op	 5000000 decisions/sec
BenchmarkFusedEngines/packed/float64/models=100-2   	 300	  18000 ns/op	 5555555 decisions/sec
BenchmarkOnce-2   	 10	  500 ns/op
PASS
`
	rep, err := parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d records, want 2 (five samples folded into one): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	r := rep.Benchmarks[0]
	if r.Name != "BenchmarkFusedEngines/packed/float64/models=100-2" || r.Pkg != "webtxprofile/internal/svm" {
		t.Errorf("folded record = %+v", r)
	}
	if r.Samples != 5 || r.Runs != 300 {
		t.Errorf("samples/runs = %d/%d, want 5/300", r.Samples, r.Runs)
	}
	if r.Metrics["ns/op"] != 20000 || r.Metrics["decisions/sec"] != 5000000 {
		t.Errorf("medians = %+v, want ns/op 20000, decisions/sec 5000000", r.Metrics)
	}
	if r.NsMin != 18000 || r.NsMax != 25000 {
		t.Errorf("ns/op spread = [%v, %v], want [18000, 25000]", r.NsMin, r.NsMax)
	}
	once := rep.Benchmarks[1]
	if once.Samples != 1 || once.Metrics["ns/op"] != 500 || once.NsMin != 500 || once.NsMax != 500 {
		t.Errorf("single-sample record = %+v", once)
	}
}
