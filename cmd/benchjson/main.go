// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can archive benchmark runs as
// artifacts and the performance trajectory of the engine can be tracked
// across PRs instead of living in log scrollback.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson > BENCH.json
//	go test -run xxx -bench . -benchmem ./... | benchjson -baseline BENCH_PREV.json > BENCH.json
//	go test -run xxx -bench . -benchmem ./... | benchjson -baseline 'BENCH_*.json' > BENCH.json
//
// Every benchmark becomes one record carrying the iteration count and all
// reported metrics — the standard ns/op, B/op and allocs/op as well as
// custom b.ReportMetric units (e.g. kernelEvals/op). Context lines (goos,
// goarch, cpu, pkg) annotate the records that follow them. Output of
// `go test -count N` repeats each benchmark's line N times; those lines
// fold into one record holding the median of every metric, the ns/op
// min and max, and the sample count.
//
// With -baseline, benchjson additionally prints a trajectory table to
// stderr comparing this run's ns/op against the prior report, flagging
// regressions beyond 10%. -baseline accepts comma-separated paths and
// globs; when several reports match (the checked-in BENCH_PR<n>.json
// series), they are ordered by PR number and the table shows the full
// ns/op history of every benchmark — seed to current run, one column per
// report — with the delta taken against the newest baseline. The table is
// warn-only either way — CI publishes it in the job log but the exit
// status is unaffected, since one-shot CI runners are far too noisy for a
// hard perf gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result: the median of its samples (the lines
// `go test -count N` prints for it) for the iteration count and every
// metric, plus the ns/op spread across the samples.
type Record struct {
	Pkg     string             `json:"pkg,omitempty"`
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
	Samples int                `json:"samples,omitempty"`
	NsMin   float64            `json:"ns_min,omitempty"`
	NsMax   float64            `json:"ns_max,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Schema     string   `json:"schema"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// parse consumes `go test -bench` output and collects benchmark records.
func parse(r io.Reader) (Report, error) {
	rep := Report{Schema: "webtxprofile-bench/1", Benchmarks: []Record{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name N value unit [value unit ...]; anything shorter is a
		// benchmark that failed before reporting and is skipped.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rec := Record{Pkg: pkg, Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			rec.Metrics[fields[i+1]] = v
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, rec)
		}
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, sc.Err()
}

// fold merges the samples of each benchmark (same package and name) into
// one record, in order of first appearance: Runs and every metric become
// the median over the samples that report them, NsMin/NsMax the ns/op
// extremes, and Samples the sample count.
func fold(samples []Record) []Record {
	type key struct{ pkg, name string }
	groups := map[key][]Record{}
	var order []key
	for _, rec := range samples {
		k := key{rec.Pkg, rec.Name}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec)
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		g := groups[k]
		runs := make([]float64, len(g))
		values := map[string][]float64{}
		for i, rec := range g {
			runs[i] = float64(rec.Runs)
			for unit, v := range rec.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		rec := Record{Pkg: k.pkg, Name: k.name, Runs: int64(median(runs)),
			Metrics: make(map[string]float64, len(values)), Samples: len(g)}
		for unit, vs := range values {
			rec.Metrics[unit] = median(vs)
		}
		if ns := values["ns/op"]; len(ns) > 0 {
			rec.NsMin, rec.NsMax = ns[0], ns[len(ns)-1] // median sorted them
		}
		out = append(out, rec)
	}
	return out
}

// median sorts vs in place and returns its median (the mean of the two
// middle values for an even count).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// regressionThreshold is the ns/op growth beyond which the trajectory
// table flags a benchmark (warn-only).
const regressionThreshold = 0.10

// trajectory renders the warn-only comparison table between a prior
// report and the current one, matching benchmarks by name. Benchmarks
// only present on one side are summarized, not compared.
func trajectory(prev, cur Report, baselineName string) string {
	prevNs := make(map[string]float64, len(prev.Benchmarks))
	for _, rec := range prev.Benchmarks {
		if ns, ok := rec.Metrics["ns/op"]; ok && ns > 0 {
			prevNs[rec.Name] = ns
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark trajectory vs %s (warn-only; >%d%% ns/op growth flagged)\n",
		baselineName, int(regressionThreshold*100))
	fmt.Fprintf(&b, "%-72s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	compared, onlyNew, regressions := 0, 0, 0
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, rec := range cur.Benchmarks {
		seen[rec.Name] = true
		ns, ok := rec.Metrics["ns/op"]
		if !ok || ns <= 0 {
			continue
		}
		old, ok := prevNs[rec.Name]
		if !ok {
			onlyNew++
			continue
		}
		compared++
		delta := (ns - old) / old
		mark := ""
		if delta > regressionThreshold {
			mark = "  !! regression"
			regressions++
		}
		fmt.Fprintf(&b, "%-72s %14.1f %14.1f %+7.1f%%%s\n", rec.Name, old, ns, delta*100, mark)
	}
	var gone []string
	for name := range prevNs {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	fmt.Fprintf(&b, "compared %d benchmarks; %d new (no baseline), %d regressions flagged\n",
		compared, onlyNew, regressions)
	if len(gone) > 0 {
		fmt.Fprintf(&b, "in baseline but not this run: %s\n", strings.Join(gone, ", "))
	}
	return b.String()
}

// prNumRe extracts the PR number from a checked-in report's file name
// (BENCH_PR7.json → 7), the series' chronological order.
var prNumRe = regexp.MustCompile(`(?i)pr(\d+)`)

func prNumber(path string) int {
	m := prNumRe.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return -1
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		return -1
	}
	return n
}

// expandBaselines resolves the -baseline argument — comma-separated paths
// and/or globs — into the matched files ordered oldest first: by embedded
// PR number where the name carries one (reports without a number sort
// before the series), then lexically.
func expandBaselines(arg string) ([]string, error) {
	var files []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.ContainsAny(part, "*?[") {
			matches, err := filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("bad pattern %q: %w", part, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("no files match %q", part)
			}
			files = append(files, matches...)
		} else {
			files = append(files, part)
		}
	}
	sort.SliceStable(files, func(i, j int) bool {
		ni, nj := prNumber(files[i]), prNumber(files[j])
		if ni != nj {
			return ni < nj
		}
		return files[i] < files[j]
	})
	return files, nil
}

// trajectoryAll renders the full warn-only ns/op history across every
// baseline report (oldest → newest) plus the current run: one column per
// report, one row per benchmark of the current run. The delta column and
// the regression flag compare against the newest baseline, exactly like
// the two-report table.
func trajectoryAll(prevs []Report, names []string, cur Report) string {
	cols := make([]map[string]float64, len(prevs))
	for i, p := range prevs {
		cols[i] = make(map[string]float64, len(p.Benchmarks))
		for _, rec := range p.Benchmarks {
			if ns, ok := rec.Metrics["ns/op"]; ok && ns > 0 {
				cols[i][rec.Name] = ns
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark ns/op trajectory across %d reports (warn-only; >%d%% vs %s flagged)\n",
		len(prevs)+1, int(regressionThreshold*100), names[len(names)-1])
	fmt.Fprintf(&b, "%-72s", "benchmark")
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), ".json")
		fmt.Fprintf(&b, " %14s", base)
	}
	fmt.Fprintf(&b, " %14s %8s\n", "this run", "delta")
	compared, onlyNew, regressions := 0, 0, 0
	last := cols[len(cols)-1]
	for _, rec := range cur.Benchmarks {
		ns, ok := rec.Metrics["ns/op"]
		if !ok || ns <= 0 {
			continue
		}
		fmt.Fprintf(&b, "%-72s", rec.Name)
		for i := range cols {
			if old, ok := cols[i][rec.Name]; ok {
				fmt.Fprintf(&b, " %14.1f", old)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		old, ok := last[rec.Name]
		if !ok {
			onlyNew++
			fmt.Fprintf(&b, " %14.1f %8s\n", ns, "new")
			continue
		}
		compared++
		delta := (ns - old) / old
		mark := ""
		if delta > regressionThreshold {
			mark = "  !! regression"
			regressions++
		}
		fmt.Fprintf(&b, " %14.1f %+7.1f%%%s\n", ns, delta*100, mark)
	}
	fmt.Fprintf(&b, "compared %d benchmarks; %d new (no baseline), %d regressions flagged\n",
		compared, onlyNew, regressions)
	return b.String()
}

func main() {
	baseline := flag.String("baseline", "",
		"prior benchmark JSON report(s) to diff against: comma-separated paths and globs, e.g. 'BENCH_*.json' (trajectory table on stderr, warn-only)")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	// CI context when available; absent locally.
	rep.Commit = os.Getenv("GITHUB_SHA")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		files, err := expandBaselines(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -baseline: %v\n", err)
			os.Exit(1)
		}
		prevs := make([]Report, len(files))
		for i, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -baseline: %v\n", err)
				os.Exit(1)
			}
			if err := json.Unmarshal(data, &prevs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -baseline %s: %v\n", f, err)
				os.Exit(1)
			}
		}
		if len(prevs) == 1 {
			fmt.Fprint(os.Stderr, trajectory(prevs[0], rep, files[0]))
		} else {
			fmt.Fprint(os.Stderr, trajectoryAll(prevs, files, rep))
		}
	}
}
