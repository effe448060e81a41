// Command bench is the repository's benchmark: four named workloads that
// drive the simulator and the monitoring pipeline through the layers'
// public functions, check their outputs, and print end-to-end metrics
// (untraced run) or per-layer metrics (traced run). See README.md.
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runConfig is what every workload run takes from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration // measurement budget; a run also finishes its minimum ops
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	run   func(runConfig) *result
	trace func(runConfig, *tracer) *result
}

func simWorkload(name string, s simSpec) workload {
	return workload{
		name:  name,
		run:   func(c runConfig) *result { return runSim(s, c) },
		trace: func(c runConfig, tr *tracer) *result { return traceSim(s, c, tr) },
	}
}

// workloads are the benchmark's workloads at their measured sizes; README.md
// says why each exists.
func workloads() []workload {
	return []workload{
		simWorkload("session-3g", sessionSpec()),
		simWorkload("storm", stormSpec(512, 16, false)),
		simWorkload("storm-remedy", stormSpec(128, 16, true)),
		{name: "pipeline", run: runPipeline, trace: tracePipeline},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "session-3g | storm | storm-remedy | pipeline | all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default: qoebench-<workload>-seed<n>.trace.json in the temp dir)")
	runs := fs.Int("runs", 1, "with -workload all: rounds, alternating the workload order, for the A/A spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *name == "all" {
		if *trace != 0 {
			fmt.Fprintln(stderr, "bench: -workload all runs untraced only")
			return 2
		}
		return runAll(*seed, *seconds, *runs, stdout, stderr)
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	var res *result
	defs := endToEnd
	if *trace == 1 {
		tr := newTracer()
		res = w.trace(cfg, tr)
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(os.TempDir(), fmt.Sprintf("qoebench-%s-seed%d.trace.json", w.name, *seed))
		}
		if err := tr.writeChrome(path); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("write trace: %v", err))
		} else {
			fmt.Fprintf(stdout, "trace %s\n", path)
		}
	} else {
		res = w.run(cfg)
	}
	return emit(stdout, res, defs)
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the digest, the metrics and any failed check, then the result
// line, and returns the exit code: non-zero when any check failed.
func emit(stdout io.Writer, res *result, defs []metricDef) int {
	line := resultLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricOut{}}
	if res.Digest != "" {
		fmt.Fprintf(stdout, "digest %s (first %d ops)\n", res.Digest, res.DigestOps)
	}
	for _, d := range defs {
		v, ok := res.Values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	if line.Attempted < 1 {
		res.Problems = append(res.Problems, "no operation was attempted")
		line.Attempted = 1
		line.Failed = max(line.Failed, 1)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	line.Correct = len(res.Problems) == 0 && res.Failed == 0
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stdout, "FAIL encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each peak RSS
// belongs to one workload, for the given number of rounds with the seed
// advancing by one per round and the workload order reversed every other
// round. It prints each run's metrics and, per workload and end-to-end
// metric, the median and the quartile spread.
func runAll(seed int64, seconds float64, runs int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "cores %d GOMAXPROCS %d go %s wal-fs %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(os.TempDir()))
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	values := map[string]map[string][]float64{}
	code := 0
	for r := 0; r < runs; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			s := strconv.FormatInt(seed+int64(r), 10)
			cmd := exec.Command(exe, "-workload", name, "-seed", s,
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastLine(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(stdout, "round %d %s seed %s FAILED: %v %v\n%s", r, name, s, err, perr, out)
				code = 1
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			fmt.Fprintf(stdout, "round %d %-12s seed %s", r, name, s)
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				values[name][d.name] = append(values[name][d.name], v)
				fmt.Fprintf(stdout, " %s=%.6g", d.name, v)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\n%-12s %-18s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		for _, d := range endToEnd {
			xs := values[name][d.name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "%-12s %-18s %12.6g %12.6g %12.6g %7.2f%%\n", name, d.name, q1, med, q3, 100*ratio(q3-q1, med))
		}
	}
	return code
}

// lastLine parses the result line a child run printed last.
func lastLine(out []byte) (resultLine, error) {
	var res resultLine
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so the spread printed here is the one the A/A check uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// fsType names the filesystem holding dir, where the pipeline's WAL lives.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
