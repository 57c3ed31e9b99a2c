// Command perfbench is the repository benchmark. It runs one workload
// for one seed, checks the program's outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics of BENCHMARK.json, measured
// untraced; with --trace 1 they are the per-layer metrics, measured in a
// separate traced run of the same workload.
//
// Run it through the launcher, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload live-handoff --seed 3 --seconds 20 --trace 0
//
// NOTES.md in this directory maps every metric to the layer it measures
// and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced metrics every workload reports. The meaning
// of p50_ms and tail_ms depends on the workload (see NOTES.md):
// des-corridor times one simulated camera-frame, live-handoff one
// frame-to-edge-commit handoff, evidence-query one investigation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"handoff_precision", "frac"},
	{"handoff_recall", "frac"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer are the traced-run metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sim.render_us", "us"},
	{"sim.alloc_kb_per_frame", "KB"},
	{"des.wall_per_sim_s", "s/s"},
	{"des.us_per_frame", "us"},
	{"fleet.ingest_us", "us"},
	{"vision.detect_us", "us"},
	{"vision.kept_frac", "frac"},
	{"tracker.update_us", "us"},
	{"tracker.alloc_kb_per_frame", "KB"},
	{"feature.accumulate_us", "us"},
	{"reid.match_us", "us"},
	{"reid.match_frac", "frac"},
	{"reid.redundant_frac", "frac"},
	{"camnode.ingest_us", "us"},
	{"camnode.source_wait_p99_ms", "ms"},
	{"camnode.cpu_ms_per_frame", "ms"},
	{"camnode.commit_p50_ms", "ms"},
	{"camnode.commit_p90_ms", "ms"},
	{"transport.msgs_per_event", "count"},
	{"transport.send_us", "us"},
	{"transport.bytes_per_frame", "B"},
	{"protocol.json_cpu_frac", "frac"},
	{"rpc.latency_p50_us", "us"},
	{"rpc.retries", "count"},
	{"trajstore.add_vertex_us", "us"},
	{"trajstore.edge_ack_ms", "ms"},
	{"trajstore.edges_per_flush", "count"},
	{"trajstore.flush_ms", "ms"},
	{"trajstore.reconstruct_us", "us"},
	{"trajstore.ingest_ack_p99_ms", "ms"},
	{"query.track_p50_ms", "ms"},
	{"query.track_p99_ms", "ms"},
	{"query.server_p50_us", "us"},
	{"query.cache_hit_frac", "frac"},
	{"framestore.get_us", "us"},
	{"framestore.evidence_p50_ms", "ms"},
	{"framestore.evidence_p99_ms", "ms"},
	{"framestore.cache_hit_frac", "frac"},
	{"framestore.put_us", "us"},
	{"framestore.stored_frac", "frac"},
	{"topology.pushes", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_kb_per_frame", "KB"},
	{"obs.cpu_frac", "frac"},
	{"gen.cpu_frac", "frac"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_cpu_frac", "frac"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	scratch  string // per-run directory under .bench_build, removed at exit
	traceDir string // where a traced run writes its spans and profile
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	// problems are failed correctness checks; any makes correct=false.
	problems []string
	// setups are the set-up durations of this run, in seconds.
	setups []float64
	e2e    map[string]float64
	layers map[string]float64
	// notes are extra report lines (digests, named metrics, coverage).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"des-corridor":   runDESCorridor,
	"live-handoff":   runLiveHandoff,
	"evidence-query": runEvidenceQuery,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: des-corridor, live-handoff or evidence-query")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := checkManifest(filepath.Join(*root, "BENCHMARK.json")); err != nil {
		return err
	}
	if *trace == 1 {
		// Sample allocations finely enough to attribute them per layer;
		// set before the workload allocates anything.
		runtime.MemProfileRate = 16 << 10
	}
	build := filepath.Join(*root, ".bench_build")
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     *root,
		scratch:  scratch,
		traceDir: filepath.Join(build, "traces"),
	}
	if err := selfTest(); err != nil {
		return fmt.Errorf("self-test: %w", err)
	}
	rss := startRSSSampler()

	out, err := fn(cfg)
	if err != nil {
		return err
	}
	if len(out.setups) == 0 {
		return errors.New("workload reported no set-up time")
	}
	out.e2e["setup_s"] = median(out.setups)
	out.e2e["peak_rss_mb"] = rss.stop()
	if out.attempted < 1 {
		return errors.New("workload attempted nothing")
	}
	out.e2e["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	return report(cfg, out)
}

// report prints the human-readable lines and the final JSON line.
func report(cfg runConfig, out *outcome) error {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if !cfg.trace && (v == 0 || isBad(v)) {
			out.problems = append(out.problems, "end-to-end metric "+d.name+" was not measured")
		}
		if isBad(v) {
			v = 0
		}
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkManifest asserts that BENCHMARK.json lists exactly the metrics
// this program prints, so the two cannot drift apart.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read manifest: %w", err)
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("parse manifest: %w", err)
	}
	same := func(kind string, want []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) error {
		if len(want) != len(got) {
			return fmt.Errorf("manifest lists %d %s metrics, program prints %d", len(got), kind, len(want))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				return fmt.Errorf("manifest %s metric %d is %s/%s, program prints %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", endToEnd, m.EndToEnd); err != nil {
		return err
	}
	if err := same("per_layer", perLayer, m.PerLayer); err != nil {
		return err
	}
	names := make([]string, 0, len(m.Workloads))
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("manifest workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		return fmt.Errorf("manifest lists workloads %v, program has %d", names, len(workloads))
	}
	return nil
}

// deadlineAfter is the wall-clock end of a measured phase of d seconds.
func deadlineAfter(d float64) time.Time {
	return time.Now().Add(time.Duration(d * float64(time.Second)))
}
