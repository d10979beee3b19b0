// Command bench is the repository's benchmark: four pan/zoom workloads
// driven closed-loop through the real frontend and server over
// loopback HTTP, reported as the end-to-end and per-layer metrics
// BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload pan_hot --seed 2019 --seconds 12 --trace 0
//	bash bench/run.sh -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "one of the workloads BENCHMARK.json names")
		seed     = flag.Int64("seed", defaultSeed, "derives the dataset and every client trace")
		seconds  = flag.Float64("seconds", 15, "how long the measured pass lasts")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, everything untraced; 1: per-layer metrics from counters, spans and probes")
		out      = flag.String("out", "", "append the run's full document to this file as one JSON line (input to -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	ct, err := loadContract("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, ct, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sp, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if err := checkPinnedInputs(sp); err != nil {
		fatal(err)
	}
	tmpRoot := ".bench_build"
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fatal(err)
	}
	doc, err := run(config{
		Spec: sp, Scale: fullScale, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		OutDir: "bench/out", TmpRoot: tmpRoot,
	})
	if err != nil {
		fatal(err)
	}
	want := ct.EndToEnd
	if doc.Trace {
		want = ct.PerLayer
	}
	picked, err := pick(doc.Metrics, want)
	if err != nil {
		fatal(err)
	}
	pretty, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Printf("%s\n", pretty)
	if *out != "" {
		if err := appendLine(*out, doc); err != nil {
			fatal(err)
		}
	}
	last, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, picked})
	fmt.Printf("%s\n", last)
	if !doc.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %s\n", doc.Failed, doc.Attempted, doc.FirstError)
		os.Exit(1)
	}
}

func appendLine(path string, doc *document) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
