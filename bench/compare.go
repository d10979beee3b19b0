package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readDocs reads the documents -out appended to path.
func readDocs(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			return docs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
}

// compareFiles prints, per workload and end-to-end metric, the median
// and IQR of each side's untraced runs and how far b moved in the worse
// direction as a share of a's median. It reports whether any metric
// moved by more than its bound. A side with one run shows that run's
// own across-round IQR.
func compareFiles(w io.Writer, ct *contract, pathA, pathB string) (worse bool, err error) {
	a, err := readDocs(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocs(pathB)
	if err != nil {
		return false, err
	}
	side := func(docs []document, workload, name string) (med, iqr float64, n int, noisy bool) {
		var vals []float64
		for _, d := range docs {
			if m, ok := d.Metrics[name]; ok && d.Workload == workload && !d.Trace {
				vals = append(vals, m.Value)
				noisy = noisy || d.Host.Noisy
				if m.IQR != nil {
					iqr = *m.IQR
				}
			}
		}
		if len(vals) > 1 {
			iqr = iqrOf(vals)
		}
		return median(vals), iqr, len(vals), noisy
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta iqr\tb median\tb iqr\tworse by\tbound\t")
	for _, wl := range ct.Workloads {
		for _, cm := range ct.EndToEnd {
			am, ai, an, anoisy := side(a, wl.Name, cm.Name)
			bm, bi, bn, bnoisy := side(b, wl.Name, cm.Name)
			if an == 0 || bn == 0 {
				continue
			}
			by := ratio(bm-am, am)
			if cm.Better == "higher" {
				by = -by
			}
			verdict := ""
			if by > cm.Bound {
				verdict, worse = " REGRESSED", true
			}
			if anoisy || bnoisy {
				verdict += " (noisy host)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, cm.Name, cm.Unit, am, ai, bm, bi, 100*by, 100*cm.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}
