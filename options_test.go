package kyrix_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"kyrix"
)

// optionSurface is every settable option field reachable from the
// public option structs, nested option structs included. Each one
// doubles the configurations a test or benchmark would have to cover,
// so adding a knob (or keeping one nobody sets) takes an edit here.
var optionSurface = []string{
	"ClientOptions.BatchSize",
	"ClientOptions.CacheBytes",
	"ClientOptions.Codec",
	"ClientOptions.HTTPClient",
	"ClientOptions.Scheme.Adaptive",
	"ClientOptions.Scheme.Design",
	"ClientOptions.Scheme.Inflate",
	"ClientOptions.Scheme.Kind",
	"ClientOptions.Scheme.RowBudget",
	"ClientOptions.Scheme.TileSize",
	"ClientOptions.Tracer",
	"PrecomputeOptions.BuildSpatial",
	"PrecomputeOptions.LODBaseCell",
	"PrecomputeOptions.LODRowBudget",
	"PrecomputeOptions.TileSizes",
	"ServerOptions.Cache.L1.Admission",
	"ServerOptions.Cache.L1.Bytes",
	"ServerOptions.Cache.L2.FlushInterval",
	"ServerOptions.Cache.L2.MaxBytes",
	"ServerOptions.Cache.L2.Path",
	"ServerOptions.Cache.L2.ScrubInterval",
	"ServerOptions.Cache.L2.WriteQueueDepth",
	"ServerOptions.Cluster.BreakerCooldown",
	"ServerOptions.Cluster.HotReplicate",
	"ServerOptions.Cluster.PeerTimeout",
	"ServerOptions.Cluster.Peers",
	"ServerOptions.Cluster.Replog.Dir",
	"ServerOptions.Cluster.Replog.ElectionTimeout",
	"ServerOptions.Cluster.Replog.SubmitTimeout",
	"ServerOptions.Cluster.Self",
	"ServerOptions.Obs.DisableTracing",
	"ServerOptions.Obs.FlightRecorderSize",
	"ServerOptions.Obs.Pprof",
	"ServerOptions.Precompute.BuildSpatial",
	"ServerOptions.Precompute.LODBaseCell",
	"ServerOptions.Precompute.LODRowBudget",
	"ServerOptions.Precompute.TileSizes",
}

// optionPaths lists the exported field paths of t under prefix,
// descending into struct-valued fields whose type this module declares.
func optionPaths(prefix string, t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + "." + f.Name
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "kyrix") {
			out = append(out, optionPaths(path, f.Type)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

func TestOptionSurface(t *testing.T) {
	var got []string
	for name, v := range map[string]any{
		"ServerOptions":     kyrix.ServerOptions{},
		"ClientOptions":     kyrix.ClientOptions{},
		"PrecomputeOptions": kyrix.PrecomputeOptions{},
	} {
		got = append(got, optionPaths(name, reflect.TypeOf(v))...)
	}
	slices.Sort(got)
	want := slices.Sorted(slices.Values(optionSurface))
	for _, p := range got {
		if !slices.Contains(want, p) {
			t.Errorf("new option field %s: add it to optionSurface", p)
		}
	}
	for _, p := range want {
		if !slices.Contains(got, p) {
			t.Errorf("option field %s is gone: remove it from optionSurface", p)
		}
	}
	if t.Failed() {
		t.Logf("%d settable option fields:\n%s", len(got), strings.Join(got, "\n"))
	}
}
