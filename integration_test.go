package kyrix_test

import (
	"path/filepath"
	"testing"
	"time"

	"kyrix"
	"kyrix/internal/fetch"
)

// TestCrimeMapJourney drives the paper's §2.2 application end to end
// through the public API: load the state map, click a state, follow the
// semantic-zoom jump to the county map, pan there, and verify the
// 500 ms budget at every step.
func TestCrimeMapJourney(t *testing.T) {
	db := kyrix.NewDB()
	mustExec(t, db, "CREATE TABLE states (id INT, name TEXT, rate DOUBLE, cx DOUBLE, cy DOUBLE)")
	mustExec(t, db, "CREATE TABLE counties (id INT, name TEXT, rate DOUBLE, parent INT, cx DOUBLE, cy DOUBLE)")
	// A 5x2 grid of 100x100 states; 4 counties per state on the 5x
	// county canvas.
	for s := 0; s < 10; s++ {
		cx, cy := float64(s%5)*100+50, float64(s/5)*100+50
		if err := db.InsertRow("states", kyrix.Row{
			kyrix.Int(int64(s)), kyrix.Text(stateName(s)), kyrix.Float(300 + float64(s)*50),
			kyrix.Float(cx), kyrix.Float(cy),
		}); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			ccx := cx*5 + float64(q%2)*250 - 125
			ccy := cy*5 + float64(q/2)*250 - 125
			if err := db.InsertRow("counties", kyrix.Row{
				kyrix.Int(int64(s*4 + q)), kyrix.Text("county"), kyrix.Float(300),
				kyrix.Int(int64(s)), kyrix.Float(ccx), kyrix.Float(ccy),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := kyrix.NewRegistry()
	reg.RegisterRenderer("states")
	reg.RegisterRenderer("counties")
	reg.RegisterSelector("stateLayer", func(_ kyrix.Row, layerIdx int) bool { return layerIdx == 0 })
	reg.RegisterViewport("countyCenter", func(row kyrix.Row) kyrix.Point {
		return kyrix.Point{X: row[3].AsFloat() * 5, Y: row[4].AsFloat() * 5}
	})
	reg.RegisterName("countyName", func(row kyrix.Row) string {
		return "County map of " + row[1].S
	})

	stateCols := []kyrix.ColumnSpec{
		{Name: "id", Type: "int"}, {Name: "name", Type: "text"},
		{Name: "rate", Type: "double"}, {Name: "cx", Type: "double"}, {Name: "cy", Type: "double"},
	}
	countyCols := []kyrix.ColumnSpec{
		{Name: "id", Type: "int"}, {Name: "name", Type: "text"},
		{Name: "rate", Type: "double"}, {Name: "parent", Type: "int"},
		{Name: "cx", Type: "double"}, {Name: "cy", Type: "double"},
	}
	app := &kyrix.App{
		Name: "crimetest",
		Canvases: []kyrix.Canvas{
			{
				ID: "statemap", W: 500, H: 200,
				Transforms: []kyrix.Transform{{ID: "st", Query: "SELECT * FROM states", Columns: stateCols}},
				Layers: []kyrix.Layer{{
					TransformID: "st",
					Placement:   &kyrix.Placement{XCol: "cx", YCol: "cy", Radius: 50},
					Renderer:    "states",
				}},
			},
			{
				ID: "countymap", W: 2500, H: 1000,
				Transforms: []kyrix.Transform{{ID: "ct", Query: "SELECT * FROM counties", Columns: countyCols}},
				Layers: []kyrix.Layer{{
					TransformID: "ct",
					Placement:   &kyrix.Placement{XCol: "cx", YCol: "cy", Radius: 125},
					Renderer:    "counties",
				}},
			},
		},
		Jumps: []kyrix.Jump{{
			From: "statemap", To: "countymap", Type: kyrix.GeometricSemanticZoom,
			Selector: "stateLayer", NewViewport: "countyCenter", Name: "countyName",
		}},
		InitialCanvas: "statemap", InitialX: 250, InitialY: 100,
		ViewportW: 200, ViewportH: 150,
	}

	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{100}},
	}, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	rep, err := inst.Client.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !kyrix.WithinBudget(rep) {
		t.Fatalf("state map load over budget: %v", rep.Duration)
	}
	states, err := inst.Client.ObjectsInViewport(0)
	if err != nil || len(states) == 0 {
		t.Fatalf("states: %v, %d", err, len(states))
	}
	clicked := states[0]
	choices, err := inst.Client.JumpsFor(clicked, 0)
	if err != nil || len(choices) != 1 {
		t.Fatalf("choices = %v, %v", choices, err)
	}
	if choices[0].Label != "County map of "+clicked[1].S {
		t.Fatalf("jump label = %q", choices[0].Label)
	}
	rep, err = inst.Client.Jump(choices[0].Index, clicked)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Client.Canvas().ID != "countymap" {
		t.Fatal("jump did not switch canvas")
	}
	// The viewport centers on the clicked state's 5x position.
	want := kyrix.Point{X: clicked[3].AsFloat() * 5, Y: clicked[4].AsFloat() * 5}
	if inst.Client.Viewport().Center().Dist(want) > 150 {
		t.Fatalf("county viewport center %v want near %v", inst.Client.Viewport().Center(), want)
	}
	counties, err := inst.Client.ObjectsInViewport(0)
	if err != nil || len(counties) == 0 {
		t.Fatalf("counties: %v, %d", err, len(counties))
	}
	// Every visible county belongs to a nearby state.
	for _, c := range counties {
		if c[3].AsInt() < 0 || c[3].AsInt() >= 10 {
			t.Fatalf("county with bad parent: %v", c)
		}
	}
	// Pan on the county map.
	rep, err = inst.Client.PanBy(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !kyrix.WithinBudget(rep) {
		t.Fatalf("county pan over budget: %v", rep.Duration)
	}
}

// TestUpdateSurvivesRestart exercises the §4 update path end to end on
// a standalone replicated log: an edit through the HTTP endpoint is
// committed to the log, and a restart over the same log dir (a fresh
// database loaded with the same rows) has replayed it by the time
// Launch returns, however long that takes.
func TestUpdateSurvivesRestart(t *testing.T) {
	logDir := filepath.Join(t.TempDir(), "replog")
	reg := kyrix.NewRegistry()
	reg.RegisterRenderer("notes")
	app := &kyrix.App{
		Name: "notes",
		Canvases: []kyrix.Canvas{{
			ID: "c", W: 1000, H: 1000,
			Transforms: []kyrix.Transform{{ID: "t", Query: "SELECT * FROM notes",
				Columns: []kyrix.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "tag", Type: "text"},
				}}},
			Layers: []kyrix.Layer{{
				TransformID: "t",
				Placement:   &kyrix.Placement{XCol: "x", YCol: "y", Radius: 5},
				Renderer:    "notes",
			}},
		}},
		InitialCanvas: "c", InitialX: 500, InitialY: 500,
		ViewportW: 400, ViewportH: 400,
	}
	srvOpts := kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 1 << 20}},
		Cluster:    kyrix.ClusterOptions{Replog: kyrix.ReplogOptions{Dir: logDir}},
		Precompute: fetch.Options{BuildSpatial: true},
	}
	launch := func() (*kyrix.DB, *kyrix.Instance) {
		db := kyrix.NewDB()
		mustExec(t, db, "CREATE TABLE notes (id INT, x DOUBLE, y DOUBLE, tag TEXT)")
		for i := 0; i < 100; i++ {
			mustExec(t, db, "INSERT INTO notes VALUES (?, ?, ?, '')",
				kyrix.Int(int64(i)), kyrix.Float(float64(i%10)*100+50), kyrix.Float(float64(i/10)*100+50))
		}
		inst, err := kyrix.Launch(db, app, reg, srvOpts, kyrix.DefaultClientOptions())
		if err != nil {
			t.Fatal(err)
		}
		return db, inst
	}
	db, inst := launch()

	// Tag a row through the HTTP update endpoint (503 until the
	// single-member log has elected itself).
	postUpdate(t, inst.BaseURL, "UPDATE notes SET tag = 'flagged' WHERE id = 55")
	res, err := db.Query("SELECT tag FROM notes WHERE id = 55")
	if err != nil || res.Rows[0][0].S != "flagged" {
		t.Fatalf("tag after update: %v %v", res, err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the log replays the HTTP-applied update before Launch
	// returns, so the first read sees it. The replay is not a
	// submission: a SubmitTimeout far shorter than it must not fail
	// the restart.
	srvOpts.Cluster.Replog.SubmitTimeout = time.Nanosecond
	db2, inst2 := launch()
	defer inst2.Close()
	res, err = db2.Query("SELECT COUNT(*) FROM notes")
	if err != nil || res.Rows[0][0].AsInt() != 100 {
		t.Fatalf("recovered count: %v %v", res, err)
	}
	res, err = db2.Query("SELECT tag FROM notes WHERE id = 55")
	if err != nil || res.Rows[0][0].S != "flagged" {
		t.Fatalf("recovered tag: %v %v", res, err)
	}
}

func mustExec(t *testing.T, db *kyrix.DB, sql string, args ...kyrix.Value) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func stateName(i int) string {
	names := []string{"Alpha", "Bravo", "Charlie", "Delta", "Echo",
		"Foxtrot", "Golf", "Hotel", "India", "Juliet"}
	return names[i%len(names)]
}
