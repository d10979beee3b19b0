package main

import (
	"fmt"
	"slices"

	"kyrix/internal/geom"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// reference answers "which dots does this viewport show" straight from
// the generated dataset — no sqldb, R-tree, cache, wire or frontend in
// the path — so the verify pass can compare the system's answer with
// it. Points are bucketed on a coarse grid only to make the filter
// cheap enough to run on every step; each candidate is still tested
// with the same box-intersects-viewport rule the renderer applies.
type reference struct {
	d       *workload.Dataset
	cell    float64
	cols    int
	rows    int
	buckets [][]int32
}

func newReference(d *workload.Dataset) *reference {
	r := &reference{d: d, cell: viewport}
	r.cols = int(d.CanvasW/r.cell) + 1
	r.rows = int(d.CanvasH/r.cell) + 1
	r.buckets = make([][]int32, r.cols*r.rows)
	for i := range d.Points {
		b := int(d.Points[i].Y/r.cell)*r.cols + int(d.Points[i].X/r.cell)
		r.buckets[b] = append(r.buckets[b], int32(i))
	}
	return r
}

// idsIn returns the sorted ids of every dot whose rendered box
// intersects vp.
func (r *reference) idsIn(vp geom.Rect) []int64 {
	var ids []int64
	c0, c1 := r.clamp(int((vp.MinX-pointRadius)/r.cell), r.cols), r.clamp(int((vp.MaxX+pointRadius)/r.cell), r.cols)
	r0, r1 := r.clamp(int((vp.MinY-pointRadius)/r.cell), r.rows), r.clamp(int((vp.MaxY+pointRadius)/r.cell), r.rows)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, i := range r.buckets[row*r.cols+col] {
				p := &r.d.Points[i]
				if geom.RectAround(geom.Point{X: p.X, Y: p.Y}, pointRadius).Intersects(vp) {
					ids = append(ids, p.ID)
				}
			}
		}
	}
	slices.Sort(ids)
	return ids
}

func (r *reference) clamp(v, n int) int { return min(max(v, 0), n-1) }

// checkRows compares the rows the frontend would draw with the
// reference. Aggregate rows of an auto-LOD level (more columns than the
// base schema) are not comparable to raw ids; for those the caller
// checks the row budget instead.
func (r *reference) checkRows(vp geom.Rect, rows []storage.Row) error {
	got := make([]int64, len(rows))
	for i, row := range rows {
		got[i] = row[0].AsInt()
	}
	slices.Sort(got)
	if want := r.idsIn(vp); !slices.Equal(got, want) {
		return fmt.Errorf("viewport %v shows %d dots, reference has %d", vp, len(got), len(want))
	}
	return nil
}
