package frontend

import (
	"fmt"

	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/storage"
)

// JumpChoice is one jump a clicked object can trigger, with its display
// label (the paper's Fig. 2b shows these as a menu during the zoom
// transition).
type JumpChoice struct {
	Index int // index into Meta().Jumps
	Label string
	To    string
}

// JumpsFor returns the jumps available from the current canvas for a
// clicked object on layer layerIdx, applying each jump's selector
// ("developers can specify a subset of objects on the from canvas that
// can trigger this jump").
func (c *Client) JumpsFor(row storage.Row, layerIdx int) ([]JumpChoice, error) {
	if c.ca == nil {
		return nil, fmt.Errorf("frontend: jumps need a compiled app (NewClient got nil)")
	}
	var out []JumpChoice
	for i, j := range c.meta.Jumps {
		if j.From != c.canvas.ID {
			continue
		}
		fns := c.ca.JumpFuncs[i]
		if !fns.Selector(row, layerIdx) {
			continue
		}
		out = append(out, JumpChoice{Index: i, Label: fns.Name(row), To: j.To})
	}
	return out, nil
}

// Jump executes jump jumpIdx triggered by the clicked row: it switches
// to the destination canvas, computes the new viewport (via the jump's
// newViewport function, or by scaling the clicked point by the zoom
// factor for plain geometric zooms), and fetches the new viewport's
// data ("a jump to a different canvas").
func (c *Client) Jump(jumpIdx int, row storage.Row) (FetchReport, error) {
	if c.ca == nil {
		return FetchReport{}, fmt.Errorf("frontend: jumps need a compiled app (NewClient got nil)")
	}
	if jumpIdx < 0 || jumpIdx >= len(c.meta.Jumps) {
		return FetchReport{}, fmt.Errorf("frontend: no jump %d", jumpIdx)
	}
	j := c.meta.Jumps[jumpIdx]
	if j.From != c.canvas.ID {
		return FetchReport{}, fmt.Errorf("frontend: jump %d starts from %q, current canvas is %q", jumpIdx, j.From, c.canvas.ID)
	}
	fns := c.ca.JumpFuncs[jumpIdx]

	var center geom.Point
	switch {
	case fns.NewViewport != nil && row != nil:
		center = fns.NewViewport(row)
	case row != nil:
		// Default: keep the clicked point centered, scaled to the
		// destination canvas (geometric zoom semantics).
		lm := &c.canvas.Layers[0]
		for li := range c.canvas.Layers {
			if c.canvas.Layers[li].HasData {
				lm = &c.canvas.Layers[li]
				break
			}
		}
		p := lm.RowBox(row).Center()
		center = geom.Point{X: p.X * fns.ZoomFactor, Y: p.Y * fns.ZoomFactor}
	default:
		center = c.viewport.Center()
	}

	if err := c.setCanvas(j.To); err != nil {
		return FetchReport{}, err
	}
	c.viewport = geom.RectXYWH(
		center.X-c.meta.ViewportW/2, center.Y-c.meta.ViewportH/2,
		c.meta.ViewportW, c.meta.ViewportH,
	).Clamp(c.canvasRect())
	return c.Load()
}

// compiledAppOf is a test hook.
func (c *Client) compiledAppOf() *spec.CompiledApp { return c.ca }
