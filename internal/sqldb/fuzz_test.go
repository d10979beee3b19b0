package sqldb

import "testing"

// FuzzParse: POST /update hands SQL from request bodies to Parse, so no
// input may panic the lexer or the parser, and every input either
// parses to a statement or returns an error — never both, never
// neither. The seeds are the statements internal/fetch and
// internal/server emit (one instance of each shape, with the table
// names a demo app gets), the /update statements the examples and tests
// send, and the retired USING HASH.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		// fetch: base tables, the spatial design and the id index.
		"CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)",
		"SELECT * FROM points",
		"CREATE INDEX kyrix_points_xy ON points USING RTREE (x, y, x, y)",
		"CREATE INDEX kyrix_points_id ON points USING BTREE (id)",
		"SELECT * FROM points WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?)",
		// fetch: the tuple–tile mapping design.
		"CREATE TABLE map_points_main_0_tiles_512 (tile_id INT, tuple_id INT)",
		"CREATE INDEX kyrix_map_points_main_0_tiles_512_tid ON map_points_main_0_tiles_512 USING BTREE (tile_id)",
		"SELECT r.* FROM map_points_main_0_tiles_1024 m JOIN points r ON m.tuple_id = r.id WHERE m.tile_id = ?",
		// fetch: materialized (non-separable) layer tables.
		"CREATE TABLE layer_bars_c_0 (kid INT, region TEXT, amount DOUBLE, idx INT, kminx DOUBLE, kminy DOUBLE, kmaxx DOUBLE, kmaxy DOUBLE)",
		"CREATE INDEX kyrix_layer_bars_c_0_kid ON layer_bars_c_0 USING BTREE (kid)",
		"CREATE INDEX kyrix_layer_bars_c_0_bbox ON layer_bars_c_0 USING RTREE (kminx, kminy, kmaxx, kmaxy)",
		"SELECT * FROM layer_bars_c_0 WHERE INTERSECTS(kminx, kminy, kmaxx, kmaxy, ?, ?, ?, ?)",
		"SELECT r.* FROM map_layer_bars_c_0_c_0_tiles_512 m JOIN layer_bars_c_0 r ON m.tuple_id = r.kid WHERE m.tile_id = ?",
		// fetch: the aggregation pyramid.
		"CREATE TABLE lod_pts_main_0_0 (id INT, x DOUBLE, y DOUBLE, val DOUBLE, lod_count INT, lod_sum DOUBLE, lod_minx DOUBLE, lod_miny DOUBLE, lod_maxx DOUBLE, lod_maxy DOUBLE)",
		"CREATE INDEX kyrix_lod_pts_main_0_0_ext ON lod_pts_main_0_0 USING RTREE (lod_minx, lod_miny, lod_maxx, lod_maxy)",
		"SELECT * FROM lod_pts_main_0_3 WHERE INTERSECTS(lod_minx, lod_miny, lod_maxx, lod_maxy, ?, ?, ?, ?)",
		// server: /update bodies and EXPLAIN.
		"UPDATE points SET val = ? WHERE id = ?",
		"UPDATE points SET val = val + 1",
		"UPDATE points SET val = val + 1 WHERE id >= ? AND id < ?",
		"UPDATE points SET x = ?, y = ? WHERE id = ?",
		"UPDATE points SET val = 2.5 / (x - ?) WHERE y < 100",
		"UPDATE layer_eeg_c_0 SET tag = 'artifact' WHERE t >= 45 AND t < 50 AND channel = 2",
		"DELETE FROM points WHERE id = ?",
		"INSERT INTO notes VALUES (?, ?, ?, '')",
		"EXPLAIN SELECT * FROM points WHERE id = 3",
		"SELECT COUNT(*) FROM notes",
		"SELECT id FROM points WHERE INTERSECTS(x, y, x, y, 0, 0, 10, 10) LIMIT 4",
		// Refused.
		"CREATE INDEX i ON points USING HASH (id)",
		"DROP nonsense",
		"SELECT 'unterminated",
		"-- only a comment",
		"CREATE TABLE A(A", // ran off the end of the tokens
		"",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = (%v, %v): want a statement or an error", sql, st, err)
		}
	})
}
