// Package kyrix is a from-scratch Go implementation of Kyrix, the
// end-to-end system for developing scalable details-on-demand data
// exploration applications (Tao et al., CIDR 2019).
//
// The public API mirrors the paper's architecture (Fig. 1):
//
//   - Declare an application with the canvas/layer/jump model
//     ([App], [Canvas], [Layer], [Jump]) and register transform,
//     placement, selector and rendering functions on a [Registry].
//   - [Compile] the spec; the compiler performs the constraint checks
//     of §2.1.
//   - Load data into the embedded DBMS ([NewDB], [DB.Exec],
//     [DB.InsertRow]) — the substrate standing in for PostgreSQL. Its
//     CREATE INDEX … USING takes BTREE (one INT column, the one point
//     index) or RTREE (four bounding-box columns).
//   - Start the backend with [NewServer]; it precomputes both of
//     §3.1's database designs (tuple–tile mapping tables, B-tree
//     indexed on tile_id where the paper offers "Btree/hash", and the
//     bbox spatial index) and serves tiles and dynamic boxes over HTTP
//     with a backend cache.
//   - Drive a frontend with [NewClient]: pan, jump, render; choose the
//     fetching granularity per §3.1 ([DBoxExact], [DBox50],
//     [TileSpatial1024], ...).
//
// # The spatial design clusters its table
//
// CREATE INDEX … USING RTREE clusters the table on the tree it builds,
// the way PostgreSQL's CLUSTER … USING does for a GiST index. A
// table's first R-tree rewrites its heap in the tree's search order and
// rebuilds the table's other indexes over the new row ids. Index scans
// fetch through a cursor that pins a page once per run of hits on it,
// so a window's rows come off a handful of adjacent pages: over bench/'s
// 1M points a 1024² window (≈ 490 rows) pins about 13 heap pages, 0.026
// per row, where the insertion-ordered heap pinned one page per row
// ([DB.Stats] counts PagesPinned). A window still returns its rows
// in the tree's search order, so payload bytes do not change. Two
// consequences: a seq scan of a clustered table returns rows in tree
// order, not insertion order (write ORDER BY where order matters), and
// rows inserted or moved by a growing UPDATE afterwards go to the end
// of the heap, outside the clustering.
//
// # Concurrent serving pipeline
//
// The backend is built to scale with cores, not collapse on one lock:
//
//   - The backend cache is sharded: keys are fnv-hashed onto a
//     power-of-two number of independently locked shards, a count
//     derived from GOMAXPROCS (small budgets collapse to one shard with
//     exact global LRU order). It adds a frequency-aware admission
//     policy — see "Backend cache admission" below. The frontend
//     cache is one shard: a client runs on one goroutine.
//   - Every item — a /batch item, a GET /tile or /dbox, a peer's fill —
//     takes one path to its payload: one L1 lookup, and on a miss one
//     fill that reads L2, then asks the key's owner when another node
//     owns it, then queries the database. Identical concurrent misses
//     are coalesced onto one such fill (singleflight): one L2 read,
//     peer exchange or database query runs, and every caller shares the
//     payload. L1 admits a fill's payload by ownership: an owned key
//     always, a non-owned one only once it is hot (see "Clustered
//     serving").
//   - A /batch handler serves its items on up to max(GOMAXPROCS, 8)
//     workers, itself one of them, so a one-item batch runs inline.
//   - [NewServer] materializes layers in parallel under a worker pool
//     of GOMAXPROCS workers; the first error wins.
//   - The server keeps a prepared-plan cache: each layer's constant
//     statement shapes are parsed once and re-executed with fresh '?'
//     arguments, skipping the SQL parser on the hot path.
//
// # Backend cache admission (W-TinyLFU)
//
// The backend cache is more than a sharded LRU: with
// [ServerOptions].Cache.L1.Admission set to "lfu" (the
// [DefaultServerOptions] setting) it is a frequency-aware admitting
// cache in the W-TinyLFU family. Each shard keeps a 4-bit count-min
// sketch of access frequencies — every lookup, hit or miss, is
// recorded, and the sketch is aged by periodic halving so yesterday's
// hot keys decay — plus a small probationary window in front of a
// segmented main area (probation/protected). While the cache is under
// its byte budget everything is admitted; once the budget is
// contended, a new entry must be estimated strictly more frequent
// than the would-be victim (the main area's LRU entry) to displace
// it. The effect on skewed multi-tenant traffic is exactly what the
// 500 ms budget needs: a one-shot sequential scan (a cold dbox sweep,
// a crawler) is rejected wholesale and cannot flush the hot tile set,
// while a genuinely popular key is admitted on its second touch.
// Entries re-accessed in the window or probation graduate to the
// protected segment (capped at 4/5 of a shard's share; overflow
// demotes back to probation). Knob: [ServerOptions].Cache.L1.Admission
// ("lfu"|"off" — "off" keeps the plain sharded LRU); the sketch is
// sized from the budget. The cache's Stats expose Admitted/Rejected
// gate decisions, surfaced by GET /stats.
//
// Two invariants hold regardless of policy. First, the byte budget is
// hard: after every Put, resident bytes <= budget — eviction tries
// the inserting shard, then a cross-shard steal, and finally drops
// the just-inserted entry itself rather than over-committing. Second,
// the cross-shard steal is capped at a fair share: no neighbor shard
// is drained below (budget - incoming)/shards by someone else's
// insert, so one oversized value cannot empty a warm neighbor. The
// adversarial workloads behind these guarantees ship with the cache's
// benchmarks: BenchmarkHitRatioZipf and BenchmarkHitRatioScan
// (internal/cache) replay the zipf and scan adversaries with admission
// off vs lfu and report hit ratios policy-by-policy on the same trace.
//
// # Persistent tile store (L2)
//
// Setting [ServerOptions].Cache.L2.Path enables a second cache tier
// under the in-memory one: an embedded single-writer log-structured KV
// store (internal/store) holding encoded, post-render tile/box
// payloads across restarts — a redeployed node re-serves its working
// set from local disk instead of stampeding the database cold.
//
//   - Record format. The store is a directory of size-bounded segment
//     files; each segment reuses the WAL's length-prefixed CRC-32
//     framing, and each record is one storage-codec row
//     {generation, kind, key, payload}. Reads are checksum-verified
//     end to end: a torn or corrupt record is a cache miss, never bad
//     bytes. An in-memory key→(segment,offset) index is rebuilt on
//     open by replaying the segments.
//   - Write-behind semantics. The serving path never waits on L2: an
//     L1 miss reads L2 before the database, and fills (database or
//     peer) are enqueued on a bounded queue flushed by one background
//     writer in batches (a full batch or Cache.L2.FlushInterval — one
//     fsync per batch). A full queue drops the fill; losing a write
//     costs a future disk miss, never correctness. [Instance.Close]
//     drains the queue (bounded by a deadline), so a fill accepted
//     just before shutdown is readable after restart.
//   - Invalidation: generation, tombstone, fence. Every record carries
//     the generation it was written under, and one fsynced generation
//     marker makes every earlier record invisible — in O(1), without
//     touching records on disk, durably across restarts: the whole-tier
//     invalidation. An /update that knows which rows it touched instead
//     appends one tombstone per resident key whose window holds them
//     (one fsync for the lot), which replay honours the same way. Either
//     moves the write-behind fence, so a fill computed before the change
//     is dropped at flush time. Eviction (oldest segment first,
//     salvaging still-live records within the byte budget) reclaims the
//     dead space, doubling as compaction.
//
// Knobs: [ServerOptions].Cache.L2 Path/MaxBytes/WriteQueueDepth/
// FlushInterval (segment files are sized from MaxBytes);
// GET /stats reports the tier under
// cache.l2 ([StatsSnapshot]). `kyrix-bench -restart -l2dir DIR`
// measures the restart benefit, and BenchmarkColdStart guards it in CI.
//
// # Updates (POST /update)
//
// The paper defers caching under updates; this backend makes an update
// cost what it touches. The first /update a server sees gives every
// layer table a B-tree on its id column (bulk-loaded, ≈ 16 B per row —
// not at start-up, because most servers never update), so `WHERE id = ?`
// is a probe, not a scan. The statement reports the old and new image of
// every row it changed, including the rows already changed when it fails
// part-way; each image is mapped to its canvas rectangle in every layer
// the table backs, and only the cached windows those rectangles intersect
// are removed — L1 entries by a sweep over the resident keys (a key names
// exactly one window and parses back to it), L2 records by tombstones.
// What stays global is the fence: the cache generation moves on every
// update, so a query already in flight is never stored and never shared
// with a later request, and delta planning is excluded for the length of
// the transition; a delta base that survives the sweep holds none of the
// changed rows, one that did not degrades the frame to a full one. The
// whole-tier clear remains the fallback for what cannot be scoped: DDL,
// a table that is no layer's data table, a statement touching more than
// a few hundred rows. In a cluster every node runs this transition when
// it applies the update from the replicated log (below). Known limits:
// LOD pyramid levels and tuple–tile mapping tables are still built once
// and not maintained (every mapping-design tile of an edited layer is
// dropped, since those tables place a row by where it was when they were
// built); and replaying the log at restart re-invalidates by every
// historical rectangle. The http.update span carries rows, rects,
// scope (with the fallback reason), l1.removed, l2.removed and
// indexBuilt; /stats reports cache.invalidationsScoped/Full,
// cache.l1.removed and cache.l2.tombstones, mirrored at /metrics.
//
// # Clustered serving
//
// One process, however well sharded, is one machine. With
// [ServerOptions].Cluster ([ClusterOptions]: Self, Peers,
// HotReplicate) N backends form a serving tier in the
// groupcache mold, assuming a shared (or identically loaded) backing
// store:
//
//   - Ownership. Every canonical cache key (layer+tile, layer+box —
//     the same strings the backend cache stores) maps to exactly one
//     owner node on a consistent-hash ring with virtual nodes. Node
//     join/leave remaps only ~K/N keys (property-tested in
//     internal/cluster), so growing the tier does not restart the
//     world.
//   - Peer fill. A node that misses L1 and L2 on a key it does not
//     own forwards the request to the owner's /peer endpoint instead
//     of querying the database; the owner serves it through the same
//     path as its own items, without forwarding. The reply reuses the
//     wire v3 frame codec (one frame: status byte, bounded DEFLATE when
//     worth it).
//     Transport is pooled HTTP with per-peer bounded concurrency and
//     a hard timeout; any peer failure degrades to a local database
//     query — a slow or dead peer costs latency, never availability.
//   - Cross-node singleflight. The non-owner's concurrent identical
//     misses coalesce onto one peer exchange, and the owner dedupes
//     that exchange against its own misses via the generation-scoped
//     flight keys — so one database query serves the entire cluster
//     per key per generation (asserted under -race in the server
//     tests).
//   - Hot-key replication. A non-owned key whose sketch frequency
//     crosses HotReplicate is admitted into the local cache after a
//     peer fill or an L2 read (a payload this node had to query itself
//     is always admitted), so a viral viewport is served everywhere
//     locally instead of bottlenecking its owner; the long tail stays
//     owner-only and aggregate cache capacity scales with N.
//   - Invalidation. A cluster requires the replicated update log
//     (below): every node applies each update itself, in log order,
//     with the same scoped sweep. A node's data version is its count of
//     applied updates, equal on every node at the same log position;
//     a requester refuses a peer fill served at an older version than
//     its own and queries locally (cluster.behindFills in /stats), so a
//     node never serves or persists a lagging owner's pre-update rows.
//     Non-owned dbox items always ship full v3 frames: their payload
//     comes from outside this node's update fence, where the id-based
//     delta diff cannot prove a base safe.
//
// `kyrix-server -self URL -peers URL,URL,...` joins a real node;
// `kyrix-bench -clients 8 -nodes 2` runs the in-process scaling
// demonstration (per-node hit%/fill%/dbq columns) against the
// `-nodes 1` baseline. Measured results live with the benchmark
// harness in bench/ and in CHANGES.md, not in committed artifacts.
//
// # Replicated updates
//
// The cluster section above shares reads; [ClusterOptions].Replog
// ([ReplogOptions]: Dir, ElectionTimeout, SubmitTimeout)
// replicates writes, and a cluster requires its Dir ([NewServer]
// refuses a cluster without one). Every node runs a member of a
// leader-based replicated log (internal/replog — a minimal Raft
// subset, no external dependency): POST /update on any node is
// forwarded to the leader, appended as a term-numbered log command,
// acknowledged only once a quorum of members has it durably in their
// WALs, and then applied on every node in log order — on the
// acknowledging node before the response (read-your-writes). The
// apply callback executes the SQL and removes what it touched from the
// local L1 and L2 (see "Updates" above); it is the only way an update
// reaches a peer, so a cluster has one total order of updates.
//
//   - Durability. Each member persists the log through the same
//     length-prefixed CRC-32 WAL framing the store uses: an
//     append-only term/vote file (meta.kyx) and a truncatable entry
//     log (replog.kyx) under Dir. An acked update survives any
//     minority of crashes — and full restarts, since the entries are on
//     every quorum member's disk. A restarted cluster member replays
//     the committed prefix as its leader reports it; a standalone
//     member replays its whole log before [NewServer] returns.
//   - Failover. Followers detect a dead leader by heartbeat silence
//     (randomized election timeouts prevent split votes; a live
//     leader's followers refuse votes, so a rejoining node cannot
//     depose it) and elect a replacement that first commits a no-op to
//     discover the durable frontier. Clients see 503 during the
//     election window; an update acked before the kill is never lost.
//     An ack names the command's own log slot: a slot that a new
//     leader filled with another entry is proposed again, so a 200
//     means the update was applied.
//     A 503 is ambiguous — the update may have committed before the
//     error — so each update carries an idempotency key the log
//     dedupes retries on (the forwarding path mints one per request;
//     clients needing retry-safety across their own re-POSTs set "id"
//     in the /update body), making a keyed retry exactly-once even for
//     non-idempotent SQL.
//   - Standalone. A single-member log (Self unset, Dir set;
//     `kyrix-server -replog-dir DIR` without cluster flags) commits
//     with quorum 1 — the same durable, replayable /update without
//     cluster networking, and the one durable record of updates on one
//     node. It is its own quorum, so at open its whole log is
//     committed: [NewServer] returns once every entry on disk has been
//     applied, however long the replay takes (SubmitTimeout bounds
//     submissions, not the replay), and a restart over the same Dir,
//     loaded with the same data, serves the updated rows from its first
//     request.
//
// GET /stats reports the member under replog (role, term, leader,
// last/commit/applied indexes) and per-peer transport health under
// cluster.peers (failure counts, breaker state). `kyrix-server
// -replog-dir DIR` joins a real member; `kyrix-bench -failover` runs
// the 3-node kill-the-leader measurement (steady vs failover tile
// p50, election-bridge time, updates lost — contractually 0), and the
// chaos tests in
// internal/experiments (leader kill, partition, full-cluster restart)
// assert zero committed-update loss under -race in CI's chaos-smoke
// job.
//
// # Auto-LOD layers (aggregation pyramid)
//
// A separable layer declared with "lod": "auto" ([Layer].LOD) gets a
// per-zoom-level aggregation pyramid at precompute time, the Kyrix-S
// direction: any viewport at any zoom scans a bounded number of rows.
//
//   - Pyramid layout. Level ℓ partitions the canvas into square cells
//     of side 64·2^ℓ canvas units. Each cell stores one materialized
//     row: the cell's representative base row (rule below; the
//     base-schema prefix, id/x/y/..., decodes exactly like a raw row)
//     with appended
//     aggregate columns lod_count (rows in the cell), lod_sum (first
//     non-coordinate numeric column), and lod_minx/miny/maxx/maxy (the
//     union of the member rows' rendered boxes, R-tree indexed).
//     Levels are built until a level's full-canvas cell count fits the
//     row budget ([PrecomputeOptions].LODRowBudget, default 4096).
//     Level 0 aggregates the base table; each coarser level folds 2×2
//     child cells. A row counts iff its rendered box (its point ± the
//     layer radius) intersects the canvas, edges inclusive; a counted
//     row whose point lies outside joins the nearest edge cell.
//   - Representative rule. A level-0 cell's representative is its
//     member with the smallest id; a coarser cell's is its heaviest
//     child's (largest lod_count, ties to the smaller representative
//     id). Children fold in Z order, so lod_sum adds in a fixed order
//     too, and two builds over the same heap are bit-identical.
//   - Level selection. A tile or dbox window routes to the coarsest
//     need: if the layer's row density times the window area fits the
//     budget, raw rows are served; otherwise the finest level whose
//     cell count inside the window fits the budget. The rule is a pure
//     function of the window and per-layer constants, so cache keys,
//     cluster ownership and the wire format need no level
//     component — cached pyramid tiles flow through the W-TinyLFU
//     cache, peer fills and v3 compression unchanged (v3 delta frames
//     are gated on base and new box selecting the same level: the same
//     representative id carries different aggregates across levels).
//   - Build. One pass, on one goroutine per layer: the raw table's
//     clustered heap is scanned once, each tuple decoded into one
//     reused row, and level-0 cells are kept by the Morton (Z-order)
//     code of their grid cell, so memory follows the non-empty cells,
//     never the canvas area. Sorted by code, the children of a parent
//     are adjacent and each coarser level is one in-place linear fold.
//     A level row is the representative's stored tuple bytes followed
//     by the encoded aggregate columns, appended straight into the
//     level heap; then the level's R-tree is bulk-loaded. There is no
//     worker pool inside a layer; a failure in any layer's build still
//     cancels the in-flight builds of every other layer.
//
// The bounded-row property is measured by bench/'s zoom_lod workload
// and by BenchmarkLODZoom (rows scanned per pan step with the lod knob
// off vs on), which CI's bench-regression job tracks together with
// BenchmarkPyramidBuild (one build: ns/op, B/op). GET /app advertises
// lod/lodLevels per layer; GET /stats exposes lodQueries and
// dbRowsScanned.
//
// # Wire payloads (the JSON and binary codecs)
//
// A payload is the rows of one tile or dynamic box under a small schema
// header, in the codec the request names; GET /tile, GET /dbox and batch
// frames carry exactly these bytes. The server caches one form only: the
// binary payload, which L1, L2 and peer fills hold whichever codec a
// client speaks, so a box costs one query and one L1 entry. There is one
// writer, the payload builder in internal/server (fed by the query path
// and by server.Encode), and it writes the binary payload; a JSON payload
// is written from the binary one's columns on first need and kept in the
// wire memo — the document for GET /tile and /dbox, only the DEFLATE
// body for batch frames — while its id and length stay with the
// cached binary payload for the delta planner. Each codec has one reader
// (server.DecodeColumns). Both are fixed formats, not "whatever a
// marshaller emits". The reader fills columns — one typed slice per
// column, TEXT as offsets into one byte arena — which is what the
// frontend holds for a box or a tile, applies deltas to column by column,
// and turns into rows only for the objects it draws; server.Decode is the
// row view of the same result.
//
// JSON is one document with no insignificant whitespace and its three
// members in this order:
//
//	{"cols":["id","x"],"types":[1,2],"rows":[[7,1.5],[8,2]]}
//
//	payload = '{"cols":' cols ',"types":[' type,* '],"rows":[' row,* ']}'
//	cols    = '[' string,* ']' | 'null'      (null: no column list at all)
//	type    = '1' INT | '2' DOUBLE | '3' TEXT | '4' BOOL, one per column
//	row     = '[' cell,* ']'                 one cell per column
//	cell    = integer | number | string | 'true' | 'false'
//	number  = -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?  (RFC 8259)
//	integer = a number with neither fraction nor exponent
//
// An INT cell is the decimal int64, read back exactly (never through a
// float64, so ids above 2^53 survive). A DOUBLE cell is the shortest
// digits that round-trip, positional when 1e-6 <= |v| < 1e21 and
// otherwise exponent form with an unpadded exponent ("1e-7", "1e+21");
// NaN and the infinities cannot be encoded: a binary payload holding one
// is served to binary clients and fails JSON requests with a server
// error. Strings escape
// ", \ and control bytes (\b \f \n \r \t, else \u00XX), <, > and & as
// \u003c \u003e \u0026, U+2028/9 as \u2028 \u2029, and replace invalid
// UTF-8 with \ufffd. These are encoding/json's conventions byte for
// byte — the tests hold the writer to json.Marshal and the reader to
// json.Unmarshal as reference implementations — so any JSON parser reads
// a payload; the reader here accepts this grammar only, and refuses
// such spellings as "+1", ".5", "1." and "01" that a lenient reader
// takes. It reads the row section in one pass and each number cell as
// it scans it: the significant digits go into an integer mantissa, and
// a DOUBLE in positional form with at most 19 of them — nearly every
// cell the writer emits — is rounded once: by one float64 division of
// two exact operands when the mantissa is at most 2^53, otherwise by one
// 128-by-64-bit integer division rounded half to even. Exponent form and
// longer digit strings go to strconv; either way the result is bit for
// bit strconv.ParseFloat's.
//
// Binary is column-major, with each fixed-width column cut into byte
// planes ordered by class. A header — uvarint(ncols), then per column
// uvarint(len) name, one type byte and its plane order, then
// uvarint(nrows) — is followed by two runs of sections:
//
//	plane order  one byte f, then f plane indexes 0..7, strictly
//	             ascending: the column's leading planes. f is 0 for
//	             BOOL and TEXT, which have no planes.
//	leading run  per column, in column order:
//	  INT, DOUBLE  its leading planes, in the header's order
//	  BOOL         nrows bytes, 0 or 1
//	  TEXT         nrows uvarint lengths, then every row's bytes abutting
//	trailing run per INT or DOUBLE column, in column order, its other
//	             planes in ascending order
//
// A plane is nrows bytes: plane k holds byte k of every row's
// little-endian value (a DOUBLE as its IEEE-754 bits). The writer reads
// up to 128 bytes of each plane, spread evenly over it, and calls the plane
// random when they show as many distinct values as bytes drawn
// uniformly from 150 values would — the alphabet whose bytes the frame
// compressor stores rather than Huffman-codes (see the wire package);
// every other plane leads. So like bytes sit together — an id's zero
// high bytes, a box's shared exponents, BOOL and TEXT — ahead of the
// random low id and mantissa bytes, and a compressed frame is one
// deflated run and one stored one. The sections end exactly at the end
// of the payload, and a reader checks every count and plane order
// against the bytes behind it before allocating: a plane index past 7,
// a repeated or unordered one, or a plane order on a BOOL or TEXT
// column is refused. A payload holds the same bytes as the rows'
// storage tuples, rearranged, plus the plane orders: a `SELECT *` window
// query copies each heap tuple from its pinned page into a scratch
// buffer, and the finished payload transposes them. A delta's entering
// rows are a per-column gather of the new binary payload, its planes
// classified afresh so that it is exactly the payload of those rows —
// written as JSON for a JSON client, whose delta names the JSON form's
// id and length — and the row index reads ids straight out of the id
// column's planes.
//
// L1 and L2 keys start with the key space "binplane", named for the
// class-ordered byte planes. Older builds cached the row-major binary
// layout under "binary", a JSON copy under "json" and column-major
// payloads whose planes kept column order under "bincol", so an L2
// directory they wrote is never read by this decoder: the store drops
// those records when it opens, and the misses refill under the new
// keys. A peer fill request names the key space too, so during a
// node-by-node upgrade an owner on either build refuses a layout it
// does not cache and the requester queries its own database instead.
//
// In both codecs the header's types are the value kinds of the first
// row (all DOUBLE for an empty result), and rows appear in the order the
// index visited them.
//
// # Batch endpoint (POST /batch)
//
// POST /batch serves one viewport's worth of tile and dynamic-box
// sub-requests — every layer of one canvas — in a single round trip, as
// a binary stream flushed frame by frame as sub-results complete, so
// the client renders layers as they arrive. The request is JSON. "v"
// must be 3: a body without it (the retired v1 envelope and v2 stream
// shapes) is a 400 "unsupported batch protocol"; a field the request
// does not define is a 400 too. Every frame is
// DEFLATE-compressed when that makes it smaller, and a dbox item may
// declare a base box the client already holds:
//
//	{"v":3,"canvas":"main","codec":"binary","items":[
//	 {"kind":"tile","layer":0,"size":256,"col":0,"row":0},
//	 {"kind":"dbox","layer":1,"minx":200,"miny":0,"maxx":1200,"maxy":800,
//	  "base":{"minx":0,"miny":0,"maxx":1000,"maxy":800,"id":"e5f1a9..."}}]}
//
// The response (Content-Type application/x-kyrix-batch-v3) is, with
// every integer an unsigned varint:
//
//	header:  magic "KYXB" | version 0x03 | item count
//	frame:   index | kind (1B: 0=tile 1=dbox) | status (1B) |
//	         codec (1B: 0=raw 1=flate 2=delta 3=delta+flate) |
//	         payload length | payload
//
// Frames arrive in completion order; index maps a frame to its item.
// Status 0 (OK) carries the item's data; statuses 1 (bad request) and 2
// (internal) carry a UTF-8 message in a raw frame, and failures stay
// per-frame instead of failing the batch. The stream ends after exactly
// `item count` frames; an earlier EOF is a truncated stream. The magic
// names the framed family, the version byte bumps on any layout change
// or new kind, status or codec, and decoders reject what they do not
// know. At most 256 items per request; the frontend splits larger
// viewports across round trips, issued one after another.
//
// A raw payload is the exact bytes a single GET /tile or /dbox would
// return for the item, in the request codec.
// Flate payloads are DEFLATE streams of the raw payload, emitted only
// when a cheap size/entropy heuristic says compression will pay. They
// are inflated by internal/wire's own one-pass inflater, which decodes
// the whole frame in memory and stops at a byte limit, so a corrupt or
// hostile stream can never become a decompression bomb; it accepts
// exactly what compress/flate's reader does. The client decodes a frame
// where the inflater wrote it (wire.Inflate lends its pooled buffer),
// copying only the columns it keeps; a peer fill, which caches the
// payload, takes a copy (wire.Decompress). Delta payloads carry the byte size and
// content hash of the full payload they replace, a tombstone list (ids
// of rows leaving the base box) and the entering rows as a nested
// payload: the client reconstructs base − tombstones + entering, which
// is row-for-row the full result. The "id" is the XXH64 hash (seed 0)
// of the exact payload bytes the client holds, hashed eight bytes at a
// time; ids live only in memory (memo keys, the client's held-box id),
// so no stored key depends on the function. The server only delta-encodes
// when its cached copy of the base hashes identically, so stale bases
// (after an /update), evicted bases, low overlap, or a delta bigger
// than the full payload all degrade to a full frame — the delta is an
// optimization, never a correctness dependency.
//
// Encode once, ship many: on the server a cached payload exists in
// three forms, and each is computed once, not per response. (1) The raw
// bytes in the request codec plus their content hash, produced by
// whichever fill made the bytes resident — a database query, an L2
// promotion or a peer fill — and stored together as the L1 value; L1
// and L2 account for the raw bytes only. (2) The DEFLATE body, or the
// verdict that compressing will not pay. (3) A row index: every row's
// id and byte range inside the raw bytes, scanned from the bytes
// without decoding a row. Forms (2) and (3) are built by the first
// response that needs them and kept in a 32 MB content-addressed memo
// (keyed by the hash, so an /update — new bytes, new hash — needs no
// invalidation). A full frame served from L1 is therefore two lookups
// with no hashing, deflating or decoding. A delta frame is encoded once
// per (base, new) pair: the first response for the pair diffs the two
// cached id lists, copies the entering rows' byte ranges out of the new
// payload and deflates the result, and the memo keeps that frame (or
// the verdict that no delta pays) under both hashes. Every response
// first checks the declared base against L1 by its stored hash, so a
// memoized frame only ships where a fresh one would; after that the
// pair costs one lookup. /stats reports wireMemoHits, wireMemoMisses,
// wireMemoBytes, wireMemoEntries and wireMemoEvictions, and the
// compress stage histogram counts real DEFLATE passes only.
//
// Every dynamic box, every static layer and [Client.PrefetchBoxes]
// ride this stream. Tiles do when [ClientOptions].BatchSize > 1; at 0 or
// 1 the client keeps the paper's one GET /tile per tile, the baseline
// Figures 6 and 7 measure. The server DEFLATE-compresses a frame when
// that makes it smaller. GET /tile and GET /dbox stay on the server for
// single requests (curl, debugging): each turns its query string into
// one batch item and serves it through the same check and cache path,
// so a window the batch refuses (a bad layer, a tile size that is not
// finite and positive, a box with a non-finite or inverted edge) is a
// 400 there too. The benchmark in bench/ (`bash
// bench/run.sh`) reports wire bytes per step, the wire/raw ratio and
// time-to-first-frame.
//
// # Observability
//
// The backend instruments its own serving pipeline end to end
// (internal/obs, stdlib-only): request tracing, Prometheus-format
// metrics, and a flight recorder of slow requests, all mounted on the
// serving mux and all on by default ([ObsOptions] on
// ServerOptions.Obs turns pieces off or sizes them).
//
// Tracing: every request handler opens a root span and the pipeline
// stages it passes through become children — the span taxonomy is
// http.tile / http.dbox / http.batch / http.update roots over item,
// l2.read, db.query, peer.fetch, peer.serve, delta.plan, compress and
// flush children, with attributes (cache tier hit, LOD level, rows,
// bytes, applied/skipped, and cached on delta.plan and compress: served
// from the payload's memoized forms) on the span that decided them. The
// db.query span and stage cover a miss's whole trip from index probe to
// finished payload — the executor pushes each row into the encoder as it
// leaves the heap page, so scan and encode are one pass and are timed as
// one; rows and bytes are what that pass produced. Trace context
// crosses process boundaries in the X-Kyrix-Trace header, and a peer
// ships its finished subtree back in X-Kyrix-Trace-Spans, so a
// cluster fill records ONE stitched trace on the requesting node:
// http.tile -> peer.fetch -> the owner's peer.serve -> db.query. The
// frontend client joins in when [ClientOptions].Tracer is set — each
// Load/Pan opens an "interaction" span (time-to-first-frame and
// request counts as attributes) whose context is stamped onto /batch
// POSTs, parenting the server's work under the user-visible
// interaction. Replog RPCs carry the same header, so a follower's
// vote or append lands under the leader's trace.
//
// Metrics: GET /metrics serves the Prometheus text exposition —
// fixed-bucket per-stage latency histograms
// (kyrix_stage_duration_seconds{stage=...}, observed on the serving
// path whether or not tracing is enabled) plus every counter /stats
// reports, re-rendered at scrape time from the same atomics so the
// two surfaces cannot disagree. GET /stats (schema v2) carries
// uptimeSeconds and build info. A scrape costs one registry walk; the
// hot path pays two atomic adds per stage.
//
//	curl -s localhost:8080/metrics | grep kyrix_stage
//	curl -s localhost:8080/debug/requests | jq '.slowest[0]'
//
// Flight recorder: /debug/requests returns the N most recent and N
// slowest completed root spans as JSON trees (N =
// ObsOptions.FlightRecorderSize, default 64) — the "what was that
// spike" tool, lock-cheap enough to leave on in production.
// kyrix-server exposes the knobs as -no-trace, -flight-recorder and
// -pprof (opt-in net/http/pprof); kyrix-bench's client sweep prints
// the final per-stage p50/p95/p99 scraped from /metrics. CI's
// obs-smoke job boots a 1-node cluster, drives a batched sweep, and
// validates the scrape; the bench job tracks BenchmarkObsOverhead
// (tracing on vs off over the hot HTTP tile path) so the
// instrumentation budget (<3% p50) holds across PRs.
//
// # Static analysis (kyrix-vet)
//
// The invariants the sections above rely on — lock discipline, bounded
// decompression, cancellable scans, load-bearing durability errors,
// stoppable background work — are mechanized as five custom analyzers
// in internal/analysis, driven by cmd/kyrix-vet either standalone
// (`go run ./cmd/kyrix-vet ./...`) or through the vet driver
// (`go build -o kyrix-vet ./cmd/kyrix-vet && go vet -vettool=./kyrix-vet ./...`).
// CI's static-analysis job gates every change on both go vet and
// kyrix-vet.
//
//   - guardedby: a struct field annotated `// guarded by mu` may only
//     be accessed in functions that lock mu first, follow the *Locked
//     caller-holds-lock naming convention, or operate on a locally
//     constructed value. Mechanizes the lock discipline the sharded
//     cache, replog and store depend on.
//   - boundedread: io.ReadAll over a reader of unknown size and direct
//     flate/gzip/zlib reader construction are forbidden outside
//     internal/wire — bound with io.LimitReader/http.MaxBytesReader or
//     decompress through wire.Inflate or wire.Decompress, whose inflater enforces a
//     byte budget. The standing form of the v3 decompression-bomb
//     defense.
//   - ctxloop: a function handed a context must stay cancellable — row
//     scans (loops over []storage.Row) and unconditional for{} loops
//     must observe ctx, and context.Background()/TODO() must not cut
//     the caller's cancellation chain. The standing form of the
//     Materialize cancellation fix.
//   - walerr: errors from wal/store methods are durability signals; a
//     bare call, defer, or go statement that discards one is flagged.
//     Assigning to _ is the visible, greppable opt-out.
//   - lifecycle: time.Tick never (its ticker is unstoppable); a
//     NewTicker result must be stopped or handed off; goroutines
//     launched from long-lived types (method set has Close/Stop/
//     Shutdown) must have a drain tie — channel receive, select,
//     context, WaitGroup — so Close actually ends them.
//
// Analysis covers production code only (_test.go files are skipped).
// A false positive is suppressed inline with `//lint:ignore-kyrix
// <analyzer> <reason>` on or directly above the flagged line; the
// reason is mandatory, and a reasonless directive is itself a finding.
// The analyzers are tested against fixtures in
// internal/analysis/testdata, and TestRepoClean pins the tree at zero
// findings.
//
// The experiment harness that regenerates the paper's Figures 6 and 7
// lives in internal/experiments and is exposed through cmd/kyrix-bench
// and the root bench_test.go; `kyrix-bench -clients 1,8,32 -nodes 2`
// measures a serving cluster under parallel frontends. Single-node
// serving is measured by the benchmark in bench/ (`bash bench/run.sh`).
package kyrix

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// InteractiveBudget is the 500 ms response-time goal of §1/§3.
const InteractiveBudget = frontend.InteractiveBudget

// Declarative model (§2.1).
type (
	// App is the root of a Kyrix specification.
	App = spec.App
	// Canvas is an arbitrary-size worksheet with overlaid layers.
	Canvas = spec.Canvas
	// Layer is one overlaid layer of a canvas.
	Layer = spec.Layer
	// Transform is a layer's data specification (SQL + row transform).
	Transform = spec.Transform
	// ColumnSpec declares one transform output column.
	ColumnSpec = spec.ColumnSpec
	// Placement locates data objects on the canvas (§3.1/§3.2).
	Placement = spec.Placement
	// Jump is a customized transition between canvases.
	Jump = spec.Jump
	// JumpType enumerates transition types.
	JumpType = spec.JumpType
	// Registry resolves function names used in specs.
	Registry = spec.Registry
	// CompiledApp is a validated spec with functions resolved.
	CompiledApp = spec.CompiledApp
)

// Jump types (geometric zoom, semantic zoom, or both).
const (
	GeometricZoom         = spec.GeometricZoom
	SemanticZoom          = spec.SemanticZoom
	GeometricSemanticZoom = spec.GeometricSemanticZoom
)

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry { return spec.NewRegistry() }

// Compile validates an app spec against a registry (§2.1's compiler).
func Compile(app *App, reg *Registry) (*CompiledApp, error) {
	return spec.Compile(app, reg)
}

// ParseSpec parses a JSON app spec.
func ParseSpec(data []byte) (*App, error) { return spec.FromJSON(data) }

// Embedded DBMS (the PostgreSQL stand-in).
type (
	// DB is the embedded relational database.
	DB = sqldb.DB
	// Row is one tuple.
	Row = storage.Row
	// Value is one dynamically typed cell.
	Value = storage.Value
)

// NewDB creates an empty embedded database.
func NewDB() *DB { return sqldb.NewDB() }

// Value constructors.
var (
	// Int builds an integer value.
	Int = storage.I64
	// Float builds a float value.
	Float = storage.F64
	// Text builds a string value.
	Text = storage.Str
	// Boolean builds a bool value.
	Boolean = storage.Bool
)

// Backend (Fig. 1's "Backend Server").
type (
	// Server is the Kyrix backend.
	Server = server.Server
	// ServerOptions configures precomputation and the backend cache.
	ServerOptions = server.Options
	// PrecomputeOptions selects which physical structures are built at
	// startup (ServerOptions.Precompute). The alias makes the knobs
	// constructible by external module consumers, who cannot import
	// the internal package the struct lives in.
	PrecomputeOptions = fetch.Options
	// ClusterOptions joins a backend to a serving cluster
	// (ServerOptions.Cluster): consistent-hash tile ownership with
	// peer cache fill — see the "Clustered serving" section above.
	ClusterOptions = server.ClusterOptions
	// ReplogOptions configures the replicated update log
	// (ClusterOptions.Replog): setting Dir turns /update into a
	// quorum-committed log command — see "Replicated updates" above.
	ReplogOptions = server.ReplogOptions
	// CacheOptions is the backend cache configuration
	// (ServerOptions.Cache): L1 is the in-memory W-TinyLFU/LRU tier,
	// L2 the persistent tile store — see "Backend cache admission" and
	// "Persistent tile store (L2)" above.
	CacheOptions = server.CacheOptions
	// L1CacheOptions configures the in-memory backend cache tier.
	L1CacheOptions = server.L1CacheOptions
	// L2CacheOptions configures the persistent tile store tier.
	L2CacheOptions = server.L2CacheOptions
	// StatsSnapshot is the versioned structured GET /stats response
	// (schema v2).
	StatsSnapshot = server.StatsSnapshot
	// ObsOptions configures the observability layer
	// (ServerOptions.Obs): tracing + flight recorder depth + pprof —
	// see the "Observability" section above. The zero value traces with
	// a 64-deep recorder and no pprof.
	ObsOptions = server.ObsOptions
)

// DefaultPrecomputeOptions builds both §3.1 database designs with the
// paper's three tile sizes — the Precompute field of
// DefaultServerOptions, exposed so callers can start from it and
// adjust single knobs.
func DefaultPrecomputeOptions() PrecomputeOptions {
	return server.DefaultOptions().Precompute
}

// NewServer precomputes every layer and returns a ready backend.
func NewServer(db *DB, ca *CompiledApp, opts ServerOptions) (*Server, error) {
	return server.New(db, ca, opts)
}

// DefaultServerOptions builds both §3.1 database designs with the
// paper's three tile sizes.
func DefaultServerOptions() ServerOptions { return server.DefaultOptions() }

// Frontend (Fig. 1's "Frontend").
type (
	// Client is a frontend instance.
	Client = frontend.Client
	// ClientOptions selects the fetching scheme, codec and cache size.
	ClientOptions = frontend.Options
	// FetchReport is one interaction's measured data fetching.
	FetchReport = frontend.FetchReport
	// RenderFunc draws one data object.
	RenderFunc = frontend.RenderFunc
	// LayerMeta is what the frontend knows about one layer (schema,
	// placement parameters, renderer name); renderers receive it.
	LayerMeta = server.LayerMeta
)

// NewClient connects a frontend to a backend URL.
func NewClient(baseURL string, ca *CompiledApp, opts ClientOptions) (*Client, error) {
	return frontend.NewClient(baseURL, ca, opts)
}

// DefaultClientOptions uses dynamic boxes with a 64 MB frontend cache.
func DefaultClientOptions() ClientOptions { return frontend.DefaultOptions() }

// Fetching granularities (§3.1).
type Granularity = fetch.Granularity

// The paper's eight fetching schemes plus helpers.
var (
	// DBoxExact fetches exactly the viewport per move.
	DBoxExact = fetch.DBoxExact
	// DBox50 fetches a box 50% larger than the viewport.
	DBox50 = fetch.DBox50
	// TileSpatial256/1024/4096: static tiles over the spatial index.
	TileSpatial256  = fetch.TileSpatial256
	TileSpatial1024 = fetch.TileSpatial1024
	TileSpatial4096 = fetch.TileSpatial4096
	// TileMapping256/1024/4096: static tiles over tuple–tile mapping.
	TileMapping256  = fetch.TileMapping256
	TileMapping1024 = fetch.TileMapping1024
	TileMapping4096 = fetch.TileMapping4096
)

// Instance is a running in-process Kyrix application: backend on a
// loopback listener plus a connected frontend — the one-call setup for
// examples and embedding.
type Instance struct {
	DB      *DB
	Server  *Server
	Client  *Client
	BaseURL string

	ln   net.Listener
	hsrv *http.Server
}

// Launch compiles app, precomputes, serves on 127.0.0.1 and connects a
// client. Callers own db contents (load tables before Launch).
func Launch(db *DB, app *App, reg *Registry, srvOpts ServerOptions, cliOpts ClientOptions) (*Instance, error) {
	ca, err := Compile(app, reg)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(db, ca, srvOpts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("kyrix: listen: %w", err)
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = hsrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	cli, err := NewClient(base, ca, cliOpts)
	if err != nil {
		// Close the listener explicitly as well: hsrv.Close only knows
		// about ln once Serve has registered it, and that goroutine may
		// not have run yet — relying on it alone leaked the listener.
		_ = hsrv.Close()
		_ = ln.Close()
		return nil, err
	}
	return &Instance{
		DB: db, Server: srv, Client: cli, BaseURL: base,
		ln: ln, hsrv: hsrv,
	}, nil
}

// CloseGrace bounds how long Close waits for in-flight requests —
// /batch streams mid-frame in particular — to drain before forcing
// connections shut.
const CloseGrace = 5 * time.Second

// Close shuts the instance down gracefully: the listener stops
// accepting immediately, in-flight requests (streaming /batch
// responses included) get up to CloseGrace to complete, and only then
// are surviving connections force-closed. Draining instead of
// snapping the listener shut removes the connection-reset race that
// concurrent tests could trip over, and is what lets a cluster node
// leave without failing the peer fills it is mid-way through serving.
// It is idempotent.
func (in *Instance) Close() error {
	if in.hsrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), CloseGrace)
	err := in.hsrv.Shutdown(ctx)
	cancel()
	if err != nil {
		// Grace expired (or Shutdown failed): force the stragglers.
		_ = in.hsrv.Close()
	}
	// Shutdown/Close cover listeners Serve has registered, but a
	// listener whose Serve goroutine has not started yet is not
	// registered — close it directly (double-close yields ErrClosed,
	// ignored).
	if in.ln != nil {
		if cerr := in.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
			err = cerr
		}
		in.ln = nil
	}
	in.hsrv = nil
	// Only after the HTTP side has drained: release the backend's own
	// resources. Crucially this flushes the persistent tile store's
	// write-behind queue (bounded by its drain deadline), so a fill
	// accepted moments before Close is readable after the next start.
	if in.Server != nil {
		if serr := in.Server.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// WithinBudget reports whether a fetch report met the 500 ms goal.
func WithinBudget(rep FetchReport) bool { return rep.Duration <= InteractiveBudget }

// Version identifies this implementation.
const Version = "kyrix-go 1.0 (CIDR'19 reproduction)"
