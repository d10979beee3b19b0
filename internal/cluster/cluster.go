package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"kyrix/internal/wire"
)

// Options configures one node's membership in the serving cluster.
// The zero value disables clustering (Enabled reports false).
type Options struct {
	// Self is this node's base URL as peers reach it
	// (e.g. "http://10.0.0.3:8080"). Required when clustering.
	Self string
	// Peers are the base URLs of every cluster node. Self may appear in
	// the list (the harness passes one list to every node); it is
	// skipped for transport purposes and deduplicated on the ring.
	Peers []string
	// HotReplicate is the sketch-frequency threshold at which a
	// non-owned key is admitted into the local cache after a peer fill,
	// so cluster-hot keys are served locally everywhere instead of
	// bottlenecking their owner. 0 picks DefaultHotReplicate; < 0
	// disables replication (every non-owned request pays the peer hop).
	HotReplicate int
	// PeerTimeout bounds one peer fill end to end, retries included
	// (0 = 2s).
	PeerTimeout time.Duration
	// BreakerCooldown is how long an open peer circuit rejects before
	// the half-open probe (0 = 1s).
	BreakerCooldown time.Duration
	// Replog configures the replicated update log (internal/replog), the
	// only way an /update reaches the other nodes: the server routes it
	// through a quorum-committed leader log over this transport. A
	// cluster requires Replog.Dir.
	Replog ReplogOptions
}

// ReplogOptions carries the replicated update log's knobs; the server
// maps them onto internal/replog's config. All durations 0 = that
// package's defaults.
type ReplogOptions struct {
	// Dir is the directory holding this node's log WAL. Required in a
	// cluster; standalone, it makes /update a durable single-member log.
	Dir string
	// ElectionTimeout is the base leader-election timeout; each
	// follower randomizes in [1x, 2x). The leader's heartbeat is a
	// fifth of it.
	ElectionTimeout time.Duration
	// SubmitTimeout bounds one /update end to end: forward to leader,
	// quorum commit, local apply.
	SubmitTimeout time.Duration
}

// DefaultHotReplicate is the default hot-key replication threshold:
// a key estimated at this sketch frequency or above (i.e. touched a
// few times within the decay window) is worth double-caching.
const DefaultHotReplicate = 3

// Enabled reports whether the options describe a real cluster: a self
// identity plus at least one other peer.
func (o Options) Enabled() bool {
	if o.Self == "" {
		return false
	}
	for _, p := range o.Peers {
		if p != "" && p != o.Self {
			return true
		}
	}
	return false
}

// Stats counts one node's cluster activity.
type Stats struct {
	// PeerFills counts misses on non-owned keys that were served by the
	// owner; PeerErrors counts peer fetches that failed (and fell back
	// to a local query, counted in LocalFallbacks).
	PeerFills      atomic.Int64
	PeerErrors     atomic.Int64
	LocalFallbacks atomic.Int64
	// BehindFills counts owner replies refused as older than this node's
	// data version (ErrBehind); the key was then queried locally.
	BehindFills atomic.Int64
	// PeerServes counts fills this node performed for other nodes.
	PeerServes atomic.Int64
	// HotReplicas counts peer-filled payloads admitted into the local
	// cache because the key's sketch frequency crossed HotReplicate.
	HotReplicas atomic.Int64
}

// ErrBehind (wrapped) refuses a fill the owner served at too old a version.
var ErrBehind = errors.New("cluster: owner is behind the requester")

// Node is one member of the serving cluster: the ring it places keys
// on and the transport it fills through.
type Node struct {
	opts Options
	ring *Ring
	tr   *Transport

	Stats Stats
}

// New validates opts and builds the node.
func New(opts Options) (*Node, error) {
	if !opts.Enabled() {
		return nil, fmt.Errorf("cluster: options name no peers (Self=%q, %d peers)", opts.Self, len(opts.Peers))
	}
	if opts.HotReplicate == 0 {
		opts.HotReplicate = DefaultHotReplicate
	}
	members := append(append([]string{}, opts.Peers...), opts.Self)
	var others []string
	for _, p := range opts.Peers {
		if p != "" && p != opts.Self {
			others = append(others, p)
		}
	}
	return &Node{
		opts: opts,
		ring: NewRing(DefaultVirtualNodes, members...),
		tr: NewTransport(others, TransportConfig{
			Timeout:         opts.PeerTimeout,
			BreakerCooldown: opts.BreakerCooldown,
		}),
	}, nil
}

// Transport exposes the peer transport — the replicated log's RPC
// channel and the chaos tests' failpoint switchboard.
func (n *Node) Transport() *Transport { return n.tr }

// HotReplicate returns the replication threshold (< 0 = disabled).
func (n *Node) HotReplicate() int { return n.opts.HotReplicate }

// Owner returns the node owning key.
func (n *Node) Owner(key string) string { return n.ring.Owner(key) }

// Owns reports whether this node owns key.
func (n *Node) Owns(key string) bool { return n.ring.Owner(key) == n.opts.Self }

// FetchContext fills one key from its owner (see Transport.FetchContext).
// atLeast is the requester's data version: a reply served at an older
// one, or naming none, is refused with ErrBehind, so a peer fill never
// predates an update the requester has applied.
func (n *Node) FetchContext(ctx context.Context, owner string, fr *FillRequest, atLeast int64) (payload []byte, version int64, err error) {
	payload, version, err = n.tr.FetchContext(ctx, owner, fr)
	switch {
	case err != nil:
		n.Stats.PeerErrors.Add(1)
		return nil, version, err
	case version < atLeast:
		n.Stats.BehindFills.Add(1)
		return nil, version, fmt.Errorf("%w: %s served version %d, want >= %d", ErrBehind, owner, version, atLeast)
	}
	n.Stats.PeerFills.Add(1)
	return payload, version, nil
}

// FrameKindOf maps a fill request kind to its wire frame kind.
func FrameKindOf(kind string) wire.FrameKind {
	if kind == "dbox" {
		return wire.FrameDBox
	}
	return wire.FrameTile
}
