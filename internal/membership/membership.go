// Package membership implements Zeus' reliable membership (§3.1): a
// logically-centralized, lease-protected view service. Each membership
// update carries a monotonically increasing epoch id (e_id) and is applied
// across the deployment only after the leases of departed nodes have
// expired, giving all live nodes consistent views despite unreliable failure
// detection.
//
// Since PR 4 the authority behind this package is no longer an in-process
// struct: Manager is a facade over a client of internal/viewsvc, the
// replicated Vertical-Paxos-lite view service that runs over the wire. The
// public API is unchanged — Agents still live inside each node, register
// ChangeFunc/RecoveredFunc callbacks and report recovery completion — but
// epochs, lease grants and the post-failure recovery barrier (§5.1) are now
// driven by a quorum of view-service replicas, so the membership service
// survives the loss of any minority of its replicas, including the leader.
//
// NewManager self-hosts a three-replica ensemble on a private in-process
// fabric (the right shape for single-process deployments and tests);
// NewManagerOver attaches to an externally hosted ensemble, e.g. one the
// cluster harness runs over the simulated lossy fabric so tests can crash
// view-service replicas.
package membership

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zeus/internal/transport"
	"zeus/internal/viewsvc"
	"zeus/internal/wire"
)

// Config controls lease behaviour.
type Config struct {
	// Lease is how long a failed node's lease remains valid; the view
	// change is deferred until it expires.
	Lease time.Duration
	// DirShards seeds the shard count of the replicated ownership-directory
	// placement (§6.2) when this manager self-hosts its view-service
	// ensemble (NewManager). 0 picks the view service's scaled default.
	// Multi-process deployments must pass the same value everywhere.
	DirShards int
}

// DefaultConfig uses a short lease suitable for simulation.
func DefaultConfig() Config { return Config{Lease: 10 * time.Millisecond} }

// ChangeFunc observes a view change. removed is the set of nodes that left
// between the two views (non-empty ⇒ failure recovery is required).
type ChangeFunc func(old, new wire.View, removed wire.Bitmap)

// RecoveredFunc observes completion of the post-failure recovery barrier.
type RecoveredFunc func(epoch wire.Epoch)

// Manager is the membership service handle for one deployment: a facade
// over a view-service client plus the set of per-node agents it notifies.
type Manager struct {
	cfg Config
	cli *viewsvc.Client

	// Self-hosted ensemble (NewManager only; nil under NewManagerOver).
	ens *viewsvc.Ensemble

	// placement caches the latest committed directory placement (§6.2); it
	// is fanned out to every agent's atomic slot so the ownership hot path
	// resolves object → drivers with one atomic load.
	placement atomic.Pointer[wire.DirPlacement]

	mu     sync.Mutex
	agents map[wire.NodeID]*Agent
}

// NewManager creates a manager with the given initial members, all live, at
// epoch 1, backed by a self-hosted three-replica view service on a private
// in-process fabric.
func NewManager(cfg Config, members wire.Bitmap) *Manager {
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultConfig().Lease
	}
	hub := transport.NewHub()
	vcfg := viewsvc.Config{Lease: cfg.Lease, DirShards: cfg.DirShards}
	ids := []wire.NodeID{0, 1, 2} // private fabric: ids are free
	trs := make([]transport.Transport, len(ids))
	for i, id := range ids {
		trs[i] = hub.Node(id)
	}
	ens := viewsvc.StartEnsemble(vcfg, ids, trs, members)
	cli := viewsvc.NewClient(vcfg, hub.Node(3), ids, members)
	m := newManager(cfg, cli)
	m.ens = ens
	return m
}

// NewManagerOver creates a manager over an externally hosted view service
// (the caller owns the ensemble's lifecycle; the manager owns the client's).
func NewManagerOver(cfg Config, cli *viewsvc.Client) *Manager {
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultConfig().Lease
	}
	return newManager(cfg, cli)
}

func newManager(cfg Config, cli *viewsvc.Client) *Manager {
	m := &Manager{cfg: cfg, cli: cli, agents: make(map[wire.NodeID]*Agent)}
	if s := cli.State(); !s.Placement.IsZero() {
		p := s.Placement
		m.placement.Store(&p)
	}
	cli.OnState(m.fanoutState)
	cli.OnView(m.fanoutView)
	cli.OnRecovered(m.fanoutRecovered)
	return m
}

// Close stops the manager's view-service client (and the self-hosted
// ensemble, when this manager owns one).
func (m *Manager) Close() {
	m.cli.Close()
	if m.ens != nil {
		m.ens.Close()
	}
}

// View returns the current view.
func (m *Manager) View() wire.View { return m.cli.View() }

// State returns the full replicated view-service state (status tooling and
// diagnostics; View covers the common case).
func (m *Manager) State() wire.VSState { return m.cli.State() }

// Agent creates (or returns) the agent embedded in node id. The agent starts
// with the service's current view and placement.
func (m *Manager) Agent(id wire.NodeID) *Agent {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.agents[id]; ok {
		return a
	}
	a := &Agent{
		self: id, mgr: m,
		view:    m.cli.View(),
		changed: make(chan struct{}),
	}
	if p := m.placement.Load(); p != nil {
		a.placement.Store(p)
	}
	m.agents[id] = a
	return a
}

// ResetAgent discards the cached agent for node id, so the next Agent(id)
// call builds a fresh one. Restart harnesses call it between a node's death
// and its reincarnation: the dead node's agent still carries the old node's
// callbacks, and handing it to the new instance would deliver view changes
// into torn-down engines.
func (m *Manager) ResetAgent(id wire.NodeID) {
	m.mu.Lock()
	delete(m.agents, id)
	m.mu.Unlock()
}

// Placement returns the latest committed directory placement (§6.2); like
// Agent.Placement, it is never nil.
func (m *Manager) Placement() *wire.DirPlacement { return m.placement.Load() }

// fanoutState propagates replicated side-state (the directory placement) to
// every agent. It runs before the view-change callbacks of the same state,
// so engines reacting to a view change always see its placement.
func (m *Manager) fanoutState(s wire.VSState) {
	if s.Placement.IsZero() {
		return
	}
	p := s.Placement
	m.mu.Lock()
	m.placement.Store(&p)
	for _, a := range m.agents {
		a.placement.Store(&p)
	}
	m.mu.Unlock()
}

// Renew records a lease renewal from node id. Renewal state is striped per
// node (an atomic slot plus a throttled multicast), so concurrent renewals
// never serialize on a manager-wide mutex.
func (m *Manager) Renew(id wire.NodeID) { m.cli.Renew(id) }

// Fail reports that node id crashed. The view change is published after the
// node's lease expires. Returns immediately; use WaitEpoch or agent
// callbacks to observe the change. The report is re-proposed in the
// background, so it survives view-service leader failure.
func (m *Manager) Fail(id wire.NodeID) { m.cli.Fail(id) }

// Join adds node id to the deployment (scale-out). No recovery barrier is
// needed since nothing was lost. Blocks until the new view is visible; if
// the view service has no quorum the join times out silently (observable
// via View().Live — kept void for API compatibility).
func (m *Manager) Join(id wire.NodeID) { m.cli.Join(id) }

// JoinAddr is Join carrying the node's advertised endpoint for the
// replicated address book (multi-process deployments).
func (m *Manager) JoinAddr(id wire.NodeID, addr string) { m.cli.JoinAddr(id, addr) }

// Leave removes node id gracefully (scale-in). Unlike Fail there is no lease
// wait — the node coordinated its departure — but the recovery barrier still
// runs so its pending reliable commits are replayed by the survivors.
// Blocks until the new view is visible.
func (m *Manager) Leave(id wire.NodeID) { m.cli.Leave(id) }

// WaitEpoch blocks until the epoch reaches at least e or the timeout
// elapses; reports whether the epoch was reached.
func (m *Manager) WaitEpoch(e wire.Epoch, timeout time.Duration) bool {
	return m.cli.WaitEpoch(e, timeout)
}

// RecoveryPending reports whether a recovery barrier is open.
func (m *Manager) RecoveryPending() bool { return m.cli.RecoveryPending() }

// liveAgents snapshots the agents of nodes live in the given set, in id
// order (deterministic notification order).
func (m *Manager) liveAgents(live wire.Bitmap) []*Agent {
	m.mu.Lock()
	out := make([]*Agent, 0, len(m.agents))
	for id, a := range m.agents {
		if live.Contains(id) {
			out = append(out, a)
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].self < out[j].self })
	return out
}

// fanoutView delivers a committed view change to the agents of surviving
// nodes (agents of removed nodes must not observe their own removal).
func (m *Manager) fanoutView(old, next wire.View, removed wire.Bitmap) {
	for _, a := range m.liveAgents(next.Live) {
		a.apply(old, next, removed)
	}
}

// fanoutRecovered delivers barrier completion to the live agents.
func (m *Manager) fanoutRecovered(epoch wire.Epoch) {
	for _, a := range m.liveAgents(m.cli.View().Live) {
		a.notifyRecovered(epoch)
	}
}

// Agent is a node's local view of the membership.
type Agent struct {
	self wire.NodeID
	mgr  *Manager

	// placement is the node's cached directory placement (§6.2): one atomic
	// load on the ownership request path, updated by the manager's state
	// fanout strictly before the view change it belongs to.
	placement atomic.Pointer[wire.DirPlacement]

	mu          sync.Mutex
	view        wire.View
	changed     chan struct{} // closed and replaced on every view change
	onChange    []ChangeFunc
	onRecovered []RecoveredFunc
}

// Self returns the node id this agent belongs to.
func (a *Agent) Self() wire.NodeID { return a.self }

// View returns the agent's current view.
func (a *Agent) View() wire.View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view
}

// Epoch returns the agent's current epoch id.
func (a *Agent) Epoch() wire.Epoch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Epoch
}

// Placement returns the replicated directory placement (§6.2). It is never
// nil: the view-service client seeds one in its initial state. The returned
// value and its shard slice are immutable.
func (a *Agent) Placement() *wire.DirPlacement { return a.placement.Load() }

// IsLive reports whether node n is live in the agent's view.
func (a *Agent) IsLive(n wire.NodeID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Live.Contains(n)
}

// OnChange registers a view-change callback (engines register here).
func (a *Agent) OnChange(fn ChangeFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onChange = append(a.onChange, fn)
}

// OnRecovered registers a recovery-barrier-complete callback.
func (a *Agent) OnRecovered(fn RecoveredFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onRecovered = append(a.onRecovered, fn)
}

// ReportRecoveryDone tells the membership service that this node has no more
// pending reliable commits from dead coordinators for the given epoch.
func (a *Agent) ReportRecoveryDone(epoch wire.Epoch) {
	a.mgr.cli.ReportRecoveryDone(epoch, a.self)
}

// Renew renews this node's lease.
func (a *Agent) Renew() { a.mgr.Renew(a.self) }

// ChangeSignal returns a channel that is closed at the next view change;
// callers blocked on a back-off use it as an immediate wake signal to
// re-resolve ("the owner I was waiting on may just have been declared dead").
// Re-acquire a fresh channel after every wake.
func (a *Agent) ChangeSignal() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.changed
}

func (a *Agent) apply(old, next wire.View, removed wire.Bitmap) {
	a.mu.Lock()
	if next.Epoch <= a.view.Epoch {
		a.mu.Unlock()
		return
	}
	a.view = next
	close(a.changed)
	a.changed = make(chan struct{})
	fns := make([]ChangeFunc, len(a.onChange))
	copy(fns, a.onChange)
	a.mu.Unlock()
	for _, fn := range fns {
		fn(old, next, removed)
	}
}

func (a *Agent) notifyRecovered(epoch wire.Epoch) {
	a.mu.Lock()
	fns := make([]RecoveredFunc, len(a.onRecovered))
	copy(fns, a.onRecovered)
	a.mu.Unlock()
	for _, fn := range fns {
		fn(epoch)
	}
}
