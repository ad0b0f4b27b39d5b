// Package pubsub is rtetherd's topic-based publish/subscribe control
// plane over multicast RT channels. A topic is a named publisher
// endpoint with a fixed RT contract {C, P, D}; subscribers are
// end-nodes. The registry maps every topic with at least one subscriber
// to exactly one multicast channel whose sink set is the current
// subscriber node set, reconfiguring the distribution tree in one atomic
// decision each time membership changes (rtether.Channel.Reconfigure):
// the channel keeps its ID, and a join that does not fit the fabric is
// rejected and leaves the previous tree (and every existing subscriber)
// untouched.
//
// Delivery to subscribers reuses the /v1/watch machinery's shape: each
// topic runs a small fan-out hub assigning per-topic sequence numbers,
// publishing never blocks on a slow subscriber, and a subscriber whose
// buffer fills is evicted so it can reconnect and observe the gap.
package pubsub

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/rtether"
	"repro/rtether/wire"
)

// Registry errors.
var (
	// ErrUnknownTopic marks an operation on a topic that was never
	// created.
	ErrUnknownTopic = errors.New("pubsub: unknown topic")
	// ErrDuplicateTopic marks a Create with a name already taken.
	ErrDuplicateTopic = errors.New("pubsub: topic already exists")
	// ErrClosed marks any operation after Close.
	ErrClosed = errors.New("pubsub: registry is closed")
)

// subBuffer is each subscription's event buffer, mirroring the watch
// hub: a subscriber this far behind is evicted, not waited for.
const subBuffer = 256

// Hooks lets the embedding server observe the channel lifecycle the
// registry drives, e.g. to republish admissions and releases on the
// /v1/watch feed. Either hook may be nil. Hooks are called outside the
// registry lock, on the goroutine of the call that caused them and in the
// order the registry acted, before that call returns.
type Hooks struct {
	// Admitted fires after a topic's multicast tree is established or
	// reconfigured to a new sink set (same channel ID).
	Admitted func(topic string, ch *rtether.Channel)
	// Released fires after a topic's tree is released.
	Released func(topic string, id rtether.ChannelID)
}

// Subscription is one subscriber's live feed on a topic.
type Subscription struct {
	// Topic and Node identify the subscription.
	Topic string
	Node  rtether.NodeID
	// Events delivers published messages in per-topic sequence order.
	Events <-chan wire.TopicEvent
	// Dropped closes when the registry evicted this subscription for
	// falling behind (or the registry closed); no further events come.
	Dropped <-chan struct{}

	events  chan wire.TopicEvent
	dropped chan struct{}
}

// Info is a point-in-time snapshot of one topic.
type Info struct {
	Name string
	Src  rtether.NodeID
	C    int64
	P    int64
	D    int64
	// Subscribers is the deduplicated subscriber node set in join order.
	Subscribers []rtether.NodeID
	// ChannelID is the live multicast channel, 0 while no subscribers.
	ChannelID rtether.ChannelID
	// Published counts messages published so far.
	Published uint64
}

// topic is one named publisher endpoint and its delivery hub.
type topic struct {
	name string
	src  rtether.NodeID
	c    int64
	p    int64
	d    int64

	subs      []*Subscription // every live subscription, join order
	ch        *rtether.Channel
	published uint64
}

// sinkSet returns the deduplicated subscriber node set in join order,
// optionally with one extra node appended.
func (t *topic) sinkSet(extra ...rtether.NodeID) []rtether.NodeID {
	seen := make(map[rtether.NodeID]bool)
	var sinks []rtether.NodeID
	for _, s := range t.subs {
		if !seen[s.Node] {
			seen[s.Node] = true
			sinks = append(sinks, s.Node)
		}
	}
	for _, n := range extra {
		if !seen[n] {
			seen[n] = true
			sinks = append(sinks, n)
		}
	}
	return sinks
}

// Registry owns the topics of one hosted network. All methods are safe
// for concurrent use.
type Registry struct {
	mu     sync.Mutex
	net    *rtether.Network
	hooks  Hooks
	topics map[string]*topic
	closed bool
	// pending queues hook calls while mu is held; unlock fires them.
	pending []func()
}

// NewRegistry builds a registry over the given network.
func NewRegistry(net *rtether.Network, hooks Hooks) *Registry {
	return &Registry{net: net, hooks: hooks, topics: make(map[string]*topic)}
}

// Create declares a topic. It reserves nothing: the multicast channel
// materializes with the first subscriber.
func (r *Registry) Create(name string, src rtether.NodeID, c, p, d int64) error {
	if name == "" {
		return fmt.Errorf("pubsub: topic name must not be empty")
	}
	// Validate the contract now so a broken topic is refused at creation
	// rather than at first subscribe; any sink stands in for the check.
	if err := (rtether.MulticastSpec{Src: src, Sinks: []rtether.NodeID{src + 1}, C: c, P: p, D: d}).Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.topics[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTopic, name)
	}
	r.topics[name] = &topic{name: name, src: src, c: c, p: p, d: d}
	return nil
}

// Len returns the number of declared topics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.topics)
}

// Snapshot lists every topic sorted by name.
func (r *Registry) Snapshot() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.topics))
	for _, t := range r.topics {
		info := Info{
			Name: t.name, Src: t.src, C: t.c, P: t.p, D: t.d,
			Subscribers: t.sinkSet(), Published: t.published,
		}
		if t.ch != nil {
			info.ChannelID = t.ch.ID()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Subscribe joins a node to a topic and returns its live feed. When the
// node set grows, the topic's multicast tree is reconfigured to the new
// sink set in one atomic decision that releases the old tree and admits
// the new one together — so the shared links are not counted twice, and
// no concurrent establish can take the old tree's capacity in between.
// On rejection (the returned error is the tree's *rtether.AdmissionError)
// the channel keeps its ID, sinks and budgets, the existing subscribers
// keep their service, and the join has no effect.
func (r *Registry) Subscribe(name string, node rtether.NodeID) (*Subscription, error) {
	r.mu.Lock()
	defer r.unlock()
	if r.closed {
		return nil, ErrClosed
	}
	t, ok := r.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	newSinks := t.sinkSet(node)
	if len(newSinks) != len(t.sinkSet()) { // node set grows: re-admit the tree
		if err := r.readmit(t, newSinks); err != nil {
			return nil, err
		}
	}
	sub := &Subscription{
		Topic:   name,
		Node:    node,
		events:  make(chan wire.TopicEvent, subBuffer),
		dropped: make(chan struct{}),
	}
	sub.Events = sub.events
	sub.Dropped = sub.dropped
	t.subs = append(t.subs, sub)
	return sub, nil
}

// Unsubscribe detaches a subscription (idempotent). When the node set
// shrinks, the topic's tree is reconfigured to the remaining sinks — or
// released outright when the last subscriber leaves.
func (r *Registry) Unsubscribe(sub *Subscription) {
	r.mu.Lock()
	defer r.unlock()
	t, ok := r.topics[sub.Topic]
	if !ok {
		return
	}
	found := -1
	for i, s := range t.subs {
		if s == sub {
			found = i
			break
		}
	}
	if found < 0 {
		return
	}
	t.subs = append(t.subs[:found], t.subs[found+1:]...)
	select {
	case <-sub.dropped:
	default:
		close(sub.dropped)
	}
	remaining := t.sinkSet()
	if t.ch == nil {
		return
	}
	if len(remaining) == len(t.ch.Sinks()) {
		return // another subscription still needs this node
	}
	// A shrunk tree is repartitioned like any other, so in a corner case
	// its new budgets may not fit; the channel then keeps the larger tree
	// (and its reservation) until the next membership change.
	_ = r.readmit(t, remaining)
}

// readmit moves the topic's tree to the given sink set: a reconfiguration
// of the live channel, its establishment when there is none (or it was
// closed behind the registry's back, by failure recovery), its release
// when no sink is left. Caller holds r.mu.
func (r *Registry) readmit(t *topic, sinks []rtether.NodeID) error {
	if t.ch != nil && len(sinks) > 0 {
		err := t.ch.Reconfigure(rtether.EstablishReq{Spec: rtether.ChannelSpec{Src: t.src, C: t.c, P: t.p, D: t.d}, Sinks: sinks})
		if !errors.Is(err, rtether.ErrChannelClosed) {
			if err == nil {
				r.notifyAdmitted(t.name, t.ch)
			}
			return err
		}
		t.ch = nil
	}
	if t.ch != nil {
		id := t.ch.ID()
		if err := t.ch.Release(); err != nil && !errors.Is(err, rtether.ErrChannelClosed) {
			return err
		}
		t.ch = nil
		r.notifyReleased(t.name, id)
		return nil
	}
	if len(sinks) == 0 {
		return nil
	}
	ch, err := r.net.EstablishMulticast(rtether.MulticastSpec{Src: t.src, Sinks: sinks, C: t.c, P: t.p, D: t.d})
	if err != nil {
		return err
	}
	t.ch = ch
	r.notifyAdmitted(t.name, ch)
	return nil
}

func (r *Registry) notifyAdmitted(name string, ch *rtether.Channel) {
	if r.hooks.Admitted != nil {
		r.pending = append(r.pending, func() { r.hooks.Admitted(name, ch) })
	}
}

func (r *Registry) notifyReleased(name string, id rtether.ChannelID) {
	if r.hooks.Released != nil {
		r.pending = append(r.pending, func() { r.hooks.Released(name, id) })
	}
}

// unlock releases the registry lock, then fires the hooks queued while
// it was held, in order.
func (r *Registry) unlock() {
	pending := r.pending
	r.pending = nil
	r.mu.Unlock()
	for _, fire := range pending {
		fire()
	}
}

// Publish pushes one message to a topic and fans it out to every live
// subscription, stamping it with the topic's next sequence number.
// Slow subscriptions are evicted, never waited for. Publishing to a
// topic with no subscribers is a successful no-op (delivered 0).
func (r *Registry) Publish(name, payload string) (seq uint64, delivered int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, 0, ErrClosed
	}
	t, ok := r.topics[name]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	t.published++
	ev := wire.TopicEvent{Seq: t.published, Topic: name, Payload: payload}
	kept := t.subs[:0]
	for _, s := range t.subs {
		select {
		case s.events <- ev:
			kept = append(kept, s)
			delivered++
		default:
			close(s.dropped)
		}
	}
	t.subs = kept
	return t.published, delivered, nil
}

// Close evicts every subscription and refuses further operations. The
// topics' channels are left to the owning network's shutdown.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, t := range r.topics {
		for _, s := range t.subs {
			select {
			case <-s.dropped:
			default:
				close(s.dropped)
			}
		}
		t.subs = nil
	}
}
