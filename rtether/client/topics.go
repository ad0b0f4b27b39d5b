package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"

	"repro/rtether"
	"repro/rtether/wire"
)

// Topic errors mirrored from the daemon's envelope codes.
var (
	// ErrUnknownTopic is returned for operations on a topic the daemon
	// does not have.
	ErrUnknownTopic = errors.New("client: unknown topic")
	// ErrDuplicateTopic is returned by CreateTopic when the name is
	// taken.
	ErrDuplicateTopic = errors.New("client: topic already exists")
)

// EstablishMulticast requests one multicast RT channel: a single
// distribution tree from spec.Src to every sink, admitted atomically. A
// feasibility rejection is a *rtether.AdmissionError whose Branch/Sink
// name the failing branch.
func (c *Client) EstablishMulticast(ctx context.Context, spec rtether.MulticastSpec) (Channel, error) {
	return channelOrErr(do(ctx, c, wire.OpMulticast, wire.EstablishMulticastRequest{Spec: wire.FromMulticastSpec(spec)}))
}

// CreateTopic declares a pub/sub topic: a named publisher endpoint at
// src with the RT contract {C, P, D}. Nothing is reserved until the
// first subscriber joins.
func (c *Client) CreateTopic(ctx context.Context, name string, src rtether.NodeID, cBudget, period, deadline int64) error {
	_, err := do(ctx, c, wire.OpCreateTopic,
		wire.CreateTopicRequest{Name: name, Src: uint16(src), C: cBudget, P: period, D: deadline})
	return err
}

// Topics lists the daemon's topics sorted by name.
func (c *Client) Topics(ctx context.Context) ([]wire.TopicInfo, error) {
	rep, err := do(ctx, c, wire.OpListTopics, struct{}{})
	return rep.Topics, err
}

// Publish pushes one message to a topic's current subscribers and
// returns its sequence number in the topic's publish order plus the
// number of feeds it reached.
func (c *Client) Publish(ctx context.Context, topic, payload string) (wire.PublishReply, error) {
	return do(ctx, c, wire.OpPublish, wire.PublishRequest{Topic: topic, Payload: payload})
}

// TopicFeed is an open topic subscription stream.
type TopicFeed struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// SubscribeTopic joins node to a topic and opens its message feed. The
// join may grow the topic's multicast tree; a tree that does not fit
// comes back as a *rtether.AdmissionError and nothing changes for the
// existing subscribers. Cancel the context or Close the feed to leave
// the topic (shrinking the tree again).
func (c *Client) SubscribeTopic(ctx context.Context, topic string, node rtether.NodeID) (*TopicFeed, error) {
	path := fmt.Sprintf("%s?topic=%s&node=%d", wire.SubscribePath, url.QueryEscape(topic), node)
	body, err := c.openStream(ctx, "subscribe", path)
	if err != nil {
		return nil, err
	}
	return &TopicFeed{body: body, dec: json.NewDecoder(body)}, nil
}

// Next blocks for the next published message. It returns io.EOF
// (possibly wrapped) when the feed ends; a gap in Seq on resubscribe
// means the feed fell behind and the daemon dropped it.
func (f *TopicFeed) Next() (wire.TopicEvent, error) {
	var ev wire.TopicEvent
	err := f.dec.Decode(&ev)
	return ev, err
}

// Close leaves the topic.
func (f *TopicFeed) Close() error { return f.body.Close() }
