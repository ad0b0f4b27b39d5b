package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/edf"
)

// ChannelRecord is the serialized form of one established channel, used
// for switch-management snapshots (warm restart of the RT channel
// management software without renegotiating every channel).
type ChannelRecord struct {
	ID   ChannelID `json:"id"`
	Src  NodeID    `json:"src"`
	Dst  NodeID    `json:"dst"`
	C    int64     `json:"c"`
	P    int64     `json:"p"`
	D    int64     `json:"d"`
	Up   int64     `json:"up"`   // committed d_iu
	Down int64     `json:"down"` // committed d_id
	// Sinks is the full sink set of a multicast channel (Dst is then
	// Sinks[0]); absent for unicast channels.
	Sinks []NodeID `json:"sinks,omitempty"`
}

// Snapshot exports all established channels in establishment order.
func (c *Controller) Snapshot() []ChannelRecord {
	chs := c.p.Eng.State().Channels()
	out := make([]ChannelRecord, 0, len(chs))
	for _, ch := range chs {
		out = append(out, ChannelRecord{
			ID: ch.ID, Src: ch.Spec.Src, Dst: ch.Spec.Dst,
			C: ch.Spec.C, P: ch.Spec.P, D: ch.Spec.D,
			Up: ch.Part.Up, Down: ch.Part.Down,
			Sinks: append([]NodeID(nil), ch.Sinks...),
		})
	}
	return out
}

// WriteSnapshot serializes the snapshot as indented JSON.
func (c *Controller) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// Restore rebuilds the controller state from a snapshot. The controller
// must be empty. Every record is validated (spec constraints, partition
// conditions (8)/(9), unique IDs) and the assembled state must pass the
// per-link feasibility test — a corrupted or hand-edited snapshot cannot
// smuggle an unschedulable system past the switch.
func (c *Controller) Restore(records []ChannelRecord) error {
	if n := c.p.Eng.State().Len(); n != 0 {
		return fmt.Errorf("core: Restore on a non-empty controller (%d channels)", n)
	}
	st := NewState()
	for i, r := range records {
		if r.ID == 0 {
			return fmt.Errorf("core: record %d: channel ID 0 is reserved", i)
		}
		if st.Get(r.ID) != nil {
			return fmt.Errorf("core: record %d: duplicate channel ID %d", i, r.ID)
		}
		spec := ChannelSpec{Src: r.Src, Dst: r.Dst, C: r.C, P: r.P, D: r.D}
		if len(r.Sinks) > 0 {
			ms := MulticastSpec{Src: r.Src, Sinks: r.Sinks, C: r.C, P: r.P, D: r.D}
			if err := ms.Validate(); err != nil {
				return fmt.Errorf("core: record %d: %w", i, err)
			}
			if r.Dst != r.Sinks[0] {
				return fmt.Errorf("core: record %d: multicast dst %d is not sinks[0]=%d", i, r.Dst, r.Sinks[0])
			}
		} else if err := spec.Validate(); err != nil {
			return fmt.Errorf("core: record %d: %w", i, err)
		}
		part := Partition{Up: r.Up, Down: r.Down}
		if !part.ValidFor(spec) {
			return fmt.Errorf("core: record %d: partition {%d %d} violates conditions (8)/(9)", i, r.Up, r.Down)
		}
		st.add(&Channel{ID: r.ID, Spec: spec, Part: part, Sinks: append([]NodeID(nil), r.Sinks...)})
		if r.ID >= st.k.NextID() {
			next := r.ID + 1
			if next == 0 {
				next = 1
			}
			st.k.SetNextID(next)
		}
	}
	for _, l := range st.Links() {
		res := edf.Test(st.TasksOn(l), c.cfg.Feasibility)
		if !res.OK() {
			return &RejectionError{Link: l, Result: res}
		}
	}
	c.p.Eng.ReplaceState(st.k)
	return nil
}

// ReadSnapshot parses a JSON snapshot.
func ReadSnapshot(r io.Reader) ([]ChannelRecord, error) {
	var records []ChannelRecord
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&records); err != nil {
		return nil, fmt.Errorf("core: snapshot parse: %w", err)
	}
	return records, nil
}
