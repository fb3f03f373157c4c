package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// StateFingerprint hashes everything that defines a controller's
// converged state: configuration, the event log (by value, including
// encoded network messages), every switch's flow table and port
// states, and the app's learned state. Two controllers with equal
// fingerprints processed the same events and reached the same
// dataplane — the replication correctness check E26 leans on.
// Stats, costs, and error logs are deliberately excluded: they
// describe the journey (restart costs, replica replay work), not the
// state.
func StateFingerprint(c *sdn.Controller) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 256)
	u64 := func(v uint64) {
		buf = binary.BigEndian.AppendUint64(buf[:0], v)
		h.Write(buf)
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}

	// Configuration, in sorted key order.
	keys := make([]string, 0, len(c.Config))
	for k := range c.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	u64(uint64(len(keys)))
	for _, k := range keys {
		str(k)
		str(c.Config[k])
	}

	// The event log, by value. Network messages hash as their encoded
	// frames, so two logs are equal only if they replay identically.
	var frame []byte
	u64(uint64(len(c.Log)))
	for _, ev := range c.Log {
		u64(uint64(ev.Seq))
		u64(uint64(ev.Kind))
		str(ev.Key)
		str(ev.Value)
		str(ev.Service)
		u64(ev.DPID)
		if ev.Msg != nil {
			var err error
			frame, err = openflow.AppendEncode(frame[:0], ev.Msg, 0)
			if err != nil {
				str(fmt.Sprintf("unencodable:%v", err))
			} else {
				u64(uint64(len(frame)))
				h.Write(frame)
			}
		}
	}

	// Dataplane: per switch (sorted by dpid), the flow table in table
	// order and every port's link state.
	for _, dpid := range c.Net.Switches() {
		sw, err := c.Net.Switch(dpid)
		if err != nil {
			continue
		}
		u64(dpid)
		entries := sw.Table.Entries()
		u64(uint64(len(entries)))
		for _, e := range entries {
			u64(uint64(e.Priority))
			m := e.Match
			if m.MatchInPort {
				u64(1)
			} else {
				u64(0)
			}
			u64(uint64(m.InPort))
			u64(m.EthSrc)
			u64(m.EthDst)
			u64(uint64(m.EthType))
			u64(uint64(m.VlanID))
			u64(uint64(len(e.Actions)))
			for _, a := range e.Actions {
				u64(uint64(a.Type))
				u64(uint64(a.Port))
				u64(uint64(a.Vlan))
			}
		}
		for p := uint32(1); p <= sw.NumPorts; p++ {
			if sw.PortUp(p) {
				u64(1)
			} else {
				u64(0)
			}
		}
	}

	// App state: the learned MAC tables, in sorted order.
	snapper, ok := c.App.(interface{ Snapshot() any })
	if !ok {
		return fmt.Sprintf("%016x", h.Sum64())
	}
	if snap, ok := snapper.Snapshot().(map[uint64]map[uint64]uint32); ok {
		dpids := make([]uint64, 0, len(snap))
		for d := range snap {
			dpids = append(dpids, d)
		}
		sort.Slice(dpids, func(i, j int) bool { return dpids[i] < dpids[j] })
		for _, d := range dpids {
			u64(d)
			macs := make([]uint64, 0, len(snap[d]))
			for m := range snap[d] {
				macs = append(macs, m)
			}
			sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
			for _, m := range macs {
				u64(m)
				u64(uint64(snap[d][m]))
			}
		}
	}

	return fmt.Sprintf("%016x", h.Sum64())
}
