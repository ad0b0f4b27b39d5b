package main

// The catalogue: every workload and every metric the program prints, by
// name. BENCHMARK.json at the repository root lists the same names (the
// tests hold the two equal); bench/README.md explains each.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// Workload names are fixed: later issues refer to them.
const (
	wlStarWire    = "star-wire"
	wlFabricChurn = "fabric-churn"
	wlBulk        = "provision-bulk"
	wlDataplane   = "dataplane-sim"
)

var workloadDefs = []workloadDef{
	{wlStarWire, "rtetherd on a 32-node star, ADPS, binary transport, 16 closed-loop callers on 2 connections: admission is trivial, so client, wire and server do the work; kernel changes must not move it"},
	{wlFabricChurn, "rtetherd on a 4-switch line, 500 standing channels, H-ADPS, HTTP/JSON, 2 closed-loop callers, churn into rejections with reads beside: admit, edf, topo, route do the work, the transport little"},
	{wlBulk, "in-process Network at 10k live channels on a star and a fabric: bulk and sequential establishment, handle reads, 1000-channel failover: the kernel and the rtether lock with no transport to dilute them"},
	{wlDataplane, "admitted channels carrying traffic on netsim (Fig. 18.5 star, reconfigured over the simulated wire) and on fabricsim: the simulators do the work; zero misses within the guaranteed delay is checked"},
}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher" | "exact" (must repeat exactly) | "zero" (must be 0)
	Bound  float64 // regression bound as a share of the parent's median; 0 when Better is exact/zero
	// Driver marks the end-to-end metrics every workload reports, which
	// BENCHMARK.json therefore lists for the driver to gate on; the rest
	// apply to some workloads only and are printed and gated by this
	// program (-repeat) alone.
	Driver bool
	// On lists the workloads the metric applies to; nil means all four.
	On []string
}

// appliesTo reports whether the metric is reported on the workload.
func (d metricDef) appliesTo(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "establish_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "release_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Driver: true},
	{Name: "provision_channels_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: []string{wlBulk}},
	{Name: "failover_recover_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wlBulk}},
	{Name: "star_sim_slots_per_s", Unit: "slots/s", Better: "higher", Bound: 0.25, On: []string{wlDataplane}},
	{Name: "fabric_sim_slots_per_s", Unit: "slots/s", Better: "higher", Bound: 0.25, On: []string{wlDataplane}},
	{Name: "accepted_ratio", Unit: "ratio", Better: "exact"},
	{Name: "deadline_miss_ratio", Unit: "ratio", Better: "zero", On: []string{wlDataplane}},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "zero"},
}

// perLayer is what a traced run attributes to single layers. Every
// workload's traced run reports every one of them.
var perLayer = []metricDef{
	{Name: "client.stats_rtt_us.binary", Unit: "us", Better: "lower"},
	{Name: "client.stats_rtt_us.json", Unit: "us", Better: "lower"},
	{Name: "client.overhead_us", Unit: "us", Better: "lower"},
	{Name: "client.allocs_per_op", Unit: "count", Better: "lower"},
	// Demoted from the end-to-end list: over ten seeds its spread on
	// dataplane-sim (34 % of the median) is wider than any bound the
	// benchmark may set. It is the traced pass's figure.
	{Name: "client.establish_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.bin_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bin_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bin_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.json_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.bin_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.json_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.handler_ns.establish", Unit: "ns", Better: "lower"},
	{Name: "server.dispatch_ns.json", Unit: "ns", Better: "lower"},
	{Name: "server.dispatch_ns.binary", Unit: "ns", Better: "lower"},
	{Name: "server.flights", Unit: "count", Better: "lower"},
	{Name: "server.merge_width", Unit: "count", Better: "higher"},
	{Name: "server.coalesce_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "server.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "server.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "server.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "server.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "rtether.establish_ns", Unit: "ns", Better: "lower"},
	{Name: "rtether.release_ns", Unit: "ns", Better: "lower"},
	{Name: "rtether.backend_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "rtether.read_ns", Unit: "ns", Better: "lower"},
	{Name: "rtether.batch_ns_per_channel", Unit: "ns", Better: "lower"},
	{Name: "rtether.each_ns_per_channel", Unit: "ns", Better: "lower"},
	{Name: "rtether.failover_ns_per_channel", Unit: "ns", Better: "lower"},
	{Name: "rtether.sim_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.request_ns", Unit: "ns", Better: "lower"},
	{Name: "core.release_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.request_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.release_ns", Unit: "ns", Better: "lower"},
	{Name: "core.partition_ns_per_channel", Unit: "ns", Better: "lower"},
	{Name: "topo.partition_ns_per_channel", Unit: "ns", Better: "lower"},
	{Name: "admit.links_checked_per_decision", Unit: "count", Better: "lower"},
	{Name: "admit.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "admit.repartitions_per_decision", Unit: "count", Better: "lower"},
	{Name: "admit.sweep_share", Unit: "ratio", Better: "lower"},
	{Name: "edf.test_ns", Unit: "ns", Better: "lower"},
	{Name: "edf.checkpoints_per_test", Unit: "count", Better: "lower"},
	{Name: "edf.tasks_per_link", Unit: "count", Better: "lower"},
	{Name: "route.route_ns", Unit: "ns", Better: "lower"},
	{Name: "route.tree_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.edfqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.slots_per_s", Unit: "slots/s", Better: "higher"},
	{Name: "netsim.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fabricsim.slots_per_s", Unit: "slots/s", Better: "higher"},
	{Name: "fabricsim.frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "frame.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "frame.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.unexplained_us", Unit: "us", Better: "lower"},
	{Name: "bench.loadgen_cpu_share", Unit: "ratio", Better: "lower"},
}
