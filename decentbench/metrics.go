package main

import "strings"

// units names the unit of every fixed metric the benchmark prints. The
// per-experiment and CPU-share families are resolved by unitOf. The
// self-test checks this set against BENCHMARK.json.
var units = map[string]string{
	// End-to-end, telemetry off.
	"setup_s":          "s",
	"cpu_s":            "s",
	"alloc_mb":         "MB",
	"checks_pass_frac": "frac",

	// Wall time of an untraced pass, printed by the traced run: on a
	// shared host it moves with time given to other tenants too much to
	// gate on, so the end-to-end time metric is cpu_s.
	"wall_s": "s",

	// kernel: internal/sim.
	"kernel.events":       "count",
	"kernel.max_pending":  "count",
	"kernel.ns_per_event": "ns",
	"kernel.afterfunc_ns": "ns",

	// transport: internal/netmodel.
	"transport.msgs_sent":      "count",
	"transport.delivered_frac": "frac",
	"transport.send_ns":        "ns",
	"transport.broadcast_ns":   "ns",

	// overlay: internal/overlay/..., churn, sybil.
	"overlay.kad_bootstrap_ms.n1k":       "ms",
	"overlay.kad_bootstrap_ms.n10k":      "ms",
	"overlay.kad_lookup_us.n1k":          "us",
	"overlay.kad_lookup_us.n10k":         "us",
	"overlay.kad_closest_us":             "us",
	"overlay.kad_closest_online_us.n10k": "us",
	"overlay.kad_rpcs_per_lookup":        "count",
	"overlay.kad_timeout_frac":           "frac",
	"overlay.chord_lookup_us":            "us",

	// protocol: consensus, ledgers, payment channels and workloads.
	"protocol.raft_runload_ms":       "ms",
	"protocol.raft_alloc_mb":         "MB",
	"protocol.pbft_runload_ms":       "ms",
	"protocol.pbft_msgs_per_commit":  "count",
	"protocol.offchain_pay_us.hub":   "us",
	"protocol.offchain_pay_us.mesh":  "us",
	"protocol.offchain_pay_allocs":   "count",
	"protocol.offchain_success_frac": "frac",

	// harness: internal/harness.
	"harness.busy_frac":  "frac",
	"harness.tail_s":     "s",
	"harness.job_ms_p50": "ms",

	// report: internal/report.
	"report.render_s": "s",
	"report.write_s":  "s",
	"report.files":    "count",
	"report.bytes":    "bytes",

	// Diagnostics of the traced run itself.
	"obs.overhead_frac": "frac",
	"mem.peak_heap_mb":  "MB",
}

// unitOf returns the unit of a metric name, or false for a name the
// benchmark does not define.
func unitOf(name string) (string, bool) {
	if u, ok := units[name]; ok {
		return u, true
	}
	switch {
	case strings.HasPrefix(name, "cpu_share."):
		return "frac", true
	case strings.HasPrefix(name, "experiment.") && strings.HasSuffix(name, ".run_ms"):
		return "ms", true
	case strings.HasPrefix(name, "experiment.") && strings.HasSuffix(name, ".alloc_mb"):
		return "MB", true
	}
	return "", false
}
