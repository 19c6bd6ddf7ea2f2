package main

import "fmt"

// readKind is one GET an op issues after its POST.
type readKind uint8

const (
	readRun       readKind = iota // GET /v1/runs/{id}
	readIntervals                 // GET /v1/runs/{id}/intervals (cell 0)
	readTrace                     // GET /v1/runs/{id}/trace (cell 0)
)

// Route names, used as span names and in the self-time table.
const (
	routePost      = "serve.post_run"
	routeRun       = "serve.get_run"
	routeIntervals = "serve.get_intervals"
	routeTrace     = "serve.get_trace"
)

func (k readKind) route() string {
	switch k {
	case readRun:
		return routeRun
	case readIntervals:
		return routeIntervals
	}
	return routeTrace
}

func (k readKind) path(id string) string {
	switch k {
	case readRun:
		return "/v1/runs/" + id
	case readIntervals:
		return "/v1/runs/" + id + "/intervals?cell=0"
	}
	return "/v1/runs/" + id + "/trace?cell=0"
}

// workload is one closed-loop traffic mix. An op is one client
// iteration: POST /v1/runs?wait=1 with body(seed, op), then each read in
// order. It starts when the POST is sent and ends at the last byte of
// its final read.
type workload struct {
	name string
	// clients is the number of closed-loop clients, each with at most
	// one request in flight.
	clients int
	// disk selects the disk store in a fresh directory; otherwise the
	// service keeps its default in-memory store.
	disk bool
	// setups is how many times a run builds the service from scratch
	// and completes a first op; setup_s is their median.
	setups int
	reads  []readKind
	body   func(seed uint64, op int64) string
}

var workloads = []workload{
	{
		name:    "sweep_mid",
		clients: 1,
		setups:  3,
		body: func(seed uint64, _ int64) string {
			return fmt.Sprintf(`{"kind":"cluster","sizes":[1000],"bands":["low","high"],"seeds":[%d,%d,%d,%d],"intervals":200}`,
				seed, seed+1, seed+2, seed+3)
		},
	},
	{
		name:    "sweep_traced_disk",
		clients: 1,
		disk:    true,
		setups:  3,
		reads:   []readKind{readIntervals, readTrace},
		body: func(seed uint64, _ int64) string {
			return fmt.Sprintf(`{"kind":"cluster","size":1000,"band":"low","seeds":[%d,%d,%d,%d],"intervals":100,"trace":true}`,
				seed, seed+1, seed+2, seed+3)
		},
	},
	{
		name:    "api_small_runs",
		clients: 2,
		disk:    true,
		setups:  5,
		reads:   []readKind{readRun, readIntervals},
		body: func(seed uint64, op int64) string {
			return fmt.Sprintf(`{"kind":"cluster","size":100,"band":"low","seed":%d,"intervals":40,"compare_baseline":true}`,
				seed+uint64(op))
		},
	},
	{
		name:    "cluster_large",
		clients: 1,
		setups:  3,
		body: func(seed uint64, _ int64) string {
			return fmt.Sprintf(`{"kind":"cluster","size":100000,"band":"low","mtbf":86400,"seed":%d,"intervals":20}`, seed)
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
