// Package repro is a Go reproduction of Hoang & Jonsson, "Real-Time
// Communication for Industrial Embedded Systems Using Switched Ethernet"
// (IPPS 2004): real-time channels with guaranteed worst-case delay over
// full-duplex switched Ethernet, EDF frame scheduling in end-nodes and
// switch, per-link feasibility analysis for admission control, and the
// SDPS/ADPS deadline partitioning schemes.
//
// The public API lives in the rtether subpackage: one topology-aware,
// concurrency-safe Network type covering the paper's single-switch star
// and the §18.5 multi-switch fabrics, with *Channel handles that are
// safe to use from any goroutine and typed *AdmissionError rejection
// diagnostics.
//
// The layers underneath (see docs/architecture.md for the full map and
// an admission decision's end-to-end data flow):
//
//   - internal/netsim — cycle-accurate star simulator with the complete
//     wire protocol: establishment handshakes, frame codecs, the
//     release-guard shaper, best-effort FCFS coexistence, fault
//     injection and tracing.
//   - internal/fabricsim — hop-by-hop RT traffic simulator for routed
//     multi-switch fabrics.
//   - internal/core and internal/topo — the star and fabric admission
//     adapters: specs, routing, SDPS/ADPS and their hop-general forms.
//   - internal/admit — the generic copy-on-write admission kernel both
//     adapters share: persistent per-link caches, delta repartitioning
//     with undo-on-reject rollback, and a verification sweep that tests
//     only the links a decision changed.
//   - internal/edf — the paper's two-constraint EDF feasibility test.
//   - internal/scenario — declarative experiments as JSON data files:
//     multi-switch topologies, event timelines (establish, atomic
//     establishAll batches, release, reconfigure, background-rate
//     changes at given slots) and seeded churn generators for 10k+
//     channel add/remove workloads, all replaying deterministically.
//     `rtexp sim -scenario` runs them; `rtexp admit -scenario` replays
//     the timeline against admission control alone. The schema
//     reference is docs/scenario-format.md.
//   - internal/server, rtether/wire and rtether/client — the rtetherd
//     admission service: one hosted Network served over HTTP/JSON with
//     a coalescing establish front-end (concurrent clients merge into
//     per-spec batch decisions, Network.EstablishEach), a streaming
//     /v1/watch event feed, the shared wire schema and the typed Go
//     client. cmd/rtetherd is the daemon; `rtexp load` drives it from
//     many clients. The protocol reference is docs/server.md.
//
// Two binaries sit on top: cmd/rtetherd, and cmd/rtexp, whose
// subcommands regenerate the paper's tables (paper; rtexp -list is the
// experiment index), answer admission what-ifs (admit), run one
// simulation (sim), load a daemon (load) and run experiment grids
// (sweep). `go run ./bench` is the end-to-end benchmark. This root
// package only anchors the module documentation; see README.md for a
// tour of the API and the concurrency contract.
package repro
