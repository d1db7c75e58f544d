// Command minionbench regenerates the paper's evaluation (§8): every
// figure and table has a subcommand that builds the corresponding simulated
// topology, runs the workload, and prints the series the paper plots.
//
// Usage:
//
//	minionbench [-full] <experiment>
//
// where <experiment> is one of:
//
//	fig5    raw uTCP vs TCP throughput by application message size
//	rawcpu  raw uTCP CPU cost vs TCP (§8.1)
//	fig6a   COBS/uCOBS CPU cost vs raw TCP
//	fig6b   TLS vs uTLS CPU and bandwidth
//	fig7    VoIP frame latency CDF under contention
//	fig8    codec-perceived loss-burst CDF
//	fig9    moving quality score over a long call
//	fig10   send-side prioritization delays
//	fig11   VPN tunnel download vs competing uploads
//	fig12   VPN modification ablation
//	fig13   pipelined HTTP/1.1 vs parallel msTCP page loads
//	table1  implementation complexity
//	all     everything above
//	bench   per-stack datagram hot-path cost, written as BENCH_<n>.json
//	        (ns/op, allocs/op, B/op) into -benchdir for CI tracking
//
// Two further subcommands track the real-socket substrate:
//
//	connscale  drive 1→131072 loopback connections in poll or
//	           dedicated mode (-mode; poll is the default) and
//	           write BENCH_<conns>.json (ns/op, goroutines, allocs/op,
//	           syscalls per datagram, poll wakeups, accept sharding and
//	           per-loop distribution). Raises RLIMIT_NOFILE to the
//	           sweep's budget up front (2 fds per loopback connection)
//	           and fails fast if it can't. -procs sweeps GOMAXPROCS
//	           values, writing BENCH_p<procs>_<conns>.json per point;
//	           -udp measures the UDP shim's sendmmsg/recvmmsg batching
//	           instead, writing BENCH_udp_<conns>.json; flags follow
//	           the subcommand
//	tlsbench   measure the TLS record path (SealInto + OpenInPlace on a
//	           preallocated wire buffer) for the CBC and GCM suites at
//	           -recbytes plaintext bytes, writing BENCH_tls_cbc.json and
//	           BENCH_tls_gcm.json (ns/record, allocs/record, MB/s) into
//	           -benchdir
//	utcpbench  stream -msgs messages over a real loopback uTCP-over-UDP
//	           pair under -loss seeded datagram loss, writing
//	           BENCH_utcp.json (ns/msg, allocs/datagram, retransmit and
//	           out-of-order ratios) into -benchdir
//	relaysoak  run the multi-tenant relay gateway for minutes (-short:
//	           ~60s) under middlebox loss shaping, TLS DPI inspection,
//	           and periodic FaultHooks error storms, asserting ledger
//	           balance, goroutine return, bounded per-class p99 latency,
//	           and zero cross-tenant starvation; writes BENCH_relay.json
//	benchdiff  compare two BENCH_*.json directories (-old/-new): fail on
//	           allocs/op, allocs/record, allocs/datagram, goroutine-count,
//	           write-syscalls/datagram, accept-imbalance, relay
//	           shed-count, relay p99, retransmit-ratio, and falling
//	           ooo-ratio regressions, flag ns_per_op and ns/record
//	           beyond -ns-tol
//
// By default experiments run at a reduced "quick" scale; -full runs
// paper-scale durations (minutes of CPU time).
package main

import (
	"flag"
	"fmt"
	"os"

	"minion/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale durations")
	benchDir := flag.String("benchdir", "bench-out", "output directory for bench BENCH_<n>.json files")
	benchBytes := flag.Int("benchbytes", 1000, "datagram size the bench subcommand measures")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: minionbench [-full] [-benchdir dir] <fig5|rawcpu|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table1|all|bench>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch flag.Arg(0) {
	case "bench":
		if err := runBench(*benchDir, *benchBytes); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: bench: %v\n", err)
			os.Exit(1)
		}
		return
	case "connscale":
		if err := runConnScale(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: connscale: %v\n", err)
			os.Exit(1)
		}
		return
	case "tlsbench":
		if err := runTLSBench(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: tlsbench: %v\n", err)
			os.Exit(1)
		}
		return
	case "utcpbench":
		if err := runUTCPBench(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: utcpbench: %v\n", err)
			os.Exit(1)
		}
		return
	case "benchdiff":
		if err := runBenchDiff(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	case "relaysoak":
		if err := runRelaySoak(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: relaysoak: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiments.Quick
	if *full {
		sc = experiments.Full
	}

	runners := map[string]func(experiments.Scale) experiments.Result{
		"fig5":   experiments.Fig5,
		"rawcpu": experiments.RawCPU,
		"fig6a":  experiments.Fig6a,
		"fig6b":  experiments.Fig6b,
		"fig7":   experiments.Fig7,
		"fig8":   experiments.Fig8,
		"fig9":   experiments.Fig9,
		"fig10":  experiments.Fig10,
		"fig11":  experiments.Fig11,
		"fig12":  experiments.Fig12,
		"fig13":  experiments.Fig13,
		"table1": func(experiments.Scale) experiments.Result { return experiments.Table1() },
	}

	name := flag.Arg(0)
	if name == "all" {
		fmt.Print(experiments.Render(experiments.All(sc)))
		return
	}
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "minionbench: unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Print(run(sc).String())
}
