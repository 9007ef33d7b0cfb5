// Command spin keeps the server's CPUs from going idle while the
// benchmark runs. It spins on each CPU it is given under SCHED_IDLE, so
// it runs only when the server has nothing to run and gives way the
// moment a server thread wakes. A virtual CPU with nothing to run halts
// and hands its physical CPU back to the hypervisor, and waking it again
// costs a round trip through the host whose price moves with the host's
// load: on a 2-vCPU KVM guest shared with other tenants, with the CPUs
// halting between queries, the server's cost per query read 20–30%
// higher and its median latency moved with the host.
// The server's CPU is read from its own process, so this one is never
// counted in it. It exits when its standard input closes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"encdns/perfbench/cpus"
)

func main() {
	list := flag.String("cpus", "", "the CPUs to keep busy (comma-separated)")
	flag.Parse()
	set := cpus.Parse(*list)
	if len(set) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench spin: no CPUs given")
		os.Exit(2)
	}
	if err := cpus.Pin(set); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spin:", err)
		os.Exit(2)
	}
	if err := cpus.Idle(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spin:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(len(set))
	for range set {
		go func() {
			for {
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
}
