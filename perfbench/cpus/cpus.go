// Package cpus splits the machine between the benchmark's two processes:
// the load generator gets the last CPU and the server the others, so the
// generator never competes with the server for a CPU and the server's
// figures do not move with how busy the generator is. Where the platform
// cannot pin threads, both processes share every CPU.
package cpus

import (
	"strconv"
	"strings"
)

// Format renders cpus as a comma-separated list.
func Format(cpus []int) string {
	parts := make([]string, len(cpus))
	for i, c := range cpus {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// Parse reads a list made by Format.
func Parse(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		if n, err := strconv.Atoi(p); err == nil {
			out = append(out, n)
		}
	}
	return out
}
