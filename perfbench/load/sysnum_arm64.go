//go:build linux

package load

// System call numbers the frozen syscall package does not export.
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
