//go:build linux

package cpus

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Split returns the CPUs for the server and for the generator, or nil,
// nil when there is only one CPU to use.
func Split() (server, generator []int) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return nil, nil
	}
	var all []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			all = append(all, i)
		}
	}
	if len(all) < 2 {
		return nil, nil
	}
	return all[:len(all)-1], all[len(all)-1:]
}

// Pin restricts every thread of this process to cpus; threads started
// later inherit it.
func Pin(cpus []int) error {
	if len(cpus) == 0 {
		return nil
	}
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	return eachThread(func(tid int) syscall.Errno {
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
		return e
	})
}

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only on a CPU
// that has nothing else to run, and a waking thread of any other policy
// preempts it at once.
const schedIdle = 5

// Idle puts every thread of this process under SCHED_IDLE; threads
// started later inherit it.
func Idle() error {
	var param struct{ priority int32 }
	return eachThread(func(tid int) syscall.Errno {
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param)))
		return e
	})
}

func eachThread(f func(tid int) syscall.Errno) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if e := f(tid); e != 0 {
			return e
		}
	}
	return nil
}
