package main

// CPU placement. The proxy and the generator share one core, each with a
// single-P Go scheduler. A closed loop with one operation in flight keeps
// that core busy, so a message crossing loopback hands the core to the
// other process instead of waking a halted one: on a small virtual host
// the cost of waking an idle vCPU depends on what the rest of the machine
// is doing, and was the largest source of run-to-run spread. Throughput
// then measures the CPU the two processes spend per operation, which each
// process still accounts for on its own.

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// benchCPU picks the core both processes run on: the first this process
// may use, or -1 when the affinity cannot be read.
func benchCPU() int {
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		return -1
	}
	return cpus[0]
}

// pinProcess binds every thread of this process to cpu and sizes the Go
// scheduler to that one core. Threads created later inherit the binding
// from their creator, so a second pass catches any started meanwhile.
func pinProcess(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH {
				return errno
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}
