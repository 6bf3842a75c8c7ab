package main

import "syscall"

// childAttr makes the kernel kill a child shard when the benchmark
// dies, so no run can leave a process behind, however it ends.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
