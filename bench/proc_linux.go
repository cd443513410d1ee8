package main

import "syscall"

// childSysProcAttr makes the kernel SIGKILL the daemon if the benchmark
// dies without running its cleanup (a driver timeout kills with SIGKILL,
// which no handler sees).
func childSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
