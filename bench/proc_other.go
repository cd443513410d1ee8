//go:build !linux

package main

import "syscall"

// childSysProcAttr has no parent-death signal to ask for off Linux; the
// benchmark's /proc sampling does not work there either.
func childSysProcAttr() *syscall.SysProcAttr { return nil }
