package main

import "syscall"

// childProcAttr makes the kernel kill a child whose harness dies without
// reaching its deferred stop (a SIGKILLed benchmark must not leave a server
// holding a port).
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
