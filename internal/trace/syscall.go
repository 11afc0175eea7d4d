package trace

import "fmt"

// Syscall identifies a system call by a small integer. Workloads name their
// calls with these IDs when they build a request, so the kernel, the
// sampling layer and SyscallEvent carry a byte instead of a string: the
// per-request event stream holds no pointers, the garbage collector never
// scans it, and appending to it needs no write barriers. The name is
// resolved, by indexing a fixed table, only where it is printed or compared
// (SyscallNames, rbvtrace, signal keys).
//
// The zero value NoSyscall means "no call" (a phase without an entry call);
// it is never recorded.
type Syscall uint8

// The system calls the five workloads issue, plus SysGeneric for a phase
// that makes within-phase calls without naming them.
const (
	NoSyscall Syscall = iota
	SysGeneric
	SysRead
	SysPread
	SysWrite
	SysWritev
	SysOpen
	SysStat
	SysLseek
	SysMmap
	SysBrk
	SysPoll
	SysFsync
	SysSendfile
	SysSendto
	SysRecvfrom
	SysShutdown
	SysGettimeofday

	// numSyscalls bounds the ID space: every valid ID is below it.
	numSyscalls
)

var syscallNames = [numSyscalls]string{
	NoSyscall:       "",
	SysGeneric:      "syscall",
	SysRead:         "read",
	SysPread:        "pread",
	SysWrite:        "write",
	SysWritev:       "writev",
	SysOpen:         "open",
	SysStat:         "stat",
	SysLseek:        "lseek",
	SysMmap:         "mmap",
	SysBrk:          "brk",
	SysPoll:         "poll",
	SysFsync:        "fsync",
	SysSendfile:     "sendfile",
	SysSendto:       "sendto",
	SysRecvfrom:     "recvfrom",
	SysShutdown:     "shutdown",
	SysGettimeofday: "gettimeofday",
}

// String returns the call's name ("" for NoSyscall).
func (s Syscall) String() string {
	if s < numSyscalls {
		return syscallNames[s]
	}
	return fmt.Sprintf("Syscall(%d)", uint8(s))
}
