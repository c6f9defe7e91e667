package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"optiflow/internal/cluster/proc"
)

// Outside views of the processes under test. The benchmark may not
// edit the layers, so CPU, memory and wire volume are read from the
// kernel's accounting: getrusage for CPU, /proc/<pid>/status for peak
// RSS, /proc/self/io for the bytes the driver process pushed through
// read/write (loopback sockets included). Linux only, like the proc
// cluster's SIGKILLs.

// cpuSeconds returns the user+system CPU time of who
// (syscall.RUSAGE_SELF, or RUSAGE_CHILDREN for reaped children).
func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns a live process's resident-set high-water mark; 0
// when unreadable. (RUSAGE_CHILDREN's maxrss will not do for workers:
// it starts from the parent's RSS at fork.)
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// ioBytes returns the cumulative bytes this process passed to read and
// write system calls; zeros when /proc/self/io is unreadable.
func ioBytes() (rchar, wchar uint64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var v uint64
		if _, err := fmt.Sscanf(line, "rchar: %d", &v); err == nil {
			rchar = v
		}
		if _, err := fmt.Sscanf(line, "wchar: %d", &v); err == nil {
			wchar = v
		}
	}
	return rchar, wchar
}

// loadavg1 returns the 1-minute load average, 0 when unreadable.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	fmt.Sscan(string(data), &l)
	return l
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns cumulative heap bytes allocated without stopping
// the world, so the step decorator can afford it every superstep.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// procCluster is one coordinator plus the worker processes it spawned.
// The benchmark spawns the workers itself (proc.Config.Spawn) so it
// knows their pids: that is the only way to prove from outside that no
// worker outlives its cluster, and to wait until the kernel has
// accounted a killed worker's CPU time to RUSAGE_CHILDREN.
type procCluster struct {
	*proc.Coordinator
	set *procSet

	mu   sync.Mutex
	cmds []*exec.Cmd
}

// spawn re-executes this binary as a worker daemon, like the default
// spawner, and remembers the process. Pdeathsig kills the worker even
// if the benchmark itself dies by SIGKILL.
func (pc *procCluster) spawn(_ int, env []string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pc.mu.Lock()
	pc.cmds = append(pc.cmds, cmd)
	pc.mu.Unlock()
	return cmd, nil
}

// surviving lists the worker pids that still exist. A killed worker
// stays visible as a zombie until the coordinator has reaped it.
func (pc *procCluster) surviving() []int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var pids []int
	for _, cmd := range pc.cmds {
		if cmd.Process != nil && syscall.Kill(cmd.Process.Pid, 0) == nil {
			pids = append(pids, cmd.Process.Pid)
		}
	}
	return pids
}

// peakRSSMB returns the largest high-water mark among live workers.
func (pc *procCluster) peakRSSMB() float64 {
	peak := 0.0
	for _, pid := range pc.surviving() {
		peak = max(peak, peakRSSMB(pid))
	}
	return peak
}

// shutdown kills the workers and waits until every one is reaped.
func (pc *procCluster) shutdown() error {
	pc.set.forget(pc)
	err := pc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		pids := pc.surviving()
		if len(pids) == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker processes %v outlived their cluster", pids)
		}
		time.Sleep(time.Millisecond)
	}
}

// procSet tracks the clusters currently running, so that every exit
// path — a failed verification, SIGINT — can kill their workers.
type procSet struct {
	mu   sync.Mutex
	open map[*procCluster]bool
	all  []*procCluster
}

func newProcSet() *procSet { return &procSet{open: make(map[*procCluster]bool)} }

// start boots a cluster of real worker processes, configured as
// procbench_test.go does: raw codec, data plane on, 50 ms heartbeat.
func (ps *procSet) start(workers, partitions int) (*procCluster, error) {
	pc := &procCluster{set: ps}
	co, err := proc.Start(proc.Config{
		Workers:     workers,
		Partitions:  partitions,
		Heartbeat:   50 * time.Millisecond,
		CallTimeout: 30 * time.Second,
		Spawn:       pc.spawn,
	})
	if err != nil {
		return nil, err
	}
	pc.Coordinator = co
	ps.mu.Lock()
	ps.open[pc] = true
	ps.all = append(ps.all, pc)
	ps.mu.Unlock()
	return pc, nil
}

// survivors lists the worker pids, of every cluster ever started, that
// still exist.
func (ps *procSet) survivors() []int {
	ps.mu.Lock()
	all := append([]*procCluster(nil), ps.all...)
	ps.mu.Unlock()
	var pids []int
	for _, pc := range all {
		pids = append(pids, pc.surviving()...)
	}
	return pids
}

func (ps *procSet) forget(pc *procCluster) {
	ps.mu.Lock()
	delete(ps.open, pc)
	ps.mu.Unlock()
}

// closeAll kills the workers of every cluster still running.
func (ps *procSet) closeAll() {
	ps.mu.Lock()
	open := ps.open
	ps.open = make(map[*procCluster]bool)
	ps.mu.Unlock()
	for pc := range open {
		pc.Close()
	}
}
