package proc

import (
	"optiflow/internal/cluster"
	"optiflow/internal/supervise"
)

// Provision implements supervise.ClusterFactory for the multi-process
// deployment: it boots a Coordinator with real worker-daemon
// processes whose membership takes the same supervise.ClusterOptions
// as the simulation (bounded spare pool, acquire hook, event cap). The
// returned teardown SIGKILLs any workers still running.
//
// Drop it into a demoapp Config or experiments Config as NewCluster —
// the binary hosting the run must call MaybeChildMode first thing in
// main (or TestMain), since replacement workers are spawned by
// re-executing it.
func Provision(workers, partitions int, sup *supervise.Config) (cluster.Interface, func(), error) {
	cfg := Config{Workers: workers, Partitions: partitions}
	if sup != nil {
		cfg.Cluster = sup.ClusterOptions()
	}
	co, err := Start(cfg)
	if err != nil {
		return nil, nil, err
	}
	return co, func() { co.Close() }, nil
}
