package proc

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// Worker daemons are spawned by re-executing the current binary with
// these environment variables set — the same pattern whether the
// binary is optiflow-serve or a test binary whose TestMain calls
// MaybeChildMode. No separate worker binary needs building or
// locating.
const (
	envWorker      = "OPTIFLOW_PROC_WORKER"
	envAddr        = "OPTIFLOW_PROC_ADDR"
	envID          = "OPTIFLOW_PROC_ID"
	envToken       = "OPTIFLOW_PROC_TOKEN"
	envBeatMS      = "OPTIFLOW_PROC_BEAT_MS"
	envHandshakeMS = "OPTIFLOW_PROC_HANDSHAKE_MS"
	envReconnectMS = "OPTIFLOW_PROC_RECONNECT_MS"
	envBackoffMS   = "OPTIFLOW_PROC_BACKOFF_MS"
)

// MaybeChildMode checks whether this process was spawned as a worker
// daemon and, if so, runs it and exits — it never returns in child
// mode. Entry points that
// can host workers (cmd/optiflow-serve, TestMain of proc-mode test
// packages) must call it first thing in main.
func MaybeChildMode() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	cfg, err := workerConfigFromEnv()
	if err == nil {
		err = RunWorker(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "optiflow worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// envDuration reads an optional millisecond-valued knob.
func envDuration(key string) time.Duration {
	if ms, err := strconv.Atoi(os.Getenv(key)); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return 0
}

// workerConfigFromEnv rebuilds the WorkerConfig the coordinator
// serialised into the child's environment.
func workerConfigFromEnv() (WorkerConfig, error) {
	id, err := strconv.Atoi(os.Getenv(envID))
	if err != nil {
		return WorkerConfig{}, fmt.Errorf("proc: bad %s: %v", envID, err)
	}
	cfg := WorkerConfig{
		Addr:             os.Getenv(envAddr),
		Worker:           id,
		Token:            os.Getenv(envToken),
		Heartbeat:        envDuration(envBeatMS),
		HandshakeTimeout: envDuration(envHandshakeMS),
		ReconnectGrace:   envDuration(envReconnectMS),
		RetryBackoff:     envDuration(envBackoffMS),
	}
	if cfg.Addr == "" {
		return WorkerConfig{}, fmt.Errorf("proc: %s not set", envAddr)
	}
	return cfg, nil
}

// workerEnv serialises a worker's config for the spawned child. The
// timing knobs mirror the coordinator's: the same handshake deadline on
// both ends, and a reconnect grace that outlasts the suspicion ladder.
func workerEnv(addr string, id int, token string, cfg Config) []string {
	ms := func(d time.Duration) string { return strconv.Itoa(int(d / time.Millisecond)) }
	return append(os.Environ(),
		envWorker+"=1",
		envAddr+"="+addr,
		envID+"="+strconv.Itoa(id),
		envToken+"="+token,
		envBeatMS+"="+ms(cfg.Heartbeat),
		envHandshakeMS+"="+ms(cfg.HandshakeTimeout),
		envReconnectMS+"="+ms(cfg.ReconnectGrace),
		envBackoffMS+"="+ms(cfg.RetryBackoff),
	)
}
