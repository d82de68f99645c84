package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/proto"
)

// Deployment shape: 8 nodes at p=4, unthrottled, with the frontend
// tuned as the reference deployment runs roar-frontend.
const (
	clusterNodes = 8
	clusterP     = 4
	cacheBudget  = 8 << 20
)

// startCluster starts the in-process cluster every workload runs on:
// loopback TCP, the binary wire codecs and the real coordinator. A
// non-empty ingestDir also opens the durable ingest WAL there.
func startCluster(seed int64, ingestDir string) (*cluster.Cluster, error) {
	enc := encoderConfig()
	return cluster.Start(cluster.Options{
		Nodes:     clusterNodes,
		P:         clusterP,
		Seed:      seed,
		Encoder:   &enc,
		IngestDir: ingestDir,
		Frontend: frontend.Config{
			MaxInFlight:     32,
			DispatchWorkers: 64,
			HedgeQuantile:   0.95,
			CacheBudget:     cacheBudget,
			PoolSize:        runtime.GOMAXPROCS(0),
			Seed:            seed,
		},
	})
}

// instance is one set-up workload: a running cluster loaded with the
// workload's inputs.
type instance interface {
	cluster() *cluster.Cluster
	// query runs request i of the plan and keeps what verify needs.
	query(ctx context.Context, i int) (frontend.Result, error)
	// background starts the workload's other operations (puts,
	// reconfiguration); the returned function stops them and waits.
	background(ctx context.Context, tr *tracer, epoch time.Time) (stop func())
	// verify checks every recorded answer against a reference.
	verify() check
	// report returns the workload's own end-to-end and layer metrics.
	report() (endToEnd, layers []metric)
	close()
}

// check is a verification outcome. wrong counts query answers that
// differ from the reference; ops and opsFailed count the workload's
// other operations (puts, reconfigurations, probes) and how many of
// them failed or read wrong.
type check struct {
	wrong     int
	ops       int
	opsFailed int
	notes     []string
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// warm runs queries closed-loop with conc clients so connection pools,
// speed estimates and hedge trackers are warm before timing.
func warm(ctx context.Context, fe *frontend.Frontend, specs []frontend.QuerySpec, conc int) error {
	errs := make(chan error, conc)
	next := make(chan frontend.QuerySpec)
	for w := 0; w < conc; w++ {
		go func() {
			var first error
			for s := range next {
				if _, err := fe.Query(ctx, s); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, s := range specs {
		next <- s
	}
	close(next)
	var first error
	for w := 0; w < conc; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// parallelism is the number of goroutines CPU-bound reference work uses.
func parallelism() int { return runtime.GOMAXPROCS(0) }

// snap is a set of counters read at a phase boundary.
type snap struct {
	cpu       time.Duration // process user+sys
	nodes     []proto.StatsResp
	cache     frontend.CacheStats
	ixHits    int64
	ixMisses  int64
	alloc     uint64 // cumulative heap bytes allocated
	heapInuse uint64
	gcCPU     float64 // cumulative GC CPU seconds (runtime estimate)
	shed      int     // queries shed since the previous snap
}

func takeSnap(c *cluster.Cluster) snap {
	s := snap{cpu: processCPU(), cache: c.FE.CacheStats()}
	rep := c.FE.HealthReport()
	s.shed = rep.Shed + rep.ShedNormal
	for _, n := range c.Nodes() {
		s.nodes = append(s.nodes, n.Stats())
		if ix := n.Index(); ix != nil {
			st := ix.Cache().Stats()
			s.ixHits += st.Hits
			s.ixMisses += st.Misses
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.heapInuse = ms.TotalAlloc, ms.HeapInuse
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	return s
}

// processCPU returns the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// nodeDelta sums the node counters between two snaps.
type nodeDelta struct {
	queries, scanned, canceled int64
	busy                       time.Duration
	busyMax                    time.Duration
	peak                       int64
}

func deltaNodes(a, b snap) nodeDelta {
	var d nodeDelta
	for i := range b.nodes {
		q := b.nodes[i].Queries - a.nodes[i].Queries
		busy := time.Duration(b.nodes[i].BusyNanos - a.nodes[i].BusyNanos)
		d.queries += q
		d.scanned += b.nodes[i].Scanned - a.nodes[i].Scanned
		d.canceled += b.nodes[i].Canceled - a.nodes[i].Canceled
		d.busy += busy
		d.busyMax = max(d.busyMax, busy)
		d.peak = max(d.peak, b.nodes[i].PeakConcurrency)
	}
	return d
}
