package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/shard"
)

// The ycsb workload: §4.3's YCSB, single-statement 50/50 read/update
// transactions, uniform over a table far larger than a core's L2, on three
// in-memory DTS nodes with no migration. Two closed-loop clients own
// disjoint halves of the rows (even and odd keys).
const (
	ycsbNodes   = 3
	ycsbShards  = 12
	ycsbRows    = 200_000
	ycsbValue   = 100
	ycsbClients = 2
	// ycsbWarmup transactions per client run before the window; the live
	// heap is read right after them, so it does not track speed.
	ycsbWarmup = 25_000
	// ycsbVacuumEvery is the operator's vacuum cadence. It equals sliceLen,
	// so in a traced run every slice, traced or not, holds one vacuum.
	ycsbVacuumEvery = sliceLen
	// vacuumSlack backs the vacuum horizon off the oldest snapshot.
	vacuumSlack = time.Millisecond
	// ycsbSetups is how many times a run builds its cluster; setup_s is the
	// median and the last build is the one measured.
	ycsbSetups = 5
	// probeMigrations is the number of idle migrations of one shard (about
	// 16,700 rows) around the window, for migrate_ms.
	probeMigrations = 84
)

func runYCSB(cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(cfg.trace, rep.spans)
	if err := measureYCSB(cfg, rep, tr); err != nil {
		return nil, err
	}
	// The ycsb cluster is garbage by now; the probe's set-up collects it.
	if err := durableProbe(cfg, rep, rep.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// measureYCSB sets up, warms up and measures the ycsb cluster, migrates one
// of its shards idle before and after the window for migrate_ms, and checks
// its outputs.
func measureYCSB(cfg runConfig, rep *report, tr *tracer) error {
	var c *cluster.Cluster
	var tbl *shard.Table
	var setups []float64
	for i := 0; i < ycsbSetups; i++ {
		c, tbl = nil, nil
		runtime.GC()
		start := time.Now()
		c = cluster.New(cluster.Config{Nodes: ycsbNodes, Recorder: tr.recorder()})
		var err error
		if tbl, err = c.CreateTable("usertable", ycsbShards, 0, nil); err != nil {
			return err
		}
		if err := loadRows(c, tbl, ycsbRows, ycsbValue, 0); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	tr.set(c, false)

	clients := make([]*kvClient, ycsbClients)
	for i := range clients {
		s, err := c.Connect(base.NodeID(i%ycsbNodes + 1))
		if err != nil {
			return err
		}
		owned := (ycsbRows - i + ycsbClients - 1) / ycsbClients
		clients[i] = &kvClient{
			sess: s, tbl: tbl, tr: tr,
			m:   newModel(ycsbValue, uint64(i), ycsbClients, owned, 0),
			rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(i))),
		}
	}
	var vacuum opTally
	runVacuum := func() {
		vacuum.time(tr, "vacuum", func() int { return c.Vacuum(vacuumSlack) })
	}

	// Warm-up: a fixed amount of work, then the live heap.
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *kvClient) {
			defer wg.Done()
			for j := 0; j < ycsbWarmup; j++ {
				cl.op(false)
			}
		}(cl)
	}
	wg.Wait()
	runVacuum()
	rep.e2e["heap_live_mb"] = heapLiveMB()
	vacuum = opTally{}

	// The probe for migrate_ms, which this workload's window has no part
	// in: idle migrations of one shard around the nodes, half of them here
	// and half after the window, so the samples spread over the run and one
	// slow stretch of the host does not set their median. Each half is a
	// multiple of the node count, so the shard is home for the window.
	var probe migTally
	ct := newControllers(c, tr, cfg.workdir)
	group := []base.ShardID{tbl.FirstShard}
	probeMoves := func() {
		owner := base.NodeID(1)
		for i := 0; i < probeMigrations/2; i++ {
			dst := base.NodeID(int(owner)%ycsbNodes + 1)
			if err := probe.migrate(c, ct, tr, group, dst); err != nil {
				rep.fail(err)
				return
			}
			owner = dst
		}
	}
	probeMoves()
	runtime.GC()

	before := readCounters(c)
	lastVacuum := time.Now()
	elapsed := tr.window(c, time.Duration(cfg.seconds*float64(time.Second)), ycsbClients,
		func(i int, stop *atomic.Bool) {
			for !stop.Load() {
				clients[i].op(true)
			}
		},
		func() {
			if time.Since(lastVacuum) >= ycsbVacuumEvery {
				runVacuum()
				lastVacuum = time.Now()
			}
		})
	delta := readCounters(c).sub(before)

	var fg fgStats
	sts := make([]*fgStats, len(clients))
	for i, cl := range clients {
		fg.merge(&cl.st)
		sts[i] = &cl.st
	}
	fillLatency(rep, sts, tr, elapsed.Seconds())
	fillLayers(rep, layerInputs{
		fg: &fg, delta: delta, commits: float64(fg.commits()),
		trace: tr.rec, tr: tr, vacuum: &vacuum,
	})

	runtime.GC()
	probeMoves()
	rep.e2e["migrate_ms"] = median(probe.wall)

	models := make([]*model, len(clients))
	for i, cl := range clients {
		models[i] = cl.m
		reportFailures(rep, &cl.st)
		if cl.bad != nil {
			rep.fail(fmt.Errorf("client %d: %w", i, cl.bad))
		}
	}
	rows, err := scanTable(c, tbl)
	if err != nil {
		return fmt.Errorf("end-state scan: %w", err)
	}
	rep.fail(checkScan(rows, models...))
	return nil
}

// reportFailures adds the foreground tally to the report's operation counts
// and prints the first few failures.
func reportFailures(rep *report, fg *fgStats) {
	rep.attempted += fg.attempted
	rep.failed += fg.failed
	for _, e := range fg.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", e)
	}
}
