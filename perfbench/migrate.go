package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/shard"
)

// The migrate workload: Remus moves half of a two-node in-memory DTS table
// (the four shards created on node 1) to node 2 and back, one migration
// right after another, for the whole window. Meanwhile one closed-loop
// client runs the ycsb mix: its reads pick from every row, so half of them
// go to the moving group, and its updates pick from the rows that never
// move. An update committed on the source while a migration copies or
// catches up is now and then invisible on the destination for a while
// afterwards (see "Migration under writes" in README.md), so no update
// touches a moving shard.
const (
	migNodes  = 2
	migShards = 8
	migRows   = 40_000
	migValue  = 100
	// migWarmup transactions and migWarmupMoves migrations run before the
	// window; the live heap is read right after them.
	migWarmup      = 20_000
	migWarmupMoves = 2
	// migSetups is how many times a run builds its cluster (a smaller one
	// than ycsb's, so more builds keep setup_s's median steady).
	migSetups = 9
)

// migPlacement puts the first half of the shards on node 1, the rest on 2.
func migPlacement(i int) base.NodeID {
	if i < migShards/2 {
		return 1
	}
	return 2
}

func runMigrate(cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(cfg.trace, rep.spans)
	if err := measureMigrate(cfg, rep, tr); err != nil {
		return nil, err
	}
	if err := durableProbe(cfg, rep, rep.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// measureMigrate sets up, warms up and measures the migrate cluster and
// checks its outputs.
func measureMigrate(cfg runConfig, rep *report, tr *tracer) error {
	var c *cluster.Cluster
	var tbl *shard.Table
	var setups []float64
	for i := 0; i < migSetups; i++ {
		c, tbl = nil, nil
		runtime.GC()
		start := time.Now()
		c = cluster.New(cluster.Config{Nodes: migNodes, Recorder: tr.recorder()})
		var err error
		if tbl, err = c.CreateTable("usertable", migShards, 0, migPlacement); err != nil {
			return err
		}
		if err := loadRows(c, tbl, migRows, migValue, 0); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	tr.set(c, false)

	s, err := c.Connect(1)
	if err != nil {
		return err
	}
	cl := &kvClient{
		sess: s, tbl: tbl, tr: tr,
		m:   newModel(migValue, 0, 1, migRows, 0),
		upd: rowsWhere(tbl, migRows, func(i int) bool { return i >= migShards/2 }),
		rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + 1)),
	}
	group := make([]base.ShardID, migShards/2)
	for i := range group {
		group[i] = tbl.FirstShard + base.ShardID(i)
	}
	ct := newControllers(c, tr, cfg.workdir)
	var mig migTally
	at := base.NodeID(1)
	var migErr error
	move := func() bool {
		dst := migNodes + 1 - at // the other node
		if err := mig.migrate(c, ct, tr, group, dst); err != nil {
			migErr = err
			return false
		}
		at = dst
		return true
	}

	// Warm-up: a fixed number of transactions and migrations, then the
	// live heap.
	warm := make(chan struct{})
	go func() {
		defer close(warm)
		for i := 0; i < migWarmupMoves && move(); i++ {
		}
	}()
	for j := 0; j < migWarmup; j++ {
		cl.op(false)
	}
	<-warm
	if migErr != nil {
		return migErr
	}
	rep.e2e["heap_live_mb"] = heapLiveMB()
	mig = migTally{}

	before := readCounters(c)
	elapsed := tr.window(c, time.Duration(cfg.seconds*float64(time.Second)), 2,
		func(i int, stop *atomic.Bool) {
			if i == 0 {
				for !stop.Load() {
					cl.op(true)
				}
				return
			}
			for !stop.Load() && move() {
			}
		}, nil)
	delta := readCounters(c).sub(before)
	if migErr != nil {
		rep.fail(migErr)
	}

	reportFailures(rep, &cl.st)
	if cl.bad != nil {
		rep.fail(cl.bad)
	}
	rows, err := scanTable(c, tbl)
	if err != nil {
		return fmt.Errorf("end-state scan: %w", err)
	}
	rep.fail(checkScan(rows, cl.m))
	rep.e2e["migrate_ms"] = median(mig.wall)
	fillLatency(rep, []*fgStats{&cl.st}, tr, elapsed.Seconds())
	fillLayers(rep, layerInputs{
		fg: &cl.st, delta: delta, commits: float64(cl.st.commits()),
		trace: tr.rec, tr: tr, mig: &mig,
	})
	return nil
}
