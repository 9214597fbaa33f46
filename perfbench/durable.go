package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/obs"
	"remus/internal/shard"
	"remus/internal/storage"
	"remus/internal/txn"
)

// The durable workload: a bank on two nodes with on-disk storage, the GTS
// leased oracle and epoch group commit. One closed-loop client moves money
// between its own accounts, two rows per transaction, often across nodes
// (2PC). The run is made of whole rounds, each on a fresh storage
// directory:
//
//  1. set up the cluster and load the accounts;
//  2. checkpoint both nodes;
//  3. bankAfterCkpt transfers land after the checkpoint;
//  4. migrate half of node 1's shards to node 2 — the initial copy ships the
//     checkpoint files and the catch-up replays the delta — while the
//     client runs bankDuringMove more transfers between accounts of the
//     shards that stay (a write to a moving shard can be invisible on the
//     destination for a while, see README.md);
//  5. bankTail transfers, each between a distinct account of the moved
//     shards (so the write lands on the destination) and a distinct account
//     of node-1 shards that never move;
//  6. check the end state row for row and the total balance;
//  7. kill the cluster in-process, restart it from its directories,
//     re-creating the table with its creation placement as the repository's
//     own restart tests do, and read back every account step 5 wrote.
//
// Each round attempts the same operations, so the share of failed ones does
// not depend on the seed or on how many rounds fit in the window. The same
// round, restarted several times, is the durable probe of the in-memory
// workloads.
const (
	bankNodes      = 2
	bankShards     = 8
	bankAccounts   = 8000
	bankValue      = 64
	bankBalance    = 1000
	bankAfterCkpt  = 300
	bankDuringMove = 200
	bankTail       = 100
	bankLease      = 64
	bankEpochTxns  = 32
	// probeRestarts is how many times durableProbe restarts its cluster.
	probeRestarts = 13
)

// bankPlacement is the creation placement: even shards on node 1, odd on 2.
func bankPlacement(i int) base.NodeID { return base.NodeID(i%2 + 1) }

var (
	// bankMoved are the shard indexes that migrate from node 1 to node 2.
	bankMoved = []int{0, 2}
	// bankFixed are node-1 shard indexes that never move: the tail's
	// partners, so a tail transfer spans both nodes after the move, and the
	// restart read-backs of accounts the fault does not touch.
	bankFixed = []int{4, 6}
)

func bankConfig(dir string, tr *tracer) cluster.Config {
	cfg := cluster.Config{
		Nodes:     bankNodes,
		Scheme:    cluster.GTS,
		LeaseSize: bankLease,
		Epoch:     txn.EpochConfig{Txns: bankEpochTxns},
		Storage:   storage.Config{Dir: dir},
	}
	if tr != nil {
		cfg.Recorder = tr.recorder()
	}
	return cfg
}

// bankClient runs two-row transfers over the accounts its model owns.
type bankClient struct {
	sess *cluster.Session
	tbl  *shard.Table
	m    *model
	rng  *rand.Rand
	st   *fgStats
	tm   txnTimer
	tr   *tracer
	bad  error
}

// transfer moves 1..5 from one account to the other, in whichever
// direction the payer can afford.
func (b *bankClient) transfer(x, y uint64) {
	amount := uint64(1 + b.rng.Intn(5))
	from, to := x, y
	if b.m.balance(from) < amount {
		from, to = y, x
	}
	tm := &b.tm
	tm.begin(b.st, b.tr, true)
	tx, err := b.sess.Begin()
	if err != nil {
		b.st.fail(fmt.Errorf("begin: %w", err))
		return
	}
	b.st.beginNs += tm.mark("begin")
	for _, k := range []uint64{from, to} {
		v, err := tx.Get(b.tbl, keyOf(k))
		b.st.getNs += tm.mark("get")
		if err != nil {
			tx.Abort()
			b.st.fail(err)
			return
		}
		if tm.traced {
			b.st.gets++
		}
		if cerr := b.m.check(k, v); cerr != nil && b.bad == nil {
			b.bad = cerr
		}
	}
	bf, bt := b.m.balance(from)-amount, b.m.balance(to)+amount
	for _, w := range []struct{ k, bal uint64 }{{from, bf}, {to, bt}} {
		err := tx.Update(b.tbl, keyOf(w.k), b.m.next(w.k, w.bal))
		b.st.updNs += tm.mark("update")
		if err != nil {
			tx.Abort()
			b.st.fail(err)
			return
		}
		if tm.traced {
			b.st.upds++
		}
	}
	parts := tx.Participants()
	_, err = tx.Commit()
	b.st.commitNs += tm.mark("commit")
	if err != nil {
		b.m.failed(from, bf)
		b.m.failed(to, bt)
		b.st.fail(fmt.Errorf("commit: %w", err))
		return
	}
	b.m.acked(from, bf)
	b.m.acked(to, bt)
	tm.committed(parts)
}

// random runs n transfers between random distinct accounts of accts.
func (b *bankClient) random(n int, accts []uint64) {
	for i := 0; i < n; i++ {
		x := b.rng.Intn(len(accts))
		y := b.rng.Intn(len(accts) - 1)
		if y >= x {
			y++
		}
		b.transfer(accts[x], accts[y])
	}
}

// bankTally collects the figures of a workload's bank rounds.
type bankTally struct {
	setups   []float64
	recoverS []float64
	heap     float64
	mig      migTally
	ckpt     opTally
	fg       fgStats
	// per-round foreground figures; the run reports their medians
	roundTPS, roundP50, roundP99 []float64
	delta                        counters
	rounds                       int
	// restart read-backs: tail accounts on never-moved shards (fixed) and
	// on the moved shards (moved), and how many of each failed
	fixedReads, fixedFailed int64
	movedReads, movedStale  int64
}

// bankRound runs one round (see the top of this file), restarting the
// killed cluster restarts times and reading back after the last restart;
// traced turns recording on for the round. Check failures go to rep; the
// error return is for a round that could not run at all.
func bankRound(cfg runConfig, rep *report, tr *tracer, bt *bankTally, traced bool, restarts int) error {
	dir, err := os.MkdirTemp(cfg.workdir, "bank-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runtime.GC()
	start := time.Now()
	c := cluster.New(bankConfig(dir, tr))
	tbl, err := c.CreateTable("accounts", bankShards, 0, bankPlacement)
	if err != nil {
		return err
	}
	if err := loadRows(c, tbl, bankAccounts, bankValue, bankBalance); err != nil {
		return err
	}
	bt.setups = append(bt.setups, time.Since(start).Seconds())
	defer c.CloseStorage()

	tr.set(c, traced)
	defer tr.set(c, false)
	bt.rounds++

	for _, id := range []base.NodeID{1, 2} {
		id := id
		var cerr error
		bt.ckpt.time(tr, "checkpoint", func() int {
			_, cerr = c.CheckpointNode(id)
			return 0
		})
		if cerr != nil {
			return fmt.Errorf("checkpoint %v: %w", id, cerr)
		}
	}

	sess, err := c.Connect(1)
	if err != nil {
		return err
	}
	var st fgStats
	cl := &bankClient{
		sess: sess, tbl: tbl, st: &st, tr: tr,
		m:   newModel(bankValue, 0, 1, bankAccounts, bankBalance),
		rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(bt.rounds))),
	}
	moved := rowsWhere(tbl, bankAccounts, func(i int) bool { return slices.Contains(bankMoved, i) })
	fixed := rowsWhere(tbl, bankAccounts, func(i int) bool { return slices.Contains(bankFixed, i) })
	cl.rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
	cl.rng.Shuffle(len(fixed), func(i, j int) { fixed[i], fixed[j] = fixed[j], fixed[i] })
	tailMoved, tailFixed := moved[:bankTail], fixed[:bankTail]

	all := rowsWhere(tbl, bankAccounts, func(int) bool { return true })
	staying := rowsWhere(tbl, bankAccounts, func(i int) bool { return !slices.Contains(bankMoved, i) })

	before := readCounters(c)
	fgStart := time.Now()
	cl.random(bankAfterCkpt, all)
	fgTime := time.Since(fgStart)

	group := make([]base.ShardID, len(bankMoved))
	for i, idx := range bankMoved {
		group[i] = tbl.FirstShard + base.ShardID(idx)
	}
	migDone := make(chan error, 1)
	ct := newControllers(c, tr, dir)
	go func() { migDone <- bt.mig.migrate(c, ct, tr, group, 2) }()
	fgStart = time.Now()
	cl.random(bankDuringMove, staying)
	fgTime += time.Since(fgStart)
	if err := <-migDone; err != nil {
		rep.fail(err)
	}

	fgStart = time.Now()
	for i := range tailMoved {
		cl.transfer(tailMoved[i], tailFixed[i])
	}
	fgTime += time.Since(fgStart)
	bt.delta.add(readCounters(c).sub(before))
	if traced {
		tr.onTime += fgTime
	} else {
		tr.offTime += fgTime
	}

	if cl.bad != nil {
		rep.fail(cl.bad)
	}
	rows, err := scanTable(c, tbl)
	if err != nil {
		return fmt.Errorf("end-state scan: %w", err)
	}
	rep.fail(checkScan(rows, cl.m))
	var sum uint64
	for k, v := range rows {
		if _, _, bal, err := decodeValue(v, bankValue); err == nil {
			sum += bal
		} else {
			rep.fail(fmt.Errorf("end-state row %d: %w", k, err))
		}
	}
	if want := uint64(bankAccounts * bankBalance); sum != want || cl.m.total() != want {
		rep.fail(fmt.Errorf("total balance %d (model %d), want %d", sum, cl.m.total(), want))
	}
	if bt.heap == 0 {
		bt.heap = heapLiveMB()
	}
	bt.roundTPS = append(bt.roundTPS, ratio(float64(st.commits()), fgTime.Seconds()))
	bt.roundP50 = append(bt.roundP50, quantile(append([]float64(nil), st.lat...), 0.50))
	bt.roundP99 = append(bt.roundP99, quantile(append([]float64(nil), st.lat...), 0.99))
	bt.fg.merge(&st)

	// Kill: the cluster is abandoned without closing its storage, and a new
	// one opens the same directories. recover_s runs from cluster.New to the
	// first read served.
	for r := 0; r < restarts; r++ {
		runtime.GC()
		rstart := time.Now()
		// The restarted cluster records nothing: the trace covers the round.
		c2 := cluster.New(bankConfig(dir, nil))
		tbl2, err := c2.CreateTable("accounts", bankShards, 0, bankPlacement)
		if err != nil {
			return err
		}
		s2, err := c2.Connect(1)
		if err != nil {
			return err
		}
		v, err := readOne(s2, tbl2, tailFixed[0])
		if err != nil {
			return fmt.Errorf("first read after restart: %w", err)
		}
		bt.recoverS = append(bt.recoverS, time.Since(rstart).Seconds())
		if tr.rec != nil {
			tr.spans.add(0, 0, "restart", rstart, time.Now())
		}
		rep.fail(cl.m.check(tailFixed[0], v))
		if r == restarts-1 {
			bt.readBack(rep, cl.m, s2, tbl2, tailFixed, tailMoved)
		}
		c2.CloseStorage()
	}
	return nil
}

// readBack reads back, on the restarted cluster, every account the tail
// wrote. A never-moved account must read its last acknowledged value: an
// error is a failed read, a wrong value a failed check. A moved account
// whose read errs or is stale is the durability fault (see README.md).
func (bt *bankTally) readBack(rep *report, m *model, s *cluster.Session, tbl *shard.Table, fixed, moved []uint64) {
	for _, k := range fixed {
		bt.fixedReads++
		v, err := readOne(s, tbl, k)
		if err != nil {
			bt.fixedFailed++
			continue
		}
		if err := m.check(k, v); err != nil {
			rep.fail(fmt.Errorf("after restart, never-moved %w", err))
		}
	}
	for _, k := range moved {
		bt.movedReads++
		v, err := readOne(s, tbl, k)
		if err == nil {
			err = m.check(k, v)
		}
		if err != nil {
			bt.movedStale++
			if bt.movedStale == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: read-back of a moved account after restart: %v\n", err)
			}
		}
	}
}

// readOne reads one row in its own transaction.
func readOne(s *cluster.Session, tbl *shard.Table, k uint64) (base.Value, error) {
	tx, err := s.Begin()
	if err != nil {
		return nil, err
	}
	v, err := tx.Get(tbl, keyOf(k))
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return v, nil
}

func runDurable(cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(cfg.trace, rep.spans)
	var bt bankTally
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for bt.rounds == 0 || time.Now().Before(deadline) {
		// A traced run alternates untraced and traced rounds.
		traced := cfg.trace && bt.rounds%2 == 1
		if err := bankRound(cfg, rep, tr, &bt, traced, 1); err != nil {
			return nil, err
		}
	}
	// Every read-back is an operation; the stale moved ones fail.
	reportFailures(rep, &bt.fg)
	rep.attempted += bt.fixedReads + bt.movedReads
	rep.failed += bt.fixedFailed + bt.movedStale
	rep.e2e["setup_s"] = median(bt.setups)
	rep.e2e["recover_s"] = median(bt.recoverS)
	rep.e2e["migrate_ms"] = median(bt.mig.wall)
	rep.e2e["heap_live_mb"] = bt.heap
	// Rounds are alike, so their medians keep a disk stall that hits one
	// round from moving the run's figures.
	rep.e2e["tps"] = median(bt.roundTPS)
	rep.e2e["txn_p50_us"] = median(bt.roundP50)
	rep.e2e["txn_p99_us"] = median(bt.roundP99)
	fillLayers(rep, layerInputs{
		fg: &bt.fg, delta: bt.delta, commits: float64(bt.fg.commits()),
		trace: tr.rec, tr: tr, mig: &bt.mig,
	})
	bt.fillDurableLayers(rep, tr.rec)
	return rep, nil
}

// durableProbe runs one durable round, restarted probeRestarts times, after
// an in-memory workload's window: the run's recover_s and the figures of
// the layers only a durable cluster uses. Its own trace keeps its
// transactions out of the window's. The read-backs of moved accounts fail
// on every run (the durability fault); counted as operations they would
// make the failed share depend on the window's throughput, so they are
// reported as storage.stale_readbacks instead.
func durableProbe(cfg runConfig, rep *report, spans *spanLog) error {
	tr := newTracer(cfg.trace, spans)
	var bt bankTally
	if err := bankRound(cfg, rep, tr, &bt, cfg.trace, probeRestarts); err != nil {
		return err
	}
	reportFailures(rep, &bt.fg)
	rep.attempted += bt.fixedReads
	rep.failed += bt.fixedFailed
	rep.e2e["recover_s"] = median(bt.recoverS)
	bt.fillDurableLayers(rep, tr.rec)
	return nil
}

// fillDurableLayers sets the per-layer figures of the durable layers.
func (bt *bankTally) fillDurableLayers(rep *report, trace *obs.Trace) {
	L := rep.layer
	L["storage.checkpoint_ms"] = bt.ckpt.meanMs()
	L["storage.recover_us_per_txn"] = median(bt.recoverS) * 1e6 / float64(bankAfterCkpt+bankDuringMove+bankTail)
	L["storage.stale_readbacks"] = ratio(float64(bt.movedStale), float64(bt.rounds))
	if trace != nil {
		L["txn.epoch_txns"] = trace.Histogram(obs.HistEpochTxns).Mean()
		L["txn.epoch_seal_delay_us"] = trace.Histogram(obs.HistEpochSealDelay).Mean() / 1e3
	}
	if n := bt.mig.copies["ckpt"]; n != len(bt.mig.wall) {
		rep.fail(fmt.Errorf("%d of %d durable migrations copied from checkpoint files, want all", n, len(bt.mig.wall)))
	}
}
